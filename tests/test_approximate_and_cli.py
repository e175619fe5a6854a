"""Tests for the sampling-based Shapley estimator and the command-line interface."""

import pytest

from repro.api import AttributionSession, EngineConfig
from repro.cli import main
from repro.core import (
    ExplicitGame,
    approximate_shapley_value,
    approximate_shapley_value_of_fact,
    samples_for_guarantee,
)
from repro.data import fact
from repro.experiments import q_rst
from repro.io import save_partitioned_csv


class TestApproximateShapley:
    def test_sample_size_formula(self):
        assert samples_for_guarantee(0.1, 0.05) == 185
        with pytest.raises(ValueError):
            samples_for_guarantee(0.0, 0.5)
        with pytest.raises(ValueError):
            samples_for_guarantee(0.1, 1.5)

    def test_exact_on_deterministic_game(self):
        # Dictator game: the estimate is exact whatever the sample.
        game = ExplicitGame(["a", "b"], {frozenset(["a"]): 1, frozenset(["a", "b"]): 1})
        result = approximate_shapley_value(game, "a", n_samples=50, seed=3)
        assert result.estimate == 1
        assert approximate_shapley_value(game, "b", n_samples=50, seed=3).estimate == 0

    def test_players_without_a_common_total_order(self):
        """Regression: the Player bound is Hashable, not orderable.

        The renaming-determinism fix ordered players with plain ``sorted``;
        a generic game whose players mix types (no common ``<``) must fall
        back to a repr order instead of raising ``TypeError``, and stay
        deterministic for a fixed seed.
        """
        players = [1, "a", ("t",)]
        game = ExplicitGame(players, {frozenset(players): 1})
        first = approximate_shapley_value(game, 1, n_samples=40, seed=7)
        again = approximate_shapley_value(game, 1, n_samples=40, seed=7)
        assert first.estimate == again.estimate

    def test_seeded_estimate_invariant_under_order_preserving_renaming(self):
        """Regression: players were ordered by ``str``, not by the fact total order.

        The package-wide tie-break contract (``repro.engine.svc_engine._ranking_key``)
        promises orderings "NOT by string rendering".  The two games below are
        identical up to a renaming that preserves the facts' total order but
        *reverses* their string order (``"S!(x)" < "S(y)"`` as strings although
        ``S(y) < S!(x)`` is false — ``S < S!`` as facts), so a seeded run must
        give the same estimates on both.  Before the fix, seeds 1, 4 and 5
        diverged.
        """
        import itertools

        f1, f2, f3 = fact("S", "y"), fact("S!", "x"), fact("T", "z")
        g1, g2, g3 = fact("S", "a"), fact("S", "b"), fact("T", "z")
        assert sorted([f1, f2, f3]) == [f1, f2, f3]
        assert sorted([f1, f2, f3], key=str) != [f1, f2, f3]

        def game(a, b, c):
            # v(C) = 1 if a ∈ C else 1 if {b, c} ⊆ C else 0 — asymmetric, so
            # the players are distinguishable and ordering mistakes surface.
            table = {}
            for size in range(4):
                for coalition in itertools.combinations([a, b, c], size):
                    chosen = frozenset(coalition)
                    table[chosen] = 1 if a in chosen else (1 if {b, c} <= chosen else 0)
            return ExplicitGame([a, b, c], table)

        original, renamed = game(f1, f2, f3), game(g1, g2, g3)
        for seed in range(6):
            for player, image in ((f1, g1), (f2, g2), (f3, g3)):
                assert (approximate_shapley_value(original, player,
                                                  n_samples=25, seed=seed).estimate
                        == approximate_shapley_value(renamed, image,
                                                     n_samples=25, seed=seed).estimate)

    def test_estimate_close_to_exact_value(self, q_rst, small_pdb):
        target = sorted(small_pdb.endogenous)[0]
        exact = AttributionSession(q_rst, small_pdb, EngineConfig(
            method="counting", on_hard="exact")).of(target).value
        estimate = approximate_shapley_value_of_fact(q_rst, small_pdb, target,
                                                     n_samples=3000, seed=11).estimate
        assert abs(float(estimate) - float(exact)) < 0.08

    def test_estimates_lie_in_unit_interval(self, q_rst, small_pdb):
        session = AttributionSession(q_rst, small_pdb, EngineConfig(
            method="sampled", n_samples=200, seed=5))
        assert all(0 <= estimate <= 1 for estimate in session.values().values())

    def test_seed_reproducibility(self, q_rst, small_pdb):
        target = sorted(small_pdb.endogenous)[0]
        first = approximate_shapley_value_of_fact(q_rst, small_pdb, target, n_samples=300, seed=9)
        second = approximate_shapley_value_of_fact(q_rst, small_pdb, target, n_samples=300, seed=9)
        assert first.estimate == second.estimate

    def test_unknown_fact_rejected(self, q_rst, small_pdb):
        with pytest.raises(ValueError):
            approximate_shapley_value_of_fact(q_rst, small_pdb, fact("Z", "nope"))

    def test_result_metadata(self):
        game = ExplicitGame(["a"], {frozenset(["a"]): 1})
        result = approximate_shapley_value(game, "a", epsilon=0.2, delta=0.1, seed=1)
        assert result.samples == samples_for_guarantee(0.2, 0.1)
        assert isinstance(result.as_float(), float)


@pytest.fixture
def facts_file(tmp_path):
    path = tmp_path / "facts.txt"
    path.write_text("R(a)\nR(c)\nS(a, b)\nS(c, d)\nT(b)\n", encoding="utf-8")
    return path


class TestCLI:
    def test_shapley_command(self, capsys, facts_file):
        code = main(["shapley", "-q", "R(x), S(x, y), T(y)", "-d", str(facts_file),
                     "-x", "R", "T"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Shapley values" in captured.out
        assert "S(a, b)" in captured.out

    def test_shapley_sampled_method(self, capsys, facts_file):
        code = main(["shapley", "-q", "R(x), S(x, y), T(y)", "-d", str(facts_file),
                     "-x", "R", "T", "--method", "sampled", "--samples", "200"])
        assert code == 0
        assert "estimate" in capsys.readouterr().out

    def test_svc_all_workers_flag(self, capsys, facts_file):
        serial = main(["svc-all", "-q", "R(x), S(x, y), T(y)", "-d", str(facts_file),
                       "-x", "R", "T"])
        serial_out = capsys.readouterr().out
        code = main(["svc-all", "-q", "R(x), S(x, y), T(y)", "-d", str(facts_file),
                     "-x", "R", "T", "--workers", "2", "--parallel-threshold", "1"])
        captured = capsys.readouterr()
        assert serial == 0 and code == 0
        assert "workers: 2" in captured.out
        # Identical value table, line for line (parity through the CLI).
        assert [line for line in captured.out.splitlines() if line.startswith("S(")] \
            == [line for line in serial_out.splitlines() if line.startswith("S(")]

    def test_attribute_workers_flag_in_json_report(self, capsys, facts_file):
        code = main(["attribute", "-q", "R(x), S(x, y), T(y)", "-d", str(facts_file),
                     "-x", "R", "T", "--method", "brute", "--workers", "2",
                     "--parallel-threshold", "1", "--json"])
        assert code == 0
        import json as json_module

        report = json_module.loads(capsys.readouterr().out)
        assert report["workers_used"] == 2
        assert report["config"]["workers"] == 2

    def test_workers_zero_rejected(self, capsys, facts_file):
        code = main(["attribute", "-q", "R(x), S(x, y), T(y)", "-d", str(facts_file),
                     "--workers", "0"])
        assert code == 2
        assert "workers" in capsys.readouterr().err

    def test_count_command(self, capsys, facts_file):
        code = main(["count", "-q", "R(x), S(x, y), T(y)", "-d", str(facts_file), "-x", "R", "T"])
        captured = capsys.readouterr()
        assert code == 0
        assert "GMC total" in captured.out

    def test_classify_command(self, capsys):
        assert main(["classify", "-q", "R(x), S(x, y), T(y)"]) == 0
        assert "#P-hard" in capsys.readouterr().out
        assert main(["classify", "-q", "[A B](a, b)"]) == 0
        assert "FP" in capsys.readouterr().out

    def test_probability_command(self, capsys, facts_file):
        code = main(["probability", "-q", "R(x), S(x, y), T(y)", "-d", str(facts_file),
                     "-x", "R", "T", "--p", "1/3"])
        assert code == 0
        assert "Pr(D |= q)" in capsys.readouterr().out

    def test_reduce_command(self, capsys, facts_file):
        code = main(["reduce", "-q", "R(x), S(x, y), T(y)", "-d", str(facts_file),
                     "-x", "R", "T"])
        captured = capsys.readouterr()
        assert code == 0
        assert "exact match: True" in captured.out

    def test_csv_directory_input(self, capsys, tmp_path, q_rst, small_pdb):
        directory = tmp_path / "instance"
        save_partitioned_csv(small_pdb, directory)
        code = main(["count", "-q", "R(x), S(x, y), T(y)", "-d", str(directory)])
        assert code == 0
        assert "GMC total" in capsys.readouterr().out

    def test_error_handling_missing_database(self, capsys, tmp_path):
        code = main(["shapley", "-q", "R(x)", "-d", str(tmp_path / "missing.txt")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_error_handling_bad_query(self, capsys, facts_file):
        code = main(["classify", "-q", "this is not a query"])
        assert code == 2
