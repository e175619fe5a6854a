"""Tests for SVC solvers: brute force, counting-based (Claim A.1), safe pipeline."""

from fractions import Fraction

import pytest

from repro.api import AttributionSession, EngineConfig
from repro.core import (
    QueryGame,
    shapley_value_from_fgmc_vectors,
    shapley_value_safe_pipeline,
    shapley_value_via_fgmc,
)
from repro.data import atom, fact, partitioned, var
from repro.probability import UnsafeQueryError
from repro.queries import cq_with_negation, rpq

X, Y, Z = var("x"), var("y"), var("z")


def _exact(query, pdb, method="auto"):
    """A session that never samples (``on_hard="exact"``)."""
    return AttributionSession(query, pdb, EngineConfig(method=method, on_hard="exact"))


class TestSVCMethodsAgree:
    def test_counting_equals_brute_on_hard_query(self, q_rst, small_pdb):
        for f in sorted(small_pdb.endogenous)[:3]:
            brute = _exact(q_rst, small_pdb, "brute").of(f).value
            counting = _exact(q_rst, small_pdb, "counting").of(f).value
            assert brute == counting

    def test_safe_pipeline_equals_brute_on_safe_query(self, q_hier, small_pdb):
        for f in sorted(small_pdb.endogenous)[:3]:
            brute = _exact(q_hier, small_pdb, "brute").of(f).value
            safe = _exact(q_hier, small_pdb, "safe").of(f).value
            assert brute == safe

    def test_auto_method_on_safe_and_unsafe(self, q_rst, q_hier, small_pdb):
        f = sorted(small_pdb.endogenous)[0]
        assert _exact(q_hier, small_pdb, "auto").of(f).value == _exact(
            q_hier, small_pdb, "brute").of(f).value
        assert _exact(q_rst, small_pdb, "auto").of(f).value == _exact(
            q_rst, small_pdb, "brute").of(f).value

    def test_safe_pipeline_rejects_unsafe_query(self, q_rst, small_pdb):
        f = sorted(small_pdb.endogenous)[0]
        with pytest.raises(UnsafeQueryError):
            shapley_value_safe_pipeline(q_rst, small_pdb, f)

    def test_rpq_shapley_value(self, tiny_graph_db):
        from repro.data import purely_endogenous

        q = rpq("A B C", "a", "b")
        pdb = purely_endogenous(tiny_graph_db)
        f = fact("B", "m1", "m2")
        assert _exact(q, pdb, "counting").of(f).value == _exact(
            q, pdb, "brute").of(f).value

    def test_negation_query_uses_brute_force(self):
        q = cq_with_negation([atom("R", X), atom("S", X, Y)], [atom("N", X, Y)])
        pdb = partitioned([fact("S", "a", "b"), fact("N", "a", "b")], [fact("R", "a")])
        value = _exact(q, pdb, "auto").of(fact("S", "a", "b")).value
        # With N(a,b) present, S(a,b) alone never satisfies the query; its arrival
        # only helps when N(a,b) is absent, i.e. never (N is endogenous: when N absent,
        # S's arrival does satisfy). Verify against the definition directly.
        game = QueryGame(q, pdb)
        expected = (Fraction(1, 2) * game.marginal_contribution(frozenset(), fact("S", "a", "b"))
                    + Fraction(1, 2) * game.marginal_contribution({fact("N", "a", "b")},
                                                                  fact("S", "a", "b")))
        assert value == expected

    def test_non_endogenous_fact_rejected(self, q_rst, rst_exogenous_pdb):
        exo = sorted(rst_exogenous_pdb.exogenous)[0]
        with pytest.raises(ValueError):
            _exact(q_rst, rst_exogenous_pdb).of(exo)


class TestKnownValues:
    def test_single_necessary_fact_gets_full_credit(self, q_rst):
        pdb = partitioned([fact("S", "a", "b")], [fact("R", "a"), fact("T", "b")])
        assert _exact(q_rst, pdb).of(fact("S", "a", "b")).value == 1

    def test_two_interchangeable_facts_share_credit(self, q_rst):
        pdb = partitioned([fact("S", "a", "b"), fact("S", "a2", "b2")],
                          [fact("R", "a"), fact("T", "b"), fact("R", "a2"), fact("T", "b2")])
        values = _exact(q_rst, pdb).values()
        assert set(values.values()) == {Fraction(1, 2)}

    def test_fact_with_zero_contribution(self, q_rst):
        # The S fact dangling from a node with no R fact can never help.
        pdb = partitioned([fact("S", "a", "b"), fact("S", "c", "b")],
                          [fact("R", "a"), fact("T", "b")])
        values = _exact(q_rst, pdb).values()
        assert values[fact("S", "c", "b")] == 0
        assert values[fact("S", "a", "b")] == 1

    def test_exogenous_satisfaction_gives_all_zero(self, q_rst):
        pdb = partitioned([fact("S", "c", "d")],
                          [fact("R", "a"), fact("S", "a", "b"), fact("T", "b")])
        assert _exact(q_rst, pdb).of(fact("S", "c", "d")).value == 0

    def test_series_configuration_values(self, q_hier):
        # R(a) and S(a, b) are both required: each gets 1/2.
        pdb = partitioned([fact("R", "a"), fact("S", "a", "b")], [])
        values = _exact(q_hier, pdb).values()
        assert set(values.values()) == {Fraction(1, 2)}

    def test_efficiency_of_counting_method(self, q_rst, small_pdb):
        values = _exact(q_rst, small_pdb, "counting").values()
        game = QueryGame(q_rst, small_pdb)
        assert sum(values.values()) == game.value(small_pdb.endogenous)


class TestClaimA1Combination:
    def test_vector_combination_formula(self):
        # n = 2 endogenous facts; with-fact vector counts supports of sizes 0..1.
        value = shapley_value_from_fgmc_vectors([1, 1], [0, 1], 2)
        expected = (Fraction(1, 2) * (1 - 0) + Fraction(1, 2) * (1 - 1))
        assert value == expected

    def test_short_vectors_treated_as_zero(self):
        assert shapley_value_from_fgmc_vectors([1], [], 2) == Fraction(1, 2)

    def test_via_fgmc_wrapper(self, q_rst, small_pdb):
        f = sorted(small_pdb.endogenous)[0]
        assert shapley_value_via_fgmc(q_rst, small_pdb, f, "lineage") == _exact(
            q_rst, small_pdb, "brute").of(f).value


class TestRanking:
    def test_ranking_is_sorted_descending(self, q_rst, small_pdb):
        ranked = _exact(q_rst, small_pdb, "counting").ranking()
        values = [value for _, value in ranked]
        assert values == sorted(values, reverse=True)

    def test_ranking_contains_every_endogenous_fact(self, q_rst, small_pdb):
        ranked = _exact(q_rst, small_pdb, "counting").ranking()
        assert {f for f, _ in ranked} == small_pdb.endogenous
