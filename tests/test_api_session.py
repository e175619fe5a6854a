"""Tests for the ``repro.api`` attribution session (the new stable surface).

The *deprecation gate* covers this file with the rest of tier-1: CI runs the
whole suite with ``-W error::DeprecationWarning``, so any deprecated call
reached from a test fails it.  The package itself emits no
``DeprecationWarning``; the legacy free functions that once did were removed
in favour of the session.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.dichotomy import Complexity
from repro.api import (
    AttributionReport,
    AttributionSession,
    ConfigError,
    EngineConfig,
    IntractableQueryError,
    ReproError,
    UnsafeQueryError,
    attribute,
)
from repro.data import (
    Database,
    PartitionedDatabase,
    atom,
    bipartite_rst_database,
    fact,
    partition_by_relation,
    var,
)
from repro.engine import SVCEngine, clear_engine_cache, engine_cache_stats, get_engine
from repro.engine.svc_engine import _ranking_key
from repro.experiments import full_catalog
from repro.queries import (
    ConjunctiveQuery,
    ConjunctiveQueryWithNegation,
    UnionOfConjunctiveQueries,
    cq,
)

X, Y = var("x"), var("y")
Q_RST = cq(atom("R", X), atom("S", X, Y), atom("T", Y), name="q_RST")
Q_HIER = cq(atom("R", X), atom("S", X, Y), name="q_hier")

CATALOG = full_catalog()


def _relation_arities(query) -> dict[str, int]:
    """Relation name → arity for the query's vocabulary (RPQ/CRPQ are binary)."""
    if isinstance(query, ConjunctiveQuery):
        return {a.relation: a.arity for a in query.atoms}
    if isinstance(query, UnionOfConjunctiveQueries):
        arities: dict[str, int] = {}
        for disjunct in query.disjuncts:
            arities.update(_relation_arities(disjunct))
        return arities
    if isinstance(query, ConjunctiveQueryWithNegation):
        return {a.relation: a.arity for a in query.atoms}
    return {name: 2 for name in query.relation_names()}


@st.composite
def catalog_instances(draw):
    """A catalog query plus a small random partitioned database over its vocabulary."""
    entry = draw(st.sampled_from(CATALOG))
    arities = _relation_arities(entry.query)
    relations = sorted(arities)
    n_facts = draw(st.integers(min_value=1, max_value=6))
    endogenous, exogenous = set(), set()
    for _ in range(n_facts):
        relation = draw(st.sampled_from(relations))
        args = [draw(st.sampled_from(["a", "b", "c", "d"]))
                for _ in range(arities[relation])]
        f = fact(relation, *args)
        if f in endogenous or f in exogenous:
            continue
        if draw(st.booleans()):
            endogenous.add(f)
        else:
            exogenous.add(f)
    return entry, PartitionedDatabase(endogenous, exogenous)


class TestAutoDispatchParity:
    """Acceptance criterion: session auto-dispatch == explicit exact backend."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(catalog_instances())
    def test_session_matches_explicit_brute_backend(self, instance):
        entry, pdb = instance
        session = AttributionSession(entry.query, pdb)
        reference = SVCEngine(entry.query, pdb, method="brute").all_values()
        assert session.values() == reference
        # The whole API is consistent with the value map.
        assert dict(session.ranking()) == reference
        assert session.null_players() == frozenset(
            f for f, v in reference.items() if v == 0)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(catalog_instances())
    def test_report_is_json_serialisable(self, instance):
        entry, pdb = instance
        report = attribute(entry.query, pdb)
        decoded = json.loads(report.to_json())
        assert decoded["n_endogenous"] == len(pdb.endogenous)
        assert decoded["explanation"]["backend"] == report.backend
        assert len(decoded["ranking"]) == len(pdb.endogenous)


class TestReportRoundTrip:
    """AttributionReport.from_json / from_json_dict invert serialisation exactly."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(catalog_instances())
    def test_round_trip_is_bitwise_exact(self, instance):
        entry, pdb = instance
        report = attribute(entry.query, pdb)
        reloaded = AttributionReport.from_json(report.to_json())
        assert len(reloaded.ranking) == len(report.ranking)
        for (f1, v1), (f2, v2) in zip(reloaded.ranking, report.ranking):
            assert f1 == f2
            assert type(v2) is Fraction
            assert (v1.numerator, v1.denominator) == (v2.numerator, v2.denominator)
        assert reloaded.values == report.values
        assert reloaded.explanation == report.explanation
        assert reloaded.config == report.config
        assert reloaded == report

    def test_round_trip_through_dict(self, rst_exogenous_pdb):
        report = attribute(Q_RST, rst_exogenous_pdb)
        reloaded = AttributionReport.from_json_dict(report.to_json_dict())
        assert reloaded == report
        # Reloaded reports serialise back to the identical JSON document.
        assert reloaded.to_json() == report.to_json()
        # Documents written while EngineConfig had a counting_method field
        # still load: the retired key is dropped.
        for counting_method in ("auto", "brute", "lineage"):
            payload = report.to_json_dict()
            payload["config"]["counting_method"] = counting_method
            assert AttributionReport.from_json_dict(payload) == report

    def test_round_trip_preserves_efficiency_and_samples(self, rst_exogenous_pdb):
        config = EngineConfig(method="sampled", n_samples=32, seed=3)
        report = attribute(Q_RST, rst_exogenous_pdb, config)
        reloaded = AttributionReport.from_json(report.to_json())
        assert reloaded.exact is False
        assert reloaded.n_samples_used == report.n_samples_used
        assert reloaded.efficiency == report.efficiency
        assert reloaded.config == config

    def test_round_trip_is_lossless_for_comma_constants(self):
        # str(Fact) is ambiguous for constants containing ", " (CSV fields);
        # the JSON carries the argument structure so reloads never re-parse.
        pdb = PartitionedDatabase(
            [fact("S", "a", "b, c")],              # one binary fact ...
            [fact("R", "a"), fact("T", "b, c")])   # ... not R(a) ∧ T(b) ∧ T(c)
        report = attribute(Q_RST, pdb)
        reloaded = AttributionReport.from_json(report.to_json())
        assert reloaded == report
        (restored,) = reloaded.values
        assert restored == fact("S", "a", "b, c")
        assert restored.arity == 2

    def test_reloaded_reports_can_be_diffed(self, rst_exogenous_pdb):
        # The workspace use case: a stored report reloaded and compared
        # against a fresh run of the same instance finds no drift.
        stored = AttributionReport.from_json(
            attribute(Q_RST, rst_exogenous_pdb).to_json())
        fresh = attribute(Q_RST, rst_exogenous_pdb)
        assert stored.values == fresh.values
        assert [f for f, _ in stored.ranking] == [f for f, _ in fresh.ranking]


class TestDispatchPolicy:
    def test_fp_query_routes_to_circuit_backend(self, rst_exogenous_pdb):
        session = AttributionSession(Q_HIER, rst_exogenous_pdb)
        assert session.backend() == "circuit"
        explanation = session.explanation()
        assert explanation.verdict.complexity is Complexity.FP
        assert not explanation.overridden

    def test_hard_query_small_instance_stays_exact(self, rst_exogenous_pdb):
        session = AttributionSession(Q_RST, rst_exogenous_pdb)
        assert session.backend() in ("circuit", "counting", "brute")
        assert session.explanation().verdict.complexity is Complexity.SHARP_P_HARD
        assert session.report().exact

    def test_hard_query_large_instance_routes_to_monte_carlo(self, rst_exogenous_pdb):
        # The caller names no method: the dichotomy + size policy picks sampling.
        config = EngineConfig(exact_size_limit=1, n_samples=64)
        session = AttributionSession(Q_RST, rst_exogenous_pdb, config)
        assert session.backend() == "sampled"
        report = session.report()
        assert not report.exact
        assert all(isinstance(v, Fraction) for v in session.values().values())

    def test_on_hard_raise(self, rst_exogenous_pdb):
        config = EngineConfig(exact_size_limit=1, on_hard="raise")
        with pytest.raises(IntractableQueryError) as excinfo:
            AttributionSession(Q_RST, rst_exogenous_pdb, config).values()
        assert excinfo.value.verdict.complexity is Complexity.SHARP_P_HARD

    def test_on_hard_exact_never_samples(self, rst_exogenous_pdb):
        config = EngineConfig(exact_size_limit=0, on_hard="exact")
        session = AttributionSession(Q_RST, rst_exogenous_pdb, config)
        assert session.backend() in ("circuit", "counting", "brute")
        assert session.report().exact

    def test_explicit_override_is_recorded(self, rst_exogenous_pdb):
        session = AttributionSession(Q_RST, rst_exogenous_pdb,
                                     EngineConfig(method="brute"))
        explanation = session.explanation()
        assert explanation.backend == "brute"
        assert explanation.overridden
        assert "override" in explanation.reason

    def test_explicit_safe_on_unsafe_query_raises(self, rst_exogenous_pdb):
        session = AttributionSession(Q_RST, rst_exogenous_pdb,
                                     EngineConfig(method="safe"))
        with pytest.raises(UnsafeQueryError):
            session.values()


class TestSessionMethods:
    def test_top_and_max(self, rst_exogenous_pdb):
        session = AttributionSession(Q_RST, rst_exogenous_pdb)
        ranking = session.ranking()
        assert session.top(2) == ranking[:2]
        assert session.max() == ranking[0]
        with pytest.raises(ConfigError):
            session.top(-1)

    def test_of_returns_typed_result(self, rst_exogenous_pdb):
        session = AttributionSession(Q_RST, rst_exogenous_pdb)
        target = sorted(rst_exogenous_pdb.endogenous)[0]
        result = session.of(target)
        assert result.fact == target
        assert result.exact
        assert result.value == session.values()[target]
        assert result.to_json_dict()["fact"] == str(target)

    def test_of_sampled_carries_estimator_metadata(self, rst_exogenous_pdb):
        config = EngineConfig(exact_size_limit=0, n_samples=32, epsilon=0.2, delta=0.1)
        session = AttributionSession(Q_RST, rst_exogenous_pdb, config)
        result = session.of(sorted(rst_exogenous_pdb.endogenous)[0])
        assert not result.exact
        assert result.samples == 32
        assert result.epsilon == 0.2

    def test_of_unknown_fact_rejected(self, rst_exogenous_pdb):
        session = AttributionSession(Q_RST, rst_exogenous_pdb)
        with pytest.raises(ConfigError):
            session.of(fact("Z", "nope"))

    def test_max_on_empty_database(self):
        session = AttributionSession(Q_RST, PartitionedDatabase((), (fact("R", "a"),)))
        with pytest.raises(ConfigError):
            session.max()

    def test_plain_database_rejected(self):
        with pytest.raises(ConfigError):
            AttributionSession(Q_RST, Database([fact("R", "a")]))

    def test_efficiency_check_in_report(self, rst_exogenous_pdb):
        report = AttributionSession(Q_RST, rst_exogenous_pdb).report()
        assert report.efficiency is not None
        assert report.efficiency.ok
        total = sum(report.values.values(), Fraction(0))
        assert total == report.efficiency.total


class TestRankingTieBreaking:
    """Satellite: the shared deterministic tie-breaking contract."""

    def _symmetric_instance(self):
        # Two fully symmetric S facts: equal Shapley values by symmetry.
        endo = [fact("S", "a", "x"), fact("S", "b", "y")]
        exo = [fact("R", "a"), fact("R", "b")]
        return PartitionedDatabase(endo, exo)

    def test_equal_values_follow_fact_total_order(self):
        pdb = self._symmetric_instance()
        session = AttributionSession(Q_HIER, pdb)
        ranking = session.ranking()
        values = session.values()
        assert values[ranking[0][0]] == values[ranking[1][0]]  # really a tie
        assert [f for f, _ in ranking] == sorted(values)

    def test_engine_session_and_shim_agree_on_ties(self):
        pdb = self._symmetric_instance()
        session_ranking = AttributionSession(Q_HIER, pdb).ranking()
        engine_ranking = SVCEngine(Q_HIER, pdb).ranking()
        assert session_ranking == engine_ranking
        exact_ranking = AttributionSession(
            Q_HIER, pdb, EngineConfig(on_hard="exact")).ranking()
        assert exact_ranking == engine_ranking

    def test_ranking_key_is_the_single_contract(self):
        pdb = self._symmetric_instance()
        values = AttributionSession(Q_HIER, pdb).values()
        assert sorted(values.items(), key=_ranking_key) == \
            AttributionSession(Q_HIER, pdb).ranking()


class TestMonteCarloGuarantee:
    """Satellite: sampled estimates land within (ε, δ) of the exact values."""

    EPSILON = 0.25
    DELTA = 1e-4  # per-fact failure probability; derandomized examples below

    @settings(max_examples=20, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=10_000))
    def test_estimates_within_epsilon_of_exact(self, seed):
        from repro.data import bipartite_rst_database, partition_by_relation

        db = bipartite_rst_database(2, 3, 0.7, seed=seed)
        pdb = partition_by_relation(db, exogenous_relations=("R", "T"))
        if not pdb.endogenous:
            return
        exact = SVCEngine(Q_RST, pdb, method="brute").all_values()
        config = EngineConfig(method="sampled", epsilon=self.EPSILON,
                              delta=self.DELTA, seed=seed)
        estimates = AttributionSession(Q_RST, pdb, config).values()
        assert set(estimates) == set(exact)
        for f, estimate in estimates.items():
            assert abs(float(estimate) - float(exact[f])) <= self.EPSILON

    def test_sampled_efficiency_check_uses_union_bound(self, rst_exogenous_pdb):
        config = EngineConfig(method="sampled", epsilon=0.2, delta=0.05, seed=3)
        report = AttributionSession(Q_RST, rst_exogenous_pdb, config).report()
        assert report.efficiency is not None
        # Tolerance is |Dn| * epsilon, so the seeded run must pass.
        assert report.efficiency.ok


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ConfigError):
            EngineConfig(method="magic")

    def test_bad_epsilon_delta(self):
        with pytest.raises(ConfigError):
            EngineConfig(epsilon=0.0)
        with pytest.raises(ConfigError):
            EngineConfig(delta=1.5)

    def test_bad_on_hard(self):
        with pytest.raises(ConfigError):
            EngineConfig(on_hard="pray")

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            EngineConfig(n_samples=0)
        with pytest.raises(ConfigError):
            EngineConfig(exact_size_limit=-1)

    def test_config_errors_are_value_errors(self):
        # Legacy callers caught ValueError; the hierarchy preserves that.
        with pytest.raises(ValueError):
            EngineConfig(method="magic")
        assert issubclass(ConfigError, ReproError)
        assert issubclass(IntractableQueryError, ReproError)
        assert issubclass(UnsafeQueryError, ReproError)

    def test_unsafe_query_error_importable_from_legacy_home(self):
        from repro.probability.lifted import UnsafeQueryError as LegacyError

        assert LegacyError is UnsafeQueryError


class TestEngineCacheHygiene:
    """Satellite: immutability of the cache key types + observable cache stats."""

    def test_database_is_immutable(self):
        db = Database([fact("R", "a")])
        with pytest.raises(AttributeError):
            db.facts = frozenset()
        with pytest.raises(AttributeError):
            db._facts = frozenset()
        assert isinstance(db.facts, frozenset)

    def test_partitioned_database_is_immutable(self):
        pdb = PartitionedDatabase([fact("R", "a")], [fact("S", "a", "b")])
        with pytest.raises(AttributeError):
            pdb.endogenous = frozenset()
        with pytest.raises(AttributeError):
            pdb._endogenous = frozenset()
        assert isinstance(pdb.endogenous, frozenset)
        assert isinstance(pdb.exogenous, frozenset)

    def test_cache_stats_count_hits_and_misses(self, rst_exogenous_pdb):
        clear_engine_cache()
        assert engine_cache_stats() == {"hits": 0, "misses": 0, "size": 0}
        get_engine(Q_RST, rst_exogenous_pdb)
        stats = engine_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 0 and stats["size"] == 1
        get_engine(Q_RST, rst_exogenous_pdb)
        stats = engine_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        clear_engine_cache()
        assert engine_cache_stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_report_carries_cache_stats(self, rst_exogenous_pdb):
        clear_engine_cache()
        report = AttributionSession(Q_RST, rst_exogenous_pdb).report()
        assert set(report.cache) == {"hits", "misses", "size"}
        assert report.cache["misses"] >= 1
        # Payloads saved with the retired ``auto_resolutions`` counter load.
        payload = report.to_json_dict()
        payload["engine_cache"] = {**payload["engine_cache"], "auto_resolutions": 1}
        assert AttributionReport.from_json_dict(payload).cache["auto_resolutions"] == 1

    def test_derived_databases_do_not_alias_cached_engines(self, rst_exogenous_pdb):
        # "Mutation" in this API means deriving a new object; the derived
        # database hashes differently, so it can never hit the old entry.
        clear_engine_cache()
        get_engine(Q_RST, rst_exogenous_pdb)
        moved = rst_exogenous_pdb.with_exogenous([fact("R", "fresh")])
        get_engine(Q_RST, moved)
        assert engine_cache_stats()["size"] == 2


class TestDeprecatedShims:
    """The legacy free functions are removed; the semantics they pinned stay.

    They ran ``AttributionSession`` with ``on_hard="exact"``, which is how
    their callers now spell the same call.
    """

    def test_legacy_auto_never_samples(self):
        # Legacy semantics pinned: "auto" meant the exact ladder even on hard
        # queries over large databases.
        db = bipartite_rst_database(3, 6, 1.0, seed=1)
        pdb = partition_by_relation(db, exogenous_relations=("R", "T"))
        assert len(pdb.endogenous) == 18  # above the default exact_size_limit
        session = AttributionSession(Q_RST, pdb, EngineConfig(on_hard="exact"))
        assert session.backend() != "sampled"
        total = sum(session.values().values(), Fraction(0))
        assert total == 1  # exact efficiency, impossible for a sampled run to guarantee


class TestAttributeCLI:
    def _facts_file(self, tmp_path):
        path = tmp_path / "facts.txt"
        path.write_text("R(a)\nR(c)\nS(a, b)\nS(c, d)\nT(b)\n", encoding="utf-8")
        return path

    def test_attribute_command(self, capsys, tmp_path):
        from repro.cli import main

        path = self._facts_file(tmp_path)
        code = main(["attribute", "-q", "R(x), S(x, y), T(y)", "-d", str(path),
                     "-x", "R", "T"])
        out = capsys.readouterr().out
        assert code == 0
        assert "classifier:" in out
        assert "backend:" in out
        assert "efficiency check" in out

    def test_attribute_json(self, capsys, tmp_path):
        from repro.cli import main

        path = self._facts_file(tmp_path)
        code = main(["attribute", "-q", "R(x), S(x, y), T(y)", "-d", str(path),
                     "-x", "R", "T", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["explanation"]["verdict"]["complexity"] == "#P-hard"
        assert payload["efficiency"]["ok"] is True

    def test_attribute_on_hard_raise_exits_cleanly(self, capsys, tmp_path):
        from repro.cli import main

        path = self._facts_file(tmp_path)
        code = main(["attribute", "-q", "R(x), S(x, y), T(y)", "-d", str(path),
                     "-x", "R", "T", "--on-hard", "raise", "--exact-size-limit", "0"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_legacy_shapley_command_stays_exact_on_large_hard_instance(self, capsys, tmp_path):
        # `repro shapley --method auto` keeps the historical always-exact
        # semantics; only `repro attribute` does size-based sampling fallback.
        from repro.cli import main

        path = tmp_path / "big.txt"
        lines = [f"R(l{i})" for i in range(3)] + [f"T(r{j})" for j in range(6)]
        lines += [f"S(l{i}, r{j})" for i in range(3) for j in range(6)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["shapley", "-q", "R(x), S(x, y), T(y)", "-d", str(path),
                     "-x", "R", "T"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Shapley value" in out
        assert "estimate" not in out

    def test_attribute_top_k(self, capsys, tmp_path):
        from repro.cli import main

        path = self._facts_file(tmp_path)
        code = main(["attribute", "-q", "R(x), S(x, y), T(y)", "-d", str(path),
                     "-x", "R", "T", "--top", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "S(a, b)" in out
        assert "S(c, d)" not in out.split("null players")[0]


class TestReportShape:
    def test_report_is_frozen(self, rst_exogenous_pdb):
        report = AttributionSession(Q_RST, rst_exogenous_pdb).report()
        assert isinstance(report, AttributionReport)
        with pytest.raises(AttributeError):
            report.query = "other"

    def test_report_iterates_ranking(self, rst_exogenous_pdb):
        session = AttributionSession(Q_RST, rst_exogenous_pdb)
        report = session.report()
        assert list(report) == session.ranking()

    def test_counting_backend_reports_lineage_size(self, rst_exogenous_pdb):
        config = EngineConfig(method="counting")
        report = AttributionSession(Q_RST, rst_exogenous_pdb, config).report()
        assert report.lineage_size is not None and report.lineage_size >= 0

    def test_wall_time_recorded(self, rst_exogenous_pdb):
        report = AttributionSession(Q_RST, rst_exogenous_pdb).report()
        assert report.wall_time_s >= 0.0

    def test_n_samples_used(self, rst_exogenous_pdb):
        exact_report = AttributionSession(Q_RST, rst_exogenous_pdb).report()
        assert exact_report.n_samples_used is None
        config = EngineConfig(method="sampled", n_samples=48)
        sampled_report = AttributionSession(Q_RST, rst_exogenous_pdb, config).report()
        assert sampled_report.n_samples_used == 48
        from repro.core import samples_for_guarantee

        derived = EngineConfig(method="sampled", epsilon=0.2, delta=0.1)
        derived_report = AttributionSession(Q_RST, rst_exogenous_pdb, derived).report()
        assert derived_report.n_samples_used == samples_for_guarantee(0.2, 0.1)

    def test_workers_used_reported(self, rst_exogenous_pdb):
        assert AttributionSession(Q_RST, rst_exogenous_pdb).report().workers_used == 1
        sampled = EngineConfig(method="sampled", n_samples=16)
        assert AttributionSession(Q_RST, rst_exogenous_pdb,
                                  sampled).report().workers_used == 1

    def test_of_accumulates_wall_time(self, rst_exogenous_pdb):
        """Regression: per-fact exact work via of() never reached wall_time_s,
        so sessions used only through of() reported 0.0."""
        session = AttributionSession(Q_RST, rst_exogenous_pdb)
        target = sorted(rst_exogenous_pdb.endogenous)[0]
        result = session.of(target)
        assert result.exact
        report = session.report()
        assert report.wall_time_s > 0.0

    def test_of_then_values_accumulates_both(self, rst_exogenous_pdb):
        session = AttributionSession(Q_RST, rst_exogenous_pdb)
        target = sorted(rst_exogenous_pdb.endogenous)[0]
        session.of(target)
        after_of = session._wall_time_s
        assert after_of > 0.0
        session.values()
        assert session._wall_time_s >= after_of

    def test_sampled_of_accumulates_wall_time(self, rst_exogenous_pdb):
        config = EngineConfig(method="sampled", n_samples=32)
        session = AttributionSession(Q_RST, rst_exogenous_pdb, config)
        target = sorted(rst_exogenous_pdb.endogenous)[0]
        assert not session.of(target).exact
        assert session.report().wall_time_s > 0.0


class TestEmptyEndogenousDatabase:
    """Regression: the sampled backend raised StopIteration on |Dn| = 0.

    ``_efficiency_check`` read ``next(iter(self._estimates.values()))`` from an
    empty estimate map; every backend must instead handle the empty-``Dn``
    session end-to-end (values ``{}``, efficiency trivially ok, report
    serialisable).
    """

    EMPTY = PartitionedDatabase((), {fact("R", "a"), fact("S", "a", "b")})

    def _config(self, method):
        if method == "sampled":
            return EngineConfig(method="sampled", n_samples=16)
        return EngineConfig(method=method)

    @pytest.mark.parametrize("method", ["auto", "safe", "counting", "brute", "sampled"])
    def test_values_empty_and_report_serialisable(self, method):
        query = Q_HIER if method == "safe" else Q_RST
        session = AttributionSession(query, self.EMPTY, self._config(method))
        assert session.values() == {}
        assert session.ranking() == []
        assert session.null_players() == frozenset()
        report = session.report()
        assert report.ranking == ()
        assert report.exact  # no estimates were drawn, even when sampled
        assert report.efficiency is not None and report.efficiency.ok
        assert report.efficiency.total == 0
        assert report.efficiency.grand_coalition_value == 0
        decoded = json.loads(report.to_json())
        assert decoded["n_endogenous"] == 0 and decoded["ranking"] == []

    @pytest.mark.parametrize("method", ["auto", "sampled"])
    def test_max_still_raises_cleanly(self, method):
        session = AttributionSession(Q_RST, self.EMPTY, self._config(method))
        with pytest.raises(ConfigError):
            session.max()

    def test_exogenous_satisfying_database_with_no_endogenous_facts(self):
        # Dx alone satisfies the query: v(Dn) = 1 - 1 = 0, still trivially ok.
        pdb = PartitionedDatabase((), {fact("R", "a"), fact("S", "a", "b"),
                                       fact("T", "b")})
        report = AttributionSession(Q_RST, pdb,
                                    self._config("sampled")).report()
        assert report.efficiency.ok and report.efficiency.grand_coalition_value == 0
