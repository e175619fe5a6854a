"""Tests for the batched SVC engine and the conditioning primitives behind it."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import irrelevant_endogenous_facts
from repro.api import AttributionSession, EngineConfig
from repro.core import shapley_value_via_fgmc
from repro.counting import MonotoneDNF, build_lineage
from repro.data import Database, PartitionedDatabase, atom, fact, var
from repro.engine import SVCEngine, clear_engine_cache, get_engine
from repro.probability import UnsafeQueryError
from repro.queries import cq, rpq
from repro.values import INDICES

X, Y = var("x"), var("y")
Q_RST = cq(atom("R", X), atom("S", X, Y), atom("T", Y), name="q_RST")
Q_HIER = cq(atom("R", X), atom("S", X, Y), name="q_hier")


def _exact(query, pdb, method="auto"):
    """A session that never samples (``on_hard="exact"``), for reference values."""
    return AttributionSession(query, pdb, EngineConfig(method=method, on_hard="exact"))


# --------------------------------------------------------------------------
# MonotoneDNF conditioning
# --------------------------------------------------------------------------

class TestRestrict:
    def test_restrict_true_drops_variable_from_clauses(self):
        dnf = MonotoneDNF(3, [frozenset({0, 1}), frozenset({2})])
        restricted = dnf.restrict(0, True)
        assert restricted.n_variables == 2
        # clause {0,1} becomes {1} (reindexed to {0}); clause {2} reindexes to {1}
        assert restricted.clauses == frozenset({frozenset({0}), frozenset({1})})

    def test_restrict_false_drops_clauses_containing_variable(self):
        dnf = MonotoneDNF(3, [frozenset({0, 1}), frozenset({2})])
        restricted = dnf.restrict(0, False)
        assert restricted.clauses == frozenset({frozenset({1})})

    def test_restrict_true_can_become_trivially_true(self):
        dnf = MonotoneDNF(2, [frozenset({1})])
        assert dnf.restrict(1, True).is_trivially_true()
        assert dnf.restrict(1, False).is_trivially_false()

    def test_restrict_out_of_range_raises(self):
        dnf = MonotoneDNF(2, [frozenset({0})])
        with pytest.raises(ValueError):
            dnf.restrict(2, True)
        with pytest.raises(ValueError):
            dnf.restrict(-1, False)

    def test_conditioned_counts_match_restrictions(self):
        dnf = MonotoneDNF(4, [frozenset({0, 1}), frozenset({1, 2}), frozenset({3})])
        for v in range(4):
            true_vec, false_vec = dnf.conditioned_count_by_size(v)
            assert true_vec == dnf.restrict(v, True).count_by_size()
            assert false_vec == dnf.restrict(v, False).count_by_size()

    def test_conditioned_counts_match_enumeration(self):
        dnf = MonotoneDNF(4, [frozenset({0, 1}), frozenset({2, 3}), frozenset({1, 2})])
        for v in range(4):
            true_vec, false_vec = dnf.conditioned_count_by_size(v)
            others = [u for u in range(4) if u != v]
            for fixed, vector in ((True, true_vec), (False, false_vec)):
                expected = [0] * 4
                for size in range(len(others) + 1):
                    for subset in itertools.combinations(others, size):
                        chosen = set(subset) | ({v} if fixed else set())
                        if dnf.evaluate(chosen):
                            expected[size] += 1
                assert vector == expected


class TestLineageConditioning:
    def test_conditioned_vectors_equal_fresh_lineage_builds(self):
        endo = {fact("R", "a"), fact("S", "a", "b"), fact("T", "b"), fact("S", "a", "c")}
        exo = {fact("T", "c")}
        pdb = PartitionedDatabase(endo, exo)
        lineage = build_lineage(Q_RST, pdb)
        for f in sorted(endo):
            with_vec, without_vec = lineage.conditioned_vectors(f)
            with_pdb = PartitionedDatabase(endo - {f}, exo | {f})
            without_pdb = PartitionedDatabase(endo - {f}, exo)
            assert with_vec == build_lineage(Q_RST, with_pdb).count_by_size()
            assert without_vec == build_lineage(Q_RST, without_pdb).count_by_size()

    def test_restricted_lineage_drops_the_fact_variable(self):
        pdb = PartitionedDatabase({fact("R", "a"), fact("S", "a", "b"), fact("T", "b")}, ())
        lineage = build_lineage(Q_RST, pdb)
        restricted = lineage.restricted(fact("R", "a"), True)
        assert fact("R", "a") not in restricted.variables
        assert restricted.n_variables == lineage.n_variables - 1

    def test_index_of_unknown_fact_raises(self):
        pdb = PartitionedDatabase({fact("R", "a")}, ())
        lineage = build_lineage(Q_RST, pdb)
        assert lineage.index_of(fact("R", "a")) == 0
        with pytest.raises(ValueError):
            lineage.index_of(fact("R", "zzz"))


# --------------------------------------------------------------------------
# Engine semantics
# --------------------------------------------------------------------------

class TestSVCEngine:
    def test_counting_backend_matches_brute(self, q_rst, small_pdb):
        batch = SVCEngine(q_rst, small_pdb, method="counting").all_values()
        brute = _exact(q_rst, small_pdb, "brute")
        for f, value in batch.items():
            assert value == brute.of(f).value

    def test_safe_backend_matches_brute(self, q_hier, small_pdb):
        batch = SVCEngine(q_hier, small_pdb, method="safe").all_values()
        brute = _exact(q_hier, small_pdb, "brute")
        for f, value in batch.items():
            assert value == brute.of(f).value

    def test_brute_backend_matches_per_fact_brute(self, q_rst, small_pdb):
        batch = SVCEngine(q_rst, small_pdb, method="brute").all_values()
        brute = _exact(q_rst, small_pdb, "brute")
        for f, value in batch.items():
            assert value == brute.of(f).value

    def test_auto_resolves_safe_for_hierarchical_query(self, q_hier, small_pdb):
        # auto runs the circuit on FP queries too; the safe plan is only its
        # node-budget fallback.
        engine = SVCEngine(q_hier, small_pdb)
        engine.all_values()
        assert engine.backend() == "circuit"

    def test_auto_resolves_circuit_for_hard_query(self, q_rst, small_pdb):
        engine = SVCEngine(q_rst, small_pdb)
        engine.all_values()
        assert engine.backend() == "circuit"

    def test_auto_resolves_circuit_for_rpq(self, tiny_graph_db):
        from repro.data import purely_endogenous

        engine = SVCEngine(rpq("A B C", "a", "b"), purely_endogenous(tiny_graph_db))
        engine.all_values()
        assert engine.backend() == "circuit"

    def test_safe_method_on_unsafe_query_raises(self, q_rst, small_pdb):
        engine = SVCEngine(q_rst, small_pdb, method="safe")
        if small_pdb.endogenous:
            with pytest.raises(UnsafeQueryError):
                engine.all_values()

    def test_counting_on_non_hom_closed_resolves_to_brute(self):
        # No lineage applies to a CQ with negation: an explicit counting
        # request runs the coalition table and says so.
        from repro.data import partition_randomly
        from repro.experiments import q_negation_hard

        query = q_negation_hard()
        db = Database([fact("R", "a"), fact("R", "b"), fact("T", "c"),
                       fact("T", "d"), fact("S", "a", "c"), fact("S", "b", "c"),
                       fact("S", "a", "d"), fact("N", "a", "c"),
                       fact("N", "b", "d")])
        for seed in range(3):
            pdb = partition_randomly(db, 0.3, seed=seed)
            for index in INDICES:
                counting = SVCEngine(query, pdb, method="counting", index=index)
                values = counting.all_values()
                assert counting.backend() == "brute"
                assert values == SVCEngine(query, pdb, method="brute",
                                           index=index).all_values()
                assert any(values.values()), (seed, index)
            session = _exact(query, pdb, "counting")
            assert session.report().backend == "brute"

    def test_exogenous_fact_raises(self, q_rst, rst_exogenous_pdb):
        engine = SVCEngine(q_rst, rst_exogenous_pdb)
        exo = sorted(rst_exogenous_pdb.exogenous)[0]
        with pytest.raises(ValueError):
            engine.value_of(exo)

    def test_empty_endogenous_gives_empty_values(self, q_rst):
        pdb = PartitionedDatabase((), {fact("R", "a")})
        assert SVCEngine(q_rst, pdb).all_values() == {}

    def test_ranking_matches_values(self, q_rst, small_pdb):
        engine = SVCEngine(q_rst, small_pdb, method="counting")
        ranking = engine.ranking()
        values = engine.all_values()
        assert dict(ranking) == values
        ranks = [value for _, value in ranking]
        assert ranks == sorted(ranks, reverse=True)

    def test_max_value_matches_max_shapley_value(self, q_rst, small_pdb):
        if not small_pdb.endogenous:
            return
        engine = SVCEngine(q_rst, small_pdb, method="counting")
        assert engine.max_value() == _exact(q_rst, small_pdb, "counting").max()

    def test_efficiency_axiom(self, q_rst, small_pdb):
        engine = SVCEngine(q_rst, small_pdb, method="counting")
        total = sum(engine.all_values().values(), Fraction(0))
        assert total == engine.grand_coalition_value()

    def test_values_are_cached_per_engine(self, q_rst, small_pdb):
        engine = SVCEngine(q_rst, small_pdb, method="counting")
        first = engine.all_values()
        assert engine.all_values() == first
        for f in first:
            assert engine.value_of(f) is first[f]


class TestEngineCache:
    def test_get_engine_returns_cached_instance(self, q_rst, small_pdb):
        clear_engine_cache()
        first = get_engine(q_rst, small_pdb)
        second = get_engine(q_rst, small_pdb)
        assert first is second
        clear_engine_cache()
        assert get_engine(q_rst, small_pdb) is not first

    def test_distinct_methods_get_distinct_engines(self, q_rst, small_pdb):
        clear_engine_cache()
        assert get_engine(q_rst, small_pdb, "counting") is not get_engine(
            q_rst, small_pdb, "brute")


# --------------------------------------------------------------------------
# Rewired callers
# --------------------------------------------------------------------------

class TestRewiredCallers:
    def test_rank_threads_counting_method(self, q_rst, small_pdb):
        by_lineage = _exact(q_rst, small_pdb, "counting").ranking()
        by_brute = _exact(q_rst, small_pdb, "brute").ranking()
        assert by_lineage == by_brute

    def test_shapley_values_of_facts_matches_per_fact(self, q_rst, small_pdb):
        batch = _exact(q_rst, small_pdb, "counting").values()
        for f, value in batch.items():
            assert value == shapley_value_via_fgmc(q_rst, small_pdb, f, "lineage")

    def test_null_players_include_irrelevant_facts(self, q_rst, small_pdb):
        nulls = _exact(q_rst, small_pdb, "counting").null_players()
        assert irrelevant_endogenous_facts(small_pdb, q_rst) <= nulls
        values = _exact(q_rst, small_pdb, "counting").values()
        assert nulls == frozenset(f for f, v in values.items() if v == 0)


class TestDatabaseValidation:
    def test_rejects_ground_non_fact_atom(self):
        from repro.data.atoms import Atom
        from repro.data.terms import const

        ground_atom = Atom("R", (const("a"),))  # not a Fact, but is_ground() is True
        assert ground_atom.is_ground() and not isinstance(ground_atom, fact("R", "a").__class__)
        with pytest.raises(TypeError):
            Database([ground_atom])

    def test_rejects_duck_typed_objects(self):
        class Impostor:
            def is_ground(self):
                return True

            def __hash__(self):
                return 0

            def __eq__(self, other):
                return self is other

        with pytest.raises(TypeError):
            Database([Impostor()])

    def test_rejects_tuples(self):
        with pytest.raises(TypeError):
            Database([("R", "a")])

    def test_rejects_non_ground_atoms_with_value_error(self):
        with pytest.raises(ValueError):
            Database([atom("R", var("x"))])


# --------------------------------------------------------------------------
# Property-based: batch == per-fact on random databases
# --------------------------------------------------------------------------

constants = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def rst_facts(draw):
    kind = draw(st.sampled_from(["R", "S", "T"]))
    if kind == "R":
        return fact("R", draw(constants))
    if kind == "T":
        return fact("T", draw(constants))
    return fact("S", draw(constants), draw(constants))


@st.composite
def partitioned_databases(draw, max_endogenous=4, max_exogenous=2):
    endo = draw(st.sets(rst_facts(), min_size=0, max_size=max_endogenous))
    exo = draw(st.sets(rst_facts(), min_size=0, max_size=max_exogenous))
    return PartitionedDatabase(endo, exo - endo)


@given(partitioned_databases())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_batch_counting_equals_per_fact_brute(pdb):
    batch = SVCEngine(Q_RST, pdb, method="counting").all_values()
    brute = _exact(Q_RST, pdb, "brute")
    for f in sorted(pdb.endogenous):
        assert batch[f] == brute.of(f).value


@given(partitioned_databases())
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_batch_safe_equals_per_fact_counting_on_hierarchical_query(pdb):
    batch = SVCEngine(Q_HIER, pdb, method="safe").all_values()
    counting = _exact(Q_HIER, pdb, "counting")
    for f in sorted(pdb.endogenous):
        assert batch[f] == counting.of(f).value


@given(partitioned_databases())
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_batch_backends_agree_with_each_other(pdb):
    values = [SVCEngine(Q_RST, pdb, method=m).all_values()
              for m in ("brute", "counting")]
    assert values[0] == values[1]


@given(partitioned_databases(max_endogenous=5, max_exogenous=3))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_batch_efficiency_axiom(pdb):
    engine = SVCEngine(Q_RST, pdb, method="counting")
    total = sum(engine.all_values().values(), Fraction(0))
    assert total == engine.grand_coalition_value()
