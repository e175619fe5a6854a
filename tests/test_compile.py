"""Tests for the knowledge-compilation subsystem and the circuit engine backend.

The contract: the compiled circuit is structurally smooth and decomposable,
every count read off it is bitwise-identical to the recursive counter's, the
``circuit`` engine backend agrees exactly with ``brute`` and ``counting``
across the hom-closed query catalog on random instances, and the node budget
degrades gracefully to per-fact conditioning.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.dichotomy import Complexity
from repro.api import AttributionSession, ConfigError, EngineConfig
from repro.probability import uniform_probability
from repro.compile import (
    Circuit,
    CircuitBudgetError,
    CircuitInvariantError,
    ORDERINGS,
    compile_dnf,
    compile_lineage,
)
from repro.counting import MonotoneDNF, build_lineage
from repro.data import PartitionedDatabase, atom, fact, var
from repro.engine import (
    SVCEngine,
    clear_engine_cache,
    combine_fgmc_vectors,
    engine_cache_stats,
    get_engine,
)
from repro.engine.backends import circuit_pairs
from repro.experiments import full_catalog
from repro.linalg import shapley_subset_weight
from repro.queries import ConjunctiveQuery, UnionOfConjunctiveQueries, cq
from repro.workspace import DiskStore, plan_key

X, Y = var("x"), var("y")
Q_RST = cq(atom("R", X), atom("S", X, Y), atom("T", Y), name="q_RST")

#: The hom-closed slice of the catalog — the queries the circuit backend serves.
HOM_CLOSED = [e for e in full_catalog() if e.query.is_hom_closed]


def _example_dnfs() -> list[MonotoneDNF]:
    return [
        MonotoneDNF(0, []),                                   # constant false
        MonotoneDNF(0, [frozenset()]),                        # constant true
        MonotoneDNF(3, []),
        MonotoneDNF(3, [frozenset()]),
        MonotoneDNF(1, [frozenset({0})]),
        MonotoneDNF(4, [frozenset({0, 1}), frozenset({2})]),  # two components
        MonotoneDNF(5, [frozenset({0, 1}), frozenset({1, 2}), frozenset({3, 4})]),
        MonotoneDNF(6, [frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({4})]),
    ]


# --------------------------------------------------------------------------
# Circuit invariants
# --------------------------------------------------------------------------

class TestInvariants:
    @pytest.mark.parametrize("ordering", sorted(ORDERINGS))
    def test_compiled_circuits_are_smooth_and_decomposable(self, ordering):
        for dnf in _example_dnfs():
            compiled = compile_dnf(dnf, ordering=ordering)
            assert compiled.circuit.check_invariants()

    def test_overlapping_and_children_are_caught(self):
        circuit = Circuit()
        a = circuit.add_free([0, 1])
        b = circuit.add_free([1, 2])
        circuit.root = circuit.add_and((a, b))
        with pytest.raises(CircuitInvariantError):
            circuit.check_decomposable()
        # smoothness alone does not object to the overlap
        assert circuit.check_smooth()

    def test_unsmooth_decision_is_caught(self):
        circuit = Circuit()
        hi = circuit.add_free([1, 2])
        lo = circuit.add_true()          # scope {} != {1, 2}: not smoothed
        circuit.root = circuit.add_decision(0, hi, lo)
        with pytest.raises(CircuitInvariantError):
            circuit.check_smooth()
        assert circuit.check_decomposable()

    def test_stats_count_nodes_by_kind(self):
        compiled = compile_dnf(MonotoneDNF(4, [frozenset({0, 1}), frozenset({2})]))
        stats = compiled.circuit.stats()
        assert stats["total"] == compiled.size == len(compiled.circuit)
        assert stats["decision"] >= 1 and stats["and"] >= 1


# --------------------------------------------------------------------------
# Counting parity with the recursive counter
# --------------------------------------------------------------------------

class TestCountingParity:
    @pytest.mark.parametrize("ordering", sorted(ORDERINGS))
    def test_count_by_size_matches_counter(self, ordering):
        for dnf in _example_dnfs():
            compiled = compile_dnf(dnf, ordering=ordering)
            assert compiled.count_by_size() == dnf.count_by_size()

    @pytest.mark.parametrize("ordering", sorted(ORDERINGS))
    def test_conditioned_pairs_match_counter(self, ordering):
        for dnf in _example_dnfs():
            compiled = compile_dnf(dnf, ordering=ordering)
            pairs = compiled.conditioned_pairs()
            for v in range(dnf.n_variables):
                true_vec, false_vec = dnf.conditioned_count_by_size(v)
                assert pairs[v] == (true_vec, false_vec)

    def test_conditioned_pairs_by_enumeration(self):
        dnf = MonotoneDNF(5, [frozenset({0, 1}), frozenset({2, 3}), frozenset({1, 4})])
        pairs = compile_dnf(dnf).conditioned_pairs()
        for v in range(5):
            others = [u for u in range(5) if u != v]
            for fixed, vector in ((True, pairs[v][0]), (False, pairs[v][1])):
                expected = [0] * 5
                for size in range(len(others) + 1):
                    for subset in itertools.combinations(others, size):
                        chosen = set(subset) | ({v} if fixed else set())
                        if dnf.evaluate(chosen):
                            expected[size] += 1
                assert vector == expected

    def test_restricted_sweep_matches_full_sweep(self):
        dnf = MonotoneDNF(6, [frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({4})])
        compiled = compile_dnf(dnf)
        full = compiled.conditioned_pairs()
        stripe = compiled.conditioned_pairs([1, 4, 5])
        assert set(stripe) == {1, 4, 5}
        assert all(stripe[v] == full[v] for v in stripe)

    def test_custom_callable_ordering(self):
        dnf = MonotoneDNF(4, [frozenset({0, 1}), frozenset({1, 2}), frozenset({3})])
        compiled = compile_dnf(dnf, ordering=lambda clauses: max(
            v for clause in clauses for v in clause))
        assert compiled.count_by_size() == dnf.count_by_size()
        assert compiled.ordering == "custom"

    def test_unknown_ordering_raises(self):
        with pytest.raises(ValueError):
            compile_dnf(MonotoneDNF(1, [frozenset({0})]), ordering="vsads")

    def test_uniform_probability_matches_counter(self):
        dnf = MonotoneDNF(5, [frozenset({0, 1}), frozenset({2, 3}), frozenset({1, 4})])
        compiled = compile_dnf(dnf)
        for p in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            assert uniform_probability(compiled, p) == dnf.probability(
                {v: p for v in range(5)})

    def test_budget_error_carries_budget(self):
        dnf = MonotoneDNF(6, [frozenset({i, (i + 1) % 6}) for i in range(6)])
        with pytest.raises(CircuitBudgetError) as excinfo:
            compile_dnf(dnf, node_budget=3)
        assert excinfo.value.budget == 3
        with pytest.raises(ValueError):
            compile_dnf(dnf, node_budget=0)


# --------------------------------------------------------------------------
# Property-based: compiler vs counter on random DNFs
# --------------------------------------------------------------------------

@st.composite
def monotone_dnfs(draw, max_variables=6, max_clauses=5):
    n = draw(st.integers(0, max_variables))
    if n == 0:
        return MonotoneDNF(0, [frozenset()] if draw(st.booleans()) else [])
    clauses = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=0, max_size=3).map(frozenset),
        max_size=max_clauses))
    return MonotoneDNF(n, clauses)


@given(monotone_dnfs(), st.sampled_from(sorted(ORDERINGS)))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_compiler_matches_counter(dnf, ordering):
    compiled = compile_dnf(dnf, ordering=ordering)
    assert compiled.circuit.check_invariants()
    assert compiled.count_by_size() == dnf.count_by_size()
    pairs = compiled.conditioned_pairs()
    for v in range(dnf.n_variables):
        assert pairs[v] == dnf.conditioned_count_by_size(v)


# --------------------------------------------------------------------------
# Engine backend: catalog-wide parity with brute and counting
# --------------------------------------------------------------------------

def _vocabulary_arities(query) -> dict[str, int]:
    from repro.queries import ConjunctiveQuery, UnionOfConjunctiveQueries

    if isinstance(query, ConjunctiveQuery):
        return {a.relation: a.arity for a in query.atoms}
    if isinstance(query, UnionOfConjunctiveQueries):
        arities: dict[str, int] = {}
        for disjunct in query.disjuncts:
            arities.update(_vocabulary_arities(disjunct))
        return arities
    return {name: 2 for name in query.relation_names()}


@st.composite
def catalog_instances(draw):
    """A hom-closed catalog query with a random database and random partition."""
    entry = draw(st.sampled_from(HOM_CLOSED))
    constants = ["a", "b", "c"]
    facts: list = []
    for relation, arity in sorted(_vocabulary_arities(entry.query).items()):
        pool = list(itertools.product(constants, repeat=arity))
        for args in draw(st.sets(st.sampled_from(pool), max_size=3)):
            facts.append(fact(relation, *args))
    facts = sorted(set(facts))
    endogenous = frozenset(draw(st.sets(st.sampled_from(facts), max_size=5))
                           if facts else [])
    return entry, PartitionedDatabase(endogenous, frozenset(facts) - endogenous)


@given(catalog_instances())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_circuit_matches_brute_and_counting_on_catalog(instance):
    entry, pdb = instance
    circuit_values = SVCEngine(entry.query, pdb, method="circuit").all_values()
    counting_values = SVCEngine(entry.query, pdb, method="counting").all_values()
    brute_values = SVCEngine(entry.query, pdb, method="brute").all_values()
    assert circuit_values == counting_values == brute_values
    for f, value in circuit_values.items():
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (
            brute_values[f].numerator, brute_values[f].denominator)


@given(catalog_instances())
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_circuit_efficiency_axiom(instance):
    entry, pdb = instance
    engine = SVCEngine(entry.query, pdb, method="circuit")
    total = sum(engine.all_values().values(), Fraction(0))
    assert total == engine.grand_coalition_value()


class TestCircuitBackend:
    def test_single_value_fills_every_pending_value(self, q_rst, small_pdb):
        engine = SVCEngine(q_rst, small_pdb, method="circuit")
        if not small_pdb.endogenous:
            return
        first = sorted(small_pdb.endogenous)[0]
        engine.value_of(first)
        # the one derivative sweep priced every fact: no value is pending
        assert set(engine._values) == set(small_pdb.endogenous)

    def test_circuit_on_non_hom_closed_query_raises(self, small_pdb):
        from repro.queries import cq_with_negation

        query = cq_with_negation([atom("R", X)], [atom("T", X)])
        engine = SVCEngine(query, small_pdb, method="circuit")
        if small_pdb.endogenous:
            with pytest.raises(ValueError):
                engine.all_values()

    def test_circuit_metadata_exposed(self, q_rst, rst_exogenous_pdb):
        # shard="fact" pins the whole-formula circuit this test inspects; the
        # component axis sums per-island sizes (covered in test_sharding.py).
        engine = SVCEngine(q_rst, rst_exogenous_pdb, method="circuit",
                           shard="fact")
        engine.all_values()
        assert engine.circuit_size() == engine._compiled.size > 0
        assert engine.circuit_compile_time_s() >= 0.0
        assert engine.circuit_fallback_reason() is None

    def test_worker_kernel_equals_serial_values(self, q_rst, rst_exogenous_pdb):
        engine = SVCEngine(q_rst, rst_exogenous_pdb, method="circuit")
        serial = engine.all_values()
        compiled = compile_lineage(build_lineage(q_rst, rst_exogenous_pdb))
        facts = sorted(rst_exogenous_pdb.endogenous)
        merged: dict = {}
        for stripe in (facts[0::2], facts[1::2]):  # two worker stripes
            merged.update({f: combine_fgmc_vectors(with_vec, without_vec, len(facts))
                           for f, (with_vec, without_vec)
                           in circuit_pairs(compiled, stripe).items()})
        assert merged == serial


# --------------------------------------------------------------------------
# Node-budget fallback
# --------------------------------------------------------------------------

class TestBudgetFallback:
    def test_explicit_circuit_falls_back_to_counting(self, q_rst, rst_exogenous_pdb):
        reference = SVCEngine(q_rst, rst_exogenous_pdb, method="counting").all_values()
        # shard="fact" pins whole-formula compilation, whose budget abort
        # degrades the backend; the component axis instead falls back island
        # by island and keeps backend "circuit" (covered in test_sharding.py).
        engine = SVCEngine(q_rst, rst_exogenous_pdb, method="circuit",
                           circuit_node_budget=1, shard="fact")
        assert engine.backend() == "counting"
        assert engine.all_values() == reference
        assert "node budget" in engine.circuit_fallback_reason()
        assert engine.circuit_size() is None  # no circuit survived the abort

    def test_auto_falls_back_to_counting(self, q_rst, rst_exogenous_pdb):
        engine = SVCEngine(q_rst, rst_exogenous_pdb, circuit_node_budget=1,
                           shard="fact")
        assert engine.backend() == "counting"

    def test_session_reports_fallback_backend(self, q_rst, rst_exogenous_pdb):
        config = EngineConfig(method="circuit", circuit_node_budget=1,
                              on_hard="exact", shard="fact")
        session = AttributionSession(q_rst, rst_exogenous_pdb, config)
        report = session.report()
        assert report.backend == "counting"
        assert report.circuit_size is None
        parity = AttributionSession(q_rst, rst_exogenous_pdb,
                                    EngineConfig(method="counting", on_hard="exact"))
        assert report.values == parity.report().values

    def test_engine_validates_budget(self, q_rst):
        pdb = PartitionedDatabase({fact("R", "a")}, ())
        with pytest.raises(ValueError):
            SVCEngine(q_rst, pdb, circuit_node_budget=0)
        with pytest.raises(ConfigError):
            EngineConfig(circuit_node_budget=0)

    def test_experiment_rows_survive_a_budget_fallback(self):
        from repro.experiments import run_circuit_vs_counting

        rows = run_circuit_vs_counting(shapes=((3, 3),), circuit_node_budget=1)
        assert rows[0]["backend"] == "counting"
        assert rows[0]["circuit nodes"] is None
        assert rows[0]["compile (s)"] == "—"
        assert rows[0]["exact match"]


# --------------------------------------------------------------------------
# Session integration
# --------------------------------------------------------------------------

class TestSessionIntegration:
    def test_report_records_circuit_size_and_compile_time(self, q_rst, rst_exogenous_pdb):
        session = AttributionSession(q_rst, rst_exogenous_pdb,
                                     EngineConfig(on_hard="exact"))
        report = session.report()
        assert report.backend == "circuit"
        assert report.circuit_size > 0
        assert report.circuit_compile_time_s >= 0.0
        payload = report.to_json_dict()
        assert payload["circuit_size"] == report.circuit_size
        assert payload["circuit_compile_time_s"] == report.circuit_compile_time_s

    def test_safe_backend_reports_no_circuit(self, q_hier, rst_exogenous_pdb):
        report = AttributionSession(q_hier, rst_exogenous_pdb,
                                    EngineConfig(method="safe")).report()
        assert report.backend == "safe"
        assert report.circuit_size is None
        assert report.circuit_compile_time_s is None


# --------------------------------------------------------------------------
# auto resolution: one rule from the query class, resolved before the LRU
# keys the engine, with the safe plan as the circuit's budget fallback
# --------------------------------------------------------------------------

#: Hom-closed catalog entries on the FP side of Figure 1b.
FP_HOM_CLOSED = [e for e in HOM_CLOSED if e.expected is Complexity.FP]


def _seeded_instance(query, seed: int) -> PartitionedDatabase:
    """Up to three facts per relation over ``{a, b}``, most endogenous."""
    rng = random.Random(seed)
    facts = set()
    for relation, arity in sorted(_vocabulary_arities(query).items()):
        pool = list(itertools.product("ab", repeat=arity))
        facts.update(fact(relation, *args)
                     for args in rng.sample(pool, min(3, len(pool))))
    endogenous = frozenset(f for f in sorted(facts) if rng.random() < 0.8)
    return PartitionedDatabase(endogenous, frozenset(facts) - endogenous)


def _assert_bitwise(left: dict, right: dict) -> None:
    assert left == right
    for f, value in left.items():
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (
            right[f].numerator, right[f].denominator)


class TestEngineCacheResolution:
    def test_auto_and_explicit_share_one_engine(self, q_rst, q_hier, rst_exogenous_pdb):
        clear_engine_cache()
        auto = get_engine(q_rst, rst_exogenous_pdb)          # auto -> circuit
        assert get_engine(q_rst, rst_exogenous_pdb, "circuit") is auto
        stats = engine_cache_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (1, 1, 1)
        fp_auto = get_engine(q_hier, rst_exogenous_pdb)      # auto -> circuit
        assert get_engine(q_hier, rst_exogenous_pdb, "circuit") is fp_auto
        stats = engine_cache_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (2, 2, 2)
        clear_engine_cache()

    def test_auto_seeds_the_safe_plan(self, q_hier, rst_exogenous_pdb):
        # auto compiles a plan only on a node-budget overrun, never up front.
        clear_engine_cache()
        engine = get_engine(q_hier, rst_exogenous_pdb)
        engine.all_values()
        assert engine.method == "circuit"      # resolved before construction
        assert engine._plan is None            # ...and no plan was compiled
        clear_engine_cache()

    @pytest.mark.parametrize("entry", FP_HOM_CLOSED, ids=lambda e: e.name)
    def test_auto_runs_the_circuit_on_fp_queries(self, entry, monkeypatch):
        # auto never compiles a plan on an FP query, and its values are
        # bitwise those of the safe plan (CQs, UCQs) or of brute force
        # (RPQs and CRPQs, which have no plan), for Shapley and Banzhaf.
        oracle = "safe" if isinstance(
            entry.query, (ConjunctiveQuery, UnionOfConjunctiveQueries)) else "brute"
        instances = [_seeded_instance(entry.query, seed) for seed in (1, 2)]
        expected = {(i, index): AttributionSession(
                        entry.query, pdb, EngineConfig(method=oracle, index=index)).values()
                    for i, pdb in enumerate(instances)
                    for index in ("shapley", "banzhaf")}

        def no_plan(query):
            raise AssertionError(f"auto compiled a safe plan for {query}")

        monkeypatch.setattr("repro.engine.svc_engine.safe_plan", no_plan)
        clear_engine_cache()
        for (i, index), values in expected.items():
            session = AttributionSession(entry.query, instances[i],
                                         EngineConfig(index=index))
            assert session.backend() == "circuit"
            _assert_bitwise(session.values(), values)
        assert any(v != 0 for values in expected.values() for v in values.values())
        clear_engine_cache()

    def test_budget_overrun_falls_back_to_the_safe_plan(self, q_rst, q_hier,
                                                        rst_exogenous_pdb, tmp_path):
        tiny = EngineConfig(circuit_node_budget=1, shard="fact", on_hard="exact")
        budget_line = "circuit compilation exceeded the node budget of 1"
        clear_engine_cache()
        report = AttributionSession(q_hier, rst_exogenous_pdb, tiny,
                                    store=DiskStore(tmp_path)).report()
        assert report.backend == "safe"
        assert report.degradation_reason == (f"circuit→safe: {budget_line}",)
        _assert_bitwise(report.values, AttributionSession(
            q_hier, rst_exogenous_pdb, EngineConfig(method="safe")).values())
        assert DiskStore(tmp_path).get(plan_key(q_hier)) is not None
        # A query without a safe plan keeps the counting fallback.
        report = AttributionSession(q_rst, rst_exogenous_pdb, tiny).report()
        assert report.backend == "counting"
        assert report.degradation_reason == (f"circuit→counting: {budget_line}",)
        clear_engine_cache()

    def test_distinct_budgets_get_distinct_engines(self, q_rst, rst_exogenous_pdb):
        clear_engine_cache()
        small = get_engine(q_rst, rst_exogenous_pdb, circuit_node_budget=1)
        large = get_engine(q_rst, rst_exogenous_pdb, circuit_node_budget=10_000)
        assert small is not large
        clear_engine_cache()

    def test_unhashable_query_still_served(self, rst_exogenous_pdb):
        from repro.queries import ConjunctiveQuery, cq

        class UnhashableQuery(ConjunctiveQuery):
            __hash__ = None

        query = UnhashableQuery(cq(atom("R", X), atom("S", X, Y),
                                   atom("T", Y)).atoms, name="unhashable")
        engine = get_engine(query, rst_exogenous_pdb)
        assert engine.all_values() == SVCEngine(
            Q_RST, rst_exogenous_pdb).all_values()


# --------------------------------------------------------------------------
# Claim A.1 combination: integer accumulation parity (micro-opt regression)
# --------------------------------------------------------------------------

def _combine_reference(with_vec, without_vec, n):
    """The pre-optimisation combiner: one normalised Fraction per stratum."""
    total = Fraction(0)
    for j in range(n):
        plus = with_vec[j] if j < len(with_vec) else 0
        minus = without_vec[j] if j < len(without_vec) else 0
        if plus != minus:
            total += shapley_subset_weight(j, n) * (plus - minus)
    return total


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, 10**6), min_size=n, max_size=n),
    st.lists(st.integers(0, 10**6), min_size=n, max_size=n))))
@settings(max_examples=80, deadline=None)
def test_combine_fgmc_vectors_matches_per_term_accumulation(case):
    n, with_vec, without_vec = case
    fast = combine_fgmc_vectors(with_vec, without_vec, n)
    slow = _combine_reference(with_vec, without_vec, n)
    assert type(fast) is Fraction
    assert (fast.numerator, fast.denominator) == (slow.numerator, slow.denominator)


def test_combine_fgmc_vectors_empty_database():
    assert combine_fgmc_vectors([], [], 0) == Fraction(0)


# ---------------------------------------------------------------------------
# circuit restriction and the batch conditioning plan
# ---------------------------------------------------------------------------

def _reindexed_after(dnf: MonotoneDNF, fixed: "dict[int, bool]") -> MonotoneDNF:
    """``dnf`` with the fixed variables restricted away (the counter's reference)."""
    out = dnf
    for v in sorted(fixed, reverse=True):  # high-to-low keeps lower indices stable
        out = out.restrict(v, fixed[v])
    return out


def _survivor_map(n: int, fixed: "dict[int, bool]") -> "dict[int, int]":
    """original variable id -> reindexed id in the restricted reference DNF."""
    survivors = [v for v in range(n) if v not in fixed]
    return {v: i for i, v in enumerate(survivors)}


class TestRestriction:
    """``Circuit.restrict`` / ``CompiledDNF.restrict`` against the counter."""

    @pytest.mark.parametrize("dnf", _example_dnfs())
    def test_counts_match_restricted_dnf(self, dnf):
        compiled = compile_dnf(dnf)
        for v in range(dnf.n_variables):
            for value in (True, False):
                restricted = compiled.restrict({v: value})
                assert restricted.n_variables == dnf.n_variables - 1
                assert restricted.count_by_size() == \
                    dnf.restrict(v, value).count_by_size()

    @pytest.mark.parametrize("dnf", _example_dnfs())
    def test_restricted_circuit_keeps_invariants(self, dnf):
        compiled = compile_dnf(dnf)
        for v in range(dnf.n_variables):
            restricted = compiled.restrict({v: v % 2 == 0})
            assert restricted.circuit.check_invariants()

    def test_conditioned_pairs_keep_original_numbering(self):
        dnf = MonotoneDNF(5, [frozenset({0, 1}), frozenset({1, 2}),
                              frozenset({3, 4})])
        compiled = compile_dnf(dnf)
        fixed = {1: False, 3: True}
        restricted = compiled.restrict(fixed)
        survivors = [v for v in range(5) if v not in fixed]
        pairs = restricted.conditioned_pairs(survivors)
        reference = _reindexed_after(dnf, fixed)
        remap = _survivor_map(5, fixed)
        assert set(pairs) == set(survivors)
        for v in survivors:
            assert pairs[v] == reference.conditioned_count_by_size(remap[v])

    def test_multi_variable_restriction_composes(self):
        dnf = MonotoneDNF(6, [frozenset({0, 1, 2}), frozenset({2, 3}),
                              frozenset({4})])
        compiled = compile_dnf(dnf)
        fixed = {2: True, 4: False}
        once = compiled.restrict(fixed)
        twice = compiled.restrict({2: True}).restrict({4: False})
        assert once.count_by_size() == twice.count_by_size()
        assert once.count_by_size() == _reindexed_after(dnf, fixed).count_by_size()

    def test_out_of_range_assignment_rejected(self):
        compiled = compile_dnf(MonotoneDNF(2, [frozenset({0, 1})]))
        with pytest.raises(ValueError, match="unknown variables"):
            compiled.restrict({5: True})


class TestConditioningPlan:
    """The batch plan matches a full restricted sweep, factor by factor."""

    @pytest.mark.parametrize("dnf", _example_dnfs())
    def test_matches_full_restricted_sweep(self, dnf):
        from repro.compile import ConditioningPlan

        compiled = compile_dnf(dnf)
        plan = ConditioningPlan(compiled)
        for v in range(dnf.n_variables):
            fixed = {v: v % 2 == 0}
            pairs, satisfiable, models = plan.restricted_pairs(fixed)
            restricted = compiled.restrict(fixed)
            survivors = [u for u in range(dnf.n_variables) if u not in fixed]
            assert pairs == restricted.conditioned_pairs(survivors)
            assert models == restricted.count_by_size()
            n_rem = restricted.n_variables
            assert satisfiable == (restricted.count_by_size()[n_rem] > 0)

    def test_multi_island_factors_and_parity(self):
        from repro.compile import ConditioningPlan

        dnf = MonotoneDNF(7, [frozenset({0, 1}), frozenset({2, 3}),
                              frozenset({4, 5})])  # 6 is unconstrained
        compiled = compile_dnf(dnf)
        plan = ConditioningPlan(compiled)
        assert plan.n_factors == 3
        for fixed in ({0: False}, {2: True, 5: False}, {6: False},
                      {0: True, 2: True, 4: True}):
            pairs, satisfiable, models = plan.restricted_pairs(fixed)
            restricted = compiled.restrict(fixed)
            survivors = [u for u in range(7) if u not in fixed]
            assert pairs == restricted.conditioned_pairs(survivors)
            assert models == restricted.count_by_size()
            n_rem = restricted.n_variables
            assert satisfiable == (restricted.count_by_size()[n_rem] > 0)

    def test_fully_fixed_formula(self):
        from repro.compile import ConditioningPlan

        dnf = MonotoneDNF(2, [frozenset({0, 1})])
        plan = ConditioningPlan(compile_dnf(dnf))
        pairs, satisfiable, models = plan.restricted_pairs({0: True, 1: True})
        assert pairs == {}
        assert satisfiable is True
        assert models == [1]
        pairs, satisfiable, models = plan.restricted_pairs({0: True, 1: False})
        assert pairs == {}
        assert satisfiable is False
        assert models == [0]

    def test_out_of_range_assignment_rejected(self):
        from repro.compile import ConditioningPlan

        plan = ConditioningPlan(compile_dnf(MonotoneDNF(2, [frozenset({0})])))
        with pytest.raises(ValueError, match="unknown variables"):
            plan.restricted_pairs({2: False})

    @pytest.mark.parametrize("index_name", ["shapley", "banzhaf"])
    @pytest.mark.parametrize("dnf", _example_dnfs())
    def test_semivalues_match_pair_combination(self, dnf, index_name):
        from repro.compile import ConditioningPlan
        from repro.values import get_index

        index = get_index(index_name)
        plan = ConditioningPlan(compile_dnf(dnf))
        for v in range(dnf.n_variables):
            fixed = {v: v % 2 == 1}
            n_rem = dnf.n_variables - len(fixed)
            weights = [index.subset_weight(k, n_rem) for k in range(n_rem)]
            values, satisfiable, models = plan.restricted_semivalues(
                fixed, weights)
            pairs, pair_sat, pair_models = plan.restricted_pairs(fixed)
            assert (satisfiable, models) == (pair_sat, pair_models)
            assert set(values) == set(pairs)
            for u, (with_vec, without_vec) in pairs.items():
                assert values[u] == index.combine(with_vec, without_vec, n_rem)

    def test_semivalues_need_one_weight_per_size(self):
        from repro.compile import ConditioningPlan

        dnf = MonotoneDNF(3, [frozenset({0, 1})])
        plan = ConditioningPlan(compile_dnf(dnf))
        with pytest.raises(ValueError, match="one weight per coalition size"):
            plan.restricted_semivalues({0: True}, [Fraction(1, 2)])
