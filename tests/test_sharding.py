"""Tests for the component shard axis: decomposition, recombination, engine parity.

The contract under test: sharding the exact backends along the lineage's
variable-disjoint islands returns **bitwise-identical** ``Fraction`` values to
the serial engine and to fact striping — on island-rich instances, on the
degenerate one-component instance, on trivial lineages and on an empty ``Dn``
— while per-island circuits are independently cached, budgeted and reused.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AttributionReport, AttributionSession, ConfigError, EngineConfig
from repro.compile import ConditioningPlan, compile_dnf
from repro.counting import MonotoneDNF, build_lineage
from repro.data import PartitionedDatabase, atom, fact, var
from repro.engine import (
    SHARD_POLICIES,
    SVCEngine,
    clear_engine_cache,
    combine_component_pairs,
    decompose_dnf,
    decompose_lineage,
    get_engine,
    solve_component,
)
from repro.engine.sharding import recombine_components
from repro.experiments import (
    full_catalog,
    island_attribution_instance,
    sparse_endogenous_instance,
)
from repro.queries import cq
from repro.values import BANZHAF, SHAPLEY
from repro.workspace import MemoryStore, circuit_key

X, Y = var("x"), var("y")
Q_RST = cq(atom("R", X), atom("S", X, Y), atom("T", Y), name="q_RST")

CATALOG = full_catalog()
HOM_CLOSED = [e for e in CATALOG if e.query.is_hom_closed]


def _assert_bitwise(left: dict, right: dict) -> None:
    assert left == right
    for f, value in left.items():
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (
            right[f].numerator, right[f].denominator)


# --------------------------------------------------------------------------
# Decomposition structure
# --------------------------------------------------------------------------

class TestDecomposition:
    def test_disjoint_islands_split(self):
        dnf = MonotoneDNF(7, [{0, 1}, {1, 2}, {4, 5}, {5, 6}])
        decomposition = decompose_dnf(dnf)
        assert decomposition.n_variables == 7
        assert decomposition.n_components == 2
        assert [c.variables for c in decomposition.components] == [(0, 1, 2), (4, 5, 6)]
        assert decomposition.free_variables == (3,)
        assert decomposition.largest_component == 3
        assert not decomposition.trivially_true

    def test_absorbed_clause_frees_its_private_variable(self):
        """{4,5} is absorbed by {5}: variable 4 never matters, so it is free."""
        decomposition = decompose_dnf(MonotoneDNF(6, [{0, 1}, {4, 5}, {5}]))
        assert [c.variables for c in decomposition.components] == [(0, 1), (5,)]
        assert decomposition.free_variables == (2, 3, 4)

    def test_components_are_locally_reindexed(self):
        dnf = MonotoneDNF(6, [{3, 5}, {1}])
        decomposition = decompose_dnf(dnf)
        by_vars = {c.variables: c for c in decomposition.components}
        assert by_vars[(1,)].dnf.clauses == frozenset({frozenset({0})})
        assert by_vars[(3, 5)].dnf.clauses == frozenset({frozenset({0, 1})})

    def test_trivially_true(self):
        decomposition = decompose_dnf(MonotoneDNF(3, [frozenset()]))
        assert decomposition.trivially_true
        assert decomposition.n_components == 0
        assert decomposition.free_variables == (0, 1, 2)
        assert decomposition.largest_component == 0

    def test_trivially_false(self):
        decomposition = decompose_dnf(MonotoneDNF(3, []))
        assert not decomposition.trivially_true
        assert decomposition.n_components == 0
        assert decomposition.free_variables == (0, 1, 2)

    def test_single_component(self):
        decomposition = decompose_dnf(MonotoneDNF(3, [{0, 1}, {1, 2}]))
        assert decomposition.n_components == 1
        assert decomposition.components[0].variables == (0, 1, 2)
        assert decomposition.free_variables == ()

    def test_deterministic(self):
        dnf = MonotoneDNF(9, [{8, 2}, {5}, {0, 1}, {1, 3}])

        def shape(decomposition):
            return (decomposition.free_variables,
                    [(c.variables, c.dnf.clauses)
                     for c in decomposition.components])

        assert shape(decompose_dnf(dnf)) == shape(decompose_dnf(dnf))

    def test_sub_lineage_to_lineage_keys_only_its_island(self):
        """A delta touching one island leaves the other islands' keys intact."""
        pdb = island_attribution_instance(3, 1, 2)
        lineage = build_lineage(Q_RST, pdb)
        decomposition = decompose_lineage(lineage)
        assert decomposition.n_components == 3
        keys = {circuit_key(Q_RST, sub.to_lineage(lineage.variables))
                for sub in decomposition.components}
        assert len(keys) == 3
        # Shrink one island: only that island's key may change.
        touched = sorted(pdb.endogenous)[0]
        smaller = PartitionedDatabase(pdb.endogenous - {touched}, pdb.exogenous)
        new_lineage = build_lineage(Q_RST, smaller)
        new_keys = {circuit_key(Q_RST, sub.to_lineage(new_lineage.variables))
                    for sub in decompose_lineage(new_lineage).components}
        assert len(keys & new_keys) == 2


# --------------------------------------------------------------------------
# Recombination parity with whole-formula conditioning
# --------------------------------------------------------------------------

def _random_dnf(rng: random.Random) -> MonotoneDNF:
    n = rng.randint(0, 9)
    clauses = []
    for _ in range(rng.randint(0, 6)):
        hi = min(3, n)
        lo = 0 if (rng.random() < 0.05 or hi == 0) else 1
        clauses.append(frozenset(rng.sample(range(n), rng.randint(lo, hi))
                                 if n else []))
    return MonotoneDNF(n, clauses)


#: Edge cases the random draw reaches rarely or never: ``n = 0`` (false and
#: true), trivially true and trivially false over several variables, and free
#: variables beside islands.
_EDGE_DNFS = (
    MonotoneDNF(0, []),
    MonotoneDNF(0, [frozenset()]),
    MonotoneDNF(4, [frozenset()]),
    MonotoneDNF(4, []),
    MonotoneDNF(6, [{0, 1}, {3}, {1, 5}]),
)


def _bitwise_values(left: dict, right: dict) -> None:
    assert left.keys() == right.keys()
    for v, value in left.items():
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (
            right[v].numerator, right[v].denominator)


def _renumbered(pairs: dict, fixed: int) -> dict:
    """Pairs of ``dnf.restrict(fixed, .)`` keyed by the original variable ids."""
    return {u + (u >= fixed): pair for u, pair in pairs.items()}


@pytest.mark.parametrize("mode", ["counting", "circuit"])
def test_recombination_matches_whole_formula_conditioning(mode):
    """The recombination kernel is integer-for-integer the serial answer.

    Every route through :func:`repro.counting.dnf_counter.recombine` — the
    island results of the engine and patcher (pairs and semivalues), the
    compiled DNF's own sweep, and the what-if ``ConditioningPlan`` with and
    without a fixed variable — against whole-formula conditioning.
    """
    rng = random.Random(20260807)
    for dnf in [_random_dnf(rng) for _ in range(150)] + list(_EDGE_DNFS):
        n = dnf.n_variables
        label = f"{sorted(map(sorted, dnf.clauses))} (n={n})"
        expected = {v: dnf.conditioned_count_by_size(v) for v in range(n)}
        decomposition = decompose_dnf(dnf)
        results = [solve_component(sub, i, mode=mode)
                   for i, sub in enumerate(decomposition.components)]
        models, pairs = recombine_components(decomposition, results)
        assert pairs == expected, label
        assert combine_component_pairs(decomposition, results) == expected, label
        assert models == dnf.count_by_size(), label

        compiled = compile_dnf(dnf)
        assert compiled.conditioned_pairs() == expected, label
        assert compiled.count_by_size() == models, label
        plan = ConditioningPlan(compiled)
        plan_pairs, satisfiable, plan_models = plan.restricted_pairs({})
        assert (plan_pairs, plan_models) == (expected, models), label
        assert satisfiable == dnf.evaluate(range(n)), label

        for index in (SHAPLEY, BANZHAF):
            weights = [index.subset_weight(j, n) for j in range(n)]
            combined = {v: index.combine(*pair, n) for v, pair in expected.items()}
            _bitwise_values(
                recombine_components(decomposition, results, weights)[1], combined)
            _bitwise_values(plan.restricted_semivalues({}, weights)[0], combined)

        if n:
            fixed, value = rng.randrange(n), rng.random() < 0.5
            restricted = dnf.restrict(fixed, value)
            want = _renumbered({u: restricted.conditioned_count_by_size(u)
                                for u in range(n - 1)}, fixed)
            got, satisfiable, got_models = plan.restricted_pairs({fixed: value})
            assert got == want, f"{label} with x{fixed}={value}"
            assert got_models == restricted.count_by_size(), label
            assert satisfiable == restricted.evaluate(range(n - 1)), label
            weights = [SHAPLEY.subset_weight(j, n - 1) for j in range(n - 1)]
            _bitwise_values(
                plan.restricted_semivalues({fixed: value}, weights)[0],
                {u: SHAPLEY.combine(*pair, n - 1) for u, pair in want.items()})


def test_recombination_validates_coverage():
    dnf = MonotoneDNF(4, [{0}, {2, 3}])
    decomposition = decompose_dnf(dnf)
    results = [solve_component(sub, i, mode="counting")
               for i, sub in enumerate(decomposition.components)]
    with pytest.raises(ValueError):
        combine_component_pairs(decomposition, results[:1])
    with pytest.raises(ValueError):
        combine_component_pairs(decomposition, results + results[:1])


def test_component_budget_fallback_is_per_island():
    """An island that blows the node budget is counted; the result is identical."""
    dnf = MonotoneDNF(6, [{0, 1}, {1, 2}, {3, 4}, {4, 5}])
    decomposition = decompose_dnf(dnf)
    results = [solve_component(sub, i, mode="circuit", node_budget=1)
               for i, sub in enumerate(decomposition.components)]
    assert all(r.mode == "counting" and r.fallback for r in results)
    pairs = combine_component_pairs(decomposition, results)
    for v in range(6):
        assert pairs[v] == dnf.conditioned_count_by_size(v)


# --------------------------------------------------------------------------
# Engine parity: component vs serial vs fact
# --------------------------------------------------------------------------

class TestEngineParity:
    @pytest.mark.parametrize("method", ["counting", "circuit"])
    def test_island_instance_all_axes_agree(self, method):
        pdb = island_attribution_instance(4, 1, 2)
        serial = SVCEngine(Q_RST, pdb, method=method, shard="fact").all_values()
        component = SVCEngine(Q_RST, pdb, method=method, shard="component")
        _assert_bitwise(component.all_values(), serial)
        assert component.shard_axis() == "component"
        assert component.n_components() == 4
        assert component.largest_component_size() == 5  # 1 + 2 + 1*2

    @pytest.mark.parametrize("entry", HOM_CLOSED, ids=[e.name for e in HOM_CLOSED])
    def test_hom_closed_catalog_parity(self, entry):
        from test_parallel_engine import _catalog_instance

        pdb = _catalog_instance(entry.query)
        serial = SVCEngine(entry.query, pdb).all_values()
        for shard in ("component", "fact", "auto"):
            engine = SVCEngine(entry.query, pdb, shard=shard)
            _assert_bitwise(engine.all_values(), serial)
            assert engine.ranking() == sorted(
                serial.items(), key=lambda item: (-item[1], item[0]))

    def test_degenerate_single_component(self):
        """One island: auto stays on the fact axis (component-wise compute
        would be whole-formula compute), an explicit request still agrees."""
        pdb = sparse_endogenous_instance(3, 3, 0.9, seed=1)
        auto = SVCEngine(Q_RST, pdb, method="counting")
        assert auto.all_values()
        decomposition = decompose_lineage(auto.lineage())
        if decomposition.n_components == 1:
            assert auto.shard_axis() == "fact"
        explicit = SVCEngine(Q_RST, pdb, method="counting", shard="component")
        _assert_bitwise(explicit.all_values(), auto.all_values())
        assert explicit.shard_axis() == "component"

    def test_empty_endogenous(self):
        pdb = PartitionedDatabase((), {fact("R", "a"), fact("S", "a", "b"),
                                       fact("T", "b")})
        for shard in SHARD_POLICIES:
            assert SVCEngine(Q_RST, pdb, shard=shard).all_values() == {}

    def test_trivially_satisfied_lineage(self):
        """Exogenous-only support: every endogenous fact is a null player."""
        pdb = PartitionedDatabase({fact("S", "x", "dead")},
                                  {fact("R", "a"), fact("S", "a", "b"),
                                   fact("T", "b")})
        serial = SVCEngine(Q_RST, pdb, method="counting", shard="fact").all_values()
        component = SVCEngine(Q_RST, pdb, method="counting",
                              shard="component").all_values()
        _assert_bitwise(component, serial)
        assert all(v == 0 for v in component.values())


@st.composite
def island_pdbs(draw):
    """Random island-rich q_RST instances: islands of varying shape, a random
    endogenous/exogenous split, and optional dead-end padding."""
    n_islands = draw(st.integers(0, 4))
    endogenous, exogenous = set(), set()
    for k in range(n_islands):
        left = draw(st.integers(1, 2))
        right = draw(st.integers(1, 2))
        for i in range(left):
            r = fact("R", f"i{k}l{i}")
            (endogenous if draw(st.booleans()) else exogenous).add(r)
            for j in range(right):
                endogenous.add(fact("S", f"i{k}l{i}", f"i{k}r{j}"))
        for j in range(right):
            t = fact("T", f"i{k}r{j}")
            (endogenous if draw(st.booleans()) else exogenous).add(t)
    if draw(st.booleans()):
        endogenous.add(fact("S", "pad", "dead"))
    return PartitionedDatabase(endogenous, exogenous)


@given(island_pdbs(), st.sampled_from(["counting", "circuit"]))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_component_axis_parity(pdb, method):
    serial = SVCEngine(Q_RST, pdb, method=method, shard="fact").all_values()
    component = SVCEngine(Q_RST, pdb, method=method, shard="component").all_values()
    fact_axis = SVCEngine(Q_RST, pdb, method=method, shard="fact",
                          workers=1).all_values()
    _assert_bitwise(component, serial)
    _assert_bitwise(fact_axis, serial)


# --------------------------------------------------------------------------
# Pool behaviour on the component axis
# --------------------------------------------------------------------------

class TestComponentPool:
    def test_pool_shards_by_island(self):
        pdb = island_attribution_instance(4, 1, 2)
        serial = SVCEngine(Q_RST, pdb, method="counting", shard="fact").all_values()
        engine = SVCEngine(Q_RST, pdb, method="counting", shard="component",
                           workers=2, parallel_threshold=2)
        _assert_bitwise(engine.all_values(), serial)
        assert engine.workers_used == 2

    def test_workers_capped_by_island_count(self):
        pdb = island_attribution_instance(2, 1, 2)
        engine = SVCEngine(Q_RST, pdb, method="counting", shard="component",
                           workers=8, parallel_threshold=2)
        assert engine.all_values()
        assert engine.workers_used == 2  # min(workers, pending islands)

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        from repro.engine import parallel

        monkeypatch.setattr(parallel, "parallel_component_results",
                            lambda *args, **kwargs: None)
        pdb = island_attribution_instance(3, 1, 2)
        serial = SVCEngine(Q_RST, pdb, method="counting", shard="fact").all_values()
        engine = SVCEngine(Q_RST, pdb, method="counting", shard="component",
                           workers=4, parallel_threshold=2)
        _assert_bitwise(engine.all_values(), serial)
        assert engine.workers_used == 1

    def test_workers_one_never_spawns_a_pool(self, monkeypatch):
        from repro.engine import parallel

        def boom(*_args, **_kwargs):  # pragma: no cover - must not run
            raise AssertionError("workers=1 must stay on the serial path")

        monkeypatch.setattr(parallel, "parallel_component_results", boom)
        pdb = island_attribution_instance(3, 1, 2)
        engine = SVCEngine(Q_RST, pdb, method="counting", shard="component",
                           workers=1, parallel_threshold=0)
        assert engine.all_values()
        assert engine.workers_used == 1


# --------------------------------------------------------------------------
# Per-island circuits: budget and store behaviour
# --------------------------------------------------------------------------

class TestComponentCircuits:
    def test_budget_fallback_keeps_circuit_backend(self):
        """Component axis: a blown budget degrades island by island, not
        wholesale — the backend stays "circuit" and the values stay exact."""
        pdb = island_attribution_instance(3, 1, 2)
        reference = SVCEngine(Q_RST, pdb, method="counting",
                              shard="fact").all_values()
        engine = SVCEngine(Q_RST, pdb, method="circuit", shard="component",
                           circuit_node_budget=1)
        assert engine.backend() == "circuit"
        _assert_bitwise(engine.all_values(), reference)
        assert "components fell back to counting" in engine.circuit_fallback_reason()

    def test_circuit_size_sums_islands(self):
        pdb = island_attribution_instance(3, 1, 2)
        engine = SVCEngine(Q_RST, pdb, method="circuit", shard="component")
        engine.all_values()
        assert engine.circuit_size() > 0
        assert engine.circuit_compile_time_s() >= 0.0
        assert engine.circuit_fallback_reason() is None

    def test_island_circuits_reused_from_store(self):
        store = MemoryStore()
        pdb = island_attribution_instance(3, 1, 2)
        first = SVCEngine(Q_RST, pdb, method="circuit", shard="component",
                          store=store)
        values = first.all_values()
        stored_circuits = sum(1 for key in store._entries if key.kind == "circuit")
        assert stored_circuits == 3  # one per island
        second = SVCEngine(Q_RST, pdb, method="circuit", shard="component",
                           store=store)
        _assert_bitwise(second.all_values(), values)
        assert store.stats()["hits"] >= 3

    def test_delta_recompiles_only_the_touched_island(self):
        store = MemoryStore()
        pdb = island_attribution_instance(3, 1, 2)
        SVCEngine(Q_RST, pdb, method="circuit", shard="component",
                  store=store).all_values()
        keys_before = {key for key in store._entries if key.kind == "circuit"}
        assert len(keys_before) == 3
        # Shrink island 0: its sub-lineage (and key) changes, the others don't.
        touched = fact("S", "i0l0", "i0r0")
        smaller = PartitionedDatabase(pdb.endogenous - {touched}, pdb.exogenous)
        engine = SVCEngine(Q_RST, smaller, method="circuit", shard="component",
                           store=store)
        reference = SVCEngine(Q_RST, smaller, method="counting",
                              shard="fact").all_values()
        _assert_bitwise(engine.all_values(), reference)
        keys_after = {key for key in store._entries if key.kind == "circuit"}
        assert len(keys_after - keys_before) == 1, \
            "only the touched island may recompile"
        assert store.stats()["hits"] >= 2, \
            "the untouched islands' circuits must be reused"


# --------------------------------------------------------------------------
# Config / session / report plumbing
# --------------------------------------------------------------------------

class TestShardPlumbing:
    def test_engine_validates_shard(self):
        pdb = PartitionedDatabase({fact("R", "a")}, ())
        with pytest.raises(ValueError):
            SVCEngine(Q_RST, pdb, shard="islands")

    def test_config_validates_shard(self):
        with pytest.raises(ConfigError):
            EngineConfig(shard="islands")
        assert EngineConfig().shard == "auto"

    def test_get_engine_keys_on_shard(self):
        clear_engine_cache()
        pdb = island_attribution_instance(2, 1, 1)
        auto = get_engine(Q_RST, pdb)
        assert get_engine(Q_RST, pdb, shard="component") is not auto
        assert get_engine(Q_RST, pdb, shard="component") is \
            get_engine(Q_RST, pdb, shard="component")
        clear_engine_cache()

    def test_report_records_component_shard(self):
        pdb = island_attribution_instance(3, 1, 2)
        config = EngineConfig(method="counting", shard="component", on_hard="exact")
        report = AttributionSession(Q_RST, pdb, config).report()
        assert report.shard_axis == "component"
        assert report.n_components == 3
        assert report.largest_component == 5  # 1 + 2 + 1*2
        payload = report.to_json_dict()
        assert payload["shard_axis"] == "component"
        assert payload["n_components"] == 3
        assert payload["largest_component"] == 5
        clone = AttributionReport.from_json_dict(payload)
        assert (clone.shard_axis, clone.n_components, clone.largest_component) == \
            ("component", 3, 5)
        _assert_bitwise(clone.values, report.values)

    def test_report_fact_axis_and_old_payloads(self):
        pdb = island_attribution_instance(2, 1, 1)
        config = EngineConfig(method="counting", shard="fact", on_hard="exact")
        report = AttributionSession(Q_RST, pdb, config).report()
        assert report.shard_axis == "fact"
        payload = report.to_json_dict()
        # Documents written before the component axis lack the fields entirely.
        for field in ("shard_axis", "n_components", "largest_component"):
            del payload[field]
        payload["config"].pop("shard")
        clone = AttributionReport.from_json_dict(payload)
        assert clone.shard_axis is None
        assert clone.n_components is None
        assert clone.largest_component is None

    def test_cli_shard_flag(self, tmp_path, capsys):
        from repro.cli import main

        facts_file = tmp_path / "db.txt"
        facts_file.write_text("R(a)\nS(a,b)\nT(b)\nR(c)\nS(c,d)\nT(d)\n",
                              encoding="utf-8")
        code = main(["attribute", "-q", "R(x), S(x,y), T(y)",
                     "-d", str(facts_file), "--shard", "component", "--json"])
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["shard"] == "component"
        assert payload["shard_axis"] == "component"
