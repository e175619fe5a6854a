"""Tests for :mod:`repro.incremental` — delta-maintained lineages and patching.

The subsystem's contract is *bitwise parity with the cold path*: a maintained
support view advanced through any delta sequence must reproduce
``build_lineage`` exactly, and the island patcher must reproduce a fresh
exact session's ``Fraction`` values bit for bit — falling back cleanly (and
audibly, via ``refresh_reason``) whenever it cannot.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AttributionSession, EngineConfig
from repro.counting.lineage import build_lineage
from repro.data import PartitionedDatabase, fact
from repro.engine.sharding import decompose_lineage
from repro.experiments import full_catalog, q_hierarchical, q_rst
from repro.experiments.batch_engine import island_attribution_instance
from repro.incremental import (
    MaintainedLineage,
    SnapshotDelta,
    apply_delta,
    patch_attribution,
    supports_through,
)
from repro.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.workspace import (
    AttributionWorkspace,
    DiskStore,
    MemoryStore,
    WorkspaceRefresh,
)
from repro.workspace.results import AttributionDelta

CATALOG = full_catalog()
HOM_CLOSED = [e for e in CATALOG if e.query.is_hom_closed]
NON_HOM_CLOSED = [e for e in CATALOG if not e.query.is_hom_closed]

EXACT = EngineConfig(on_hard="exact")


def _assert_bitwise(left: dict, right: dict) -> None:
    assert left == right
    for f, value in left.items():
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (
            right[f].numerator, right[f].denominator)


def _relation_arities(query) -> dict[str, int]:
    if isinstance(query, ConjunctiveQuery):
        return {a.relation: a.arity for a in query.atoms}
    if isinstance(query, UnionOfConjunctiveQueries):
        arities: dict[str, int] = {}
        for disjunct in query.disjuncts:
            arities.update(_relation_arities(disjunct))
        return arities
    return {name: 2 for name in query.relation_names()}


@st.composite
def delta_scripts(draw, entries):
    """A hom-closed catalog query, a seed database, and a delta sequence."""
    entry = draw(st.sampled_from(entries))
    arities = _relation_arities(entry.query)
    arities["Zeta"] = 1                            # outside every vocabulary
    relations = sorted(arities)
    constants = ["a", "b", "c"]

    def draw_fact():
        relation = draw(st.sampled_from(relations))
        args = [draw(st.sampled_from(constants))
                for _ in range(arities[relation])]
        return fact(relation, *args)

    endogenous, exogenous = set(), set()
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        f = draw_fact()
        if f in endogenous or f in exogenous:
            continue
        (endogenous if draw(st.booleans()) else exogenous).add(f)
    script = [(draw(st.sampled_from(["insert", "insert_exo", "remove",
                                     "make_exogenous", "make_endogenous"])),
               draw_fact())
              for _ in range(draw(st.integers(min_value=1, max_value=6)))]
    return entry, PartitionedDatabase(endogenous, exogenous), script


def _script_deltas(pdb: PartitionedDatabase, script):
    """Turn a raw script into feasible ``(SnapshotDelta, next_pdb)`` steps."""
    steps = []
    for op, f in script:
        if op == "insert" and f not in pdb.all_facts:
            delta, pdb = (SnapshotDelta("insert", f, True),
                          pdb.with_endogenous([f]))
        elif op == "insert_exo" and f not in pdb.all_facts:
            delta, pdb = (SnapshotDelta("insert", f, False),
                          pdb.with_exogenous([f]))
        elif op == "remove" and f in pdb.all_facts:
            delta, pdb = (SnapshotDelta("remove", f, f in pdb.endogenous),
                          pdb.without([f]))
        elif op == "make_exogenous" and f in pdb.endogenous:
            delta, pdb = (SnapshotDelta("make_exogenous", f, False),
                          pdb.move_to_exogenous([f]))
        elif op == "make_endogenous" and f in pdb.exogenous:
            delta, pdb = (SnapshotDelta("make_endogenous", f, True),
                          PartitionedDatabase(pdb.endogenous | {f},
                                              pdb.exogenous - {f}))
        else:
            continue                               # infeasible op: skip
        steps.append((delta, pdb))
    return steps


# ---------------------------------------------------------------------------
# The maintained view: bitwise-equal to build_lineage at every step
# ---------------------------------------------------------------------------

class TestMaintainedLineage:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(delta_scripts(HOM_CLOSED))
    def test_stepwise_parity_with_build_lineage(self, case):
        entry, pdb, script = case
        view = MaintainedLineage.build(entry.query, pdb)
        for delta, pdb in _script_deltas(pdb, script):
            view = view.apply(delta)
            assert view.matches(pdb)
            maintained = view.lineage()
            cold = build_lineage(entry.query, pdb)
            assert maintained.variables == cold.variables
            assert set(maintained.dnf.clauses) == set(cold.dnf.clauses)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(delta_scripts(HOM_CLOSED))
    def test_apply_all_equals_stepwise(self, case):
        entry, pdb, script = case
        view = MaintainedLineage.build(entry.query, pdb)
        steps = _script_deltas(pdb, script)
        if not steps:
            return
        stepwise = view
        for delta, _ in steps:
            stepwise = stepwise.apply(delta)
        batched = view.apply_all([delta for delta, _ in steps])
        assert batched == stepwise

    def test_build_rejects_non_hom_closed(self):
        entry = NON_HOM_CLOSED[0]
        with pytest.raises(ValueError):
            MaintainedLineage.build(entry.query, PartitionedDatabase([], []))

    def test_matches_detects_divergence(self):
        pdb = island_attribution_instance(2)
        view = MaintainedLineage.build(q_rst(), pdb)
        assert view.matches(pdb)
        assert not view.matches(pdb.without([fact("R", "i0l0")]))
        assert not view.matches(pdb.move_to_exogenous([fact("R", "i0l0")]))

    def test_supports_through_matches_full_enumeration(self):
        pdb = island_attribution_instance(2)
        mu = fact("S", "i0l0", "i1r0")             # bridges the two islands
        grown = pdb.with_endogenous([mu])
        pinned = supports_through(q_rst(), grown.all_facts, mu)
        brute = {s for s in q_rst().minimal_supports_in(grown.all_facts)
                 if mu in s}
        assert set(pinned) >= brute                # pinned set may be non-minimal
        assert all(mu in s for s in pinned)

    def test_apply_delta_remove_drops_exactly_touched_supports(self):
        pdb = island_attribution_instance(2)
        supports = frozenset(q_rst().minimal_supports_in(pdb.all_facts))
        mu = fact("R", "i0l0")
        after = apply_delta(q_rst(), supports, pdb.all_facts,
                            SnapshotDelta("remove", mu, True))
        assert after == frozenset(s for s in supports if mu not in s)

    def test_apply_delta_repartition_keeps_the_support_family(self):
        pdb = island_attribution_instance(2)
        supports = frozenset(q_rst().minimal_supports_in(pdb.all_facts))
        for op in ("make_exogenous", "make_endogenous"):
            delta = SnapshotDelta(op, fact("R", "i0l0"),
                                  op == "make_endogenous")
            assert apply_delta(q_rst(), supports, pdb.all_facts,
                               delta) == supports

    def test_apply_delta_foreign_relation_insert_is_free(self):
        pdb = island_attribution_instance(2)
        supports = frozenset(q_rst().minimal_supports_in(pdb.all_facts))
        mu = fact("Zeta", "zz")
        after = apply_delta(q_rst(), supports, pdb.all_facts | {mu},
                            SnapshotDelta("insert", mu, True))
        assert after == supports

    def test_snapshot_delta_validates_the_op(self):
        with pytest.raises(ValueError):
            SnapshotDelta("upsert", fact("R", "a"), True)


# ---------------------------------------------------------------------------
# The island patcher: parity, seeding, split/merge
# ---------------------------------------------------------------------------

class TestPatchAttribution:
    @pytest.mark.parametrize("index", ["shapley", "banzhaf", "responsibility"])
    @pytest.mark.parametrize("mode", ["circuit", "counting"])
    def test_parity_with_exact_session(self, index, mode):
        pdb = island_attribution_instance(3, exogenous_pad=1)
        lineage = build_lineage(q_rst(), pdb)
        result = patch_attribution(q_rst(), lineage, store=MemoryStore(),
                                   index=index, mode=mode)
        cold = AttributionSession(
            q_rst(), pdb, EngineConfig(on_hard="exact", index=index)).values()
        _assert_bitwise(result.values, cold)
        assert result.stats.islands == 3

    def test_second_patch_on_a_touched_island_seeds_from_its_circuit(self):
        store = MemoryStore()
        pdb = island_attribution_instance(3)
        view = MaintainedLineage.build(q_rst(), pdb)
        patch_attribution(q_rst(), view.lineage(), store=store,
                          index="shapley")

        first_delta = SnapshotDelta("remove", fact("R", "i0l0"), True)
        once = view.apply(first_delta)
        r1 = patch_attribution(q_rst(), once.lineage(), store=store,
                               index="shapley", previous=view.lineage())
        assert r1.stats.pairs_hits == 2            # untouched islands

        # Island 0 survives this delta (R(i0l1), S(i0l1, i0r1), T(i0r1)), so
        # it recompiles, seeded from the circuit the first patch stored.
        second_delta = SnapshotDelta("remove", fact("S", "i0l1", "i0r0"), True)
        twice = once.apply(second_delta)
        r2 = patch_attribution(q_rst(), twice.lineage(), store=store,
                               index="shapley", previous=once.lineage())
        assert r2.stats.islands == 3
        assert r2.stats.pairs_hits == 2
        assert r2.stats.seeded_compiles == 1
        assert r2.stats.fresh_compiles == 0
        cold = AttributionSession(
            q_rst(), pdb.without([fact("R", "i0l0"), fact("S", "i0l1", "i0r0")]),
            EXACT).values()
        _assert_bitwise(r2.values, cold)

    def test_attribute_between_patches_compiles_nothing_and_keeps_seeding(
            self, monkeypatch):
        """A cold session between two patches of one island reads the
        patcher's records instead of recompiling over its seedable circuit."""
        import repro.compile.compiler as compiler_module
        import repro.engine.sharding as sharding_module
        from repro.engine import clear_engine_cache

        store = MemoryStore()
        pdb = island_attribution_instance(3)
        view = MaintainedLineage.build(q_rst(), pdb)
        patch_attribution(q_rst(), view.lineage(), store=store,
                          index="shapley")
        removed = fact("S", "i0l0", "i0r0")
        once = view.apply(SnapshotDelta("remove", removed, True))
        patch_attribution(q_rst(), once.lineage(), store=store,
                          index="shapley", previous=view.lineage())

        compiles = []
        real_compile = compiler_module.compile_dnf

        def counting_compile(*args, **kwargs):
            compiles.append(args)
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(compiler_module, "compile_dnf", counting_compile)
        monkeypatch.setattr(sharding_module, "compile_dnf", counting_compile)
        clear_engine_cache()
        report = AttributionSession(q_rst(), pdb.without([removed]), EXACT,
                                    store=store).report()
        assert report.shard_axis == "component"
        assert compiles == []

        removed_too = fact("S", "i0l1", "i0r0")     # island 0 stays one island
        twice = once.apply(SnapshotDelta("remove", removed_too, True))
        r2 = patch_attribution(q_rst(), twice.lineage(), store=store,
                               index="shapley", previous=once.lineage())
        assert r2.stats.seeded_compiles == 1
        assert r2.stats.fresh_compiles == 0
        assert len(compiles) == 1
        _assert_bitwise(r2.values, AttributionSession(
            q_rst(), pdb.without([removed, removed_too]), EXACT).values())

    def test_island_merge_and_split_stay_bitwise_correct(self):
        store = MemoryStore()
        pdb = island_attribution_instance(3)
        view = MaintainedLineage.build(q_rst(), pdb)
        patch_attribution(q_rst(), view.lineage(), store=store,
                          index="shapley")

        bridge = fact("S", "i0l0", "i1r0")         # merges islands 0 and 1
        merged_pdb = pdb.with_endogenous([bridge])
        merged = view.apply(SnapshotDelta("insert", bridge, True))
        assert merged.matches(merged_pdb)
        r_merge = patch_attribution(q_rst(), merged.lineage(), store=store,
                                    index="shapley",
                                    previous=view.lineage())
        assert r_merge.stats.islands == 2
        _assert_bitwise(r_merge.values,
                        AttributionSession(q_rst(), merged_pdb,
                                           EXACT).values())

        split = merged.apply(SnapshotDelta("remove", bridge, True))
        r_split = patch_attribution(q_rst(), split.lineage(), store=store,
                                    index="shapley",
                                    previous=merged.lineage())
        assert r_split.stats.islands == 3
        assert r_split.stats.pairs_hits == 3       # all islands known again
        _assert_bitwise(r_split.values,
                        AttributionSession(q_rst(), pdb, EXACT).values())


# ---------------------------------------------------------------------------
# The workspace route: audit tags, fallbacks, counters
# ---------------------------------------------------------------------------

class TestWorkspaceRoutes:
    def test_refresh_reason_lifecycle(self):
        # q_hier is FP: auto runs the circuit on it too, so its in-support
        # delta is patched like q_RST's, bitwise-equal to the safe plan.
        for query, oracle in ((q_rst(), EXACT),
                              (q_hierarchical(), EngineConfig(method="safe"))):
            pdb = island_attribution_instance(2)
            ws = AttributionWorkspace(pdb, store=MemoryStore())
            ws.register("q", query)
            initial = ws.refresh()
            assert initial["q"].refresh_reason == "initial-attribution"
            assert initial["q"].maintenance == "recompute"

            ws.insert(fact("Zeta", "z"))           # outside the vocabulary
            outside = ws.refresh()
            assert outside["q"].refresh_reason == "out-of-support-reuse"
            assert outside["q"].maintenance is None
            assert not outside["q"].recomputed

            ws.remove(fact("R", "i0l0"))
            patched = ws.refresh()
            assert patched["q"].refresh_reason == "incremental-patch"
            assert patched["q"].maintenance == "incremental"
            assert patched["q"].recomputed
            assert patched["q"].patch_stats["islands"] >= 1
            _assert_bitwise(ws.values("q"),
                            AttributionSession(query, ws.pdb, oracle).values())

    def test_ineligible_backend_recomputes_conservatively(self):
        pdb = island_attribution_instance(2)
        ws = AttributionWorkspace(pdb, config=EngineConfig(method="brute"),
                                  store=MemoryStore())
        ws.register("q", q_rst())
        ws.refresh()
        ws.remove(fact("R", "i0l0"))
        refresh = ws.refresh()
        assert refresh["q"].refresh_reason == "conservative-recompute"
        assert refresh["q"].maintenance == "recompute"
        _assert_bitwise(ws.values("q"), AttributionSession(
            q_rst(), pdb.without([fact("R", "i0l0")]),
            EngineConfig(method="brute")).values())

    def test_patch_failure_falls_back_to_the_cold_oracle(self, monkeypatch):
        pdb = island_attribution_instance(2)
        ws = AttributionWorkspace(pdb, store=MemoryStore())
        ws.register("q", q_rst())
        ws.refresh()

        import repro.workspace.workspace as workspace_module

        def explode(*args, **kwargs):
            raise RuntimeError("island patcher struck by lightning")

        monkeypatch.setattr(workspace_module, "patch_attribution", explode)
        ws.remove(fact("R", "i0l0"))
        refresh = ws.refresh()
        assert refresh["q"].refresh_reason == "patch-fallback"
        assert refresh["q"].maintenance == "recompute"
        assert "RuntimeError" in refresh["q"].patch_stats["fallback"]
        _assert_bitwise(ws.values("q"), AttributionSession(
            q_rst(), pdb.without([fact("R", "i0l0")]), EXACT).values())
        stats = ws.store_stats()
        assert stats["patch_fallbacks"] == 1
        assert stats["patched"] == 0

    @pytest.mark.parametrize("make_store",
                             [MemoryStore, "disk"], ids=["memory", "disk"])
    def test_patch_counters_in_store_stats(self, make_store, tmp_path):
        store = (DiskStore(tmp_path / "artifacts") if make_store == "disk"
                 else make_store())
        pdb = island_attribution_instance(2)
        ws = AttributionWorkspace(pdb, store=store)
        ws.register("q", q_rst())
        ws.refresh()
        ws.remove(fact("R", "i0l0"))
        assert ws.refresh()["q"].refresh_reason == "incremental-patch"
        assert store.store_stats()["patched"] == 1
        assert store.store_stats()["patch_fallbacks"] == 0
        assert ws.store_stats()["patched"] == 1

    def test_workspace_rollup_covers_stores_without_patch_counters(self):
        class MinimalStore(MemoryStore):
            record_patch = None                    # not callable: not counted

            def store_stats(self):                 # the protocol's bare shape
                return dict(self.stats())

        pdb = island_attribution_instance(2)
        ws = AttributionWorkspace(pdb, store=MinimalStore())
        ws.register("q", q_rst())
        ws.refresh()
        ws.remove(fact("R", "i0l0"))
        assert ws.refresh()["q"].refresh_reason == "incremental-patch"
        stats = ws.store_stats()
        assert stats["patched"] == 1               # the workspace's own count
        assert stats["patch_fallbacks"] == 0

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @pytest.mark.parametrize("method", ["circuit", "counting"])
    @pytest.mark.parametrize("shard", ["fact", "component"])
    @given(case=delta_scripts(HOM_CLOSED))
    def test_parity_hom_closed_backends_and_shards(self, method, shard, case):
        entry, pdb, script = case
        config = EngineConfig(method=method, shard=shard)
        ws = AttributionWorkspace(pdb, config=config, store=MemoryStore())
        ws.register("q", entry.query)
        ws.refresh()
        for delta, _ in _script_deltas(pdb, script):
            if delta.op == "insert":
                ws.insert(delta.fact, exogenous=not delta.endogenous)
            elif delta.op == "remove":
                ws.remove(delta.fact)
            elif delta.op == "make_exogenous":
                ws.make_exogenous(delta.fact)
            else:
                ws.make_endogenous(delta.fact)
            ws.refresh()
        cold = AttributionSession(entry.query, ws.pdb, config).values()
        _assert_bitwise(ws.values("q"), cold)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=delta_scripts(HOM_CLOSED))
    def test_parity_with_disk_store(self, case, tmp_path_factory):
        entry, pdb, script = case
        store = DiskStore(tmp_path_factory.mktemp("artifacts"))
        ws = AttributionWorkspace(pdb, store=store)
        ws.register("q", entry.query)
        ws.refresh()
        for delta, _ in _script_deltas(pdb, script):
            if delta.op == "insert":
                ws.insert(delta.fact, exogenous=not delta.endogenous)
            elif delta.op == "remove":
                ws.remove(delta.fact)
            elif delta.op == "make_exogenous":
                ws.make_exogenous(delta.fact)
            else:
                ws.make_endogenous(delta.fact)
        ws.refresh()
        cold = AttributionSession(entry.query, ws.pdb, EXACT).values()
        _assert_bitwise(ws.values("q"), cold)


# ---------------------------------------------------------------------------
# what-if scenarios through the patcher
# ---------------------------------------------------------------------------

class TestWhatIfPatching:
    def test_insert_scenarios_patch_with_an_accurate_flag(self):
        pdb = island_attribution_instance(3)
        ws = AttributionWorkspace(pdb, store=MemoryStore())
        ws.register("q", q_rst())
        ws.refresh()
        batch = ws.what_if(["+R(i0l9)", ["+S(i0l0, i0r9)", "+T(i0r9)"]])
        assert batch.recompiled == ()
        grown = pdb.with_endogenous([fact("R", "i0l9")])
        _assert_bitwise(dict(batch[0].ranking),
                        AttributionSession(q_rst(), grown, EXACT).values())
        grown2 = pdb.with_endogenous([fact("S", "i0l0", "i0r9"),
                                      fact("T", "i0r9")])
        _assert_bitwise(dict(batch[1].ranking),
                        AttributionSession(q_rst(), grown2, EXACT).values())

    def test_what_if_after_a_patched_one_island_refresh(self):
        """The patcher's island circuit is the standing circuit of a
        one-island lineage: what-if must read it, not trip over it."""
        pdb = island_attribution_instance(1)
        ws = AttributionWorkspace(pdb, store=MemoryStore())
        ws.register("q", q_rst())
        ws.refresh()
        removed = fact("S", "i0l0", "i0r0")     # every other fact stays in a support
        ws.remove(removed)
        assert ws.refresh()["q"].refresh_reason == "incremental-patch"
        after = pdb.without([removed])
        islands = decompose_lineage(build_lineage(q_rst(), after))
        assert (islands.n_components, islands.free_variables) == (1, ())

        batch = ws.what_if(["-R(i0l1)"])
        assert batch.recompiled == ()
        fresh = AttributionWorkspace(after, store=MemoryStore())
        fresh.register("q", q_rst())
        expected = fresh.what_if(["-R(i0l1)"])
        _assert_bitwise(dict(batch[0].ranking), dict(expected[0].ranking))
        _assert_bitwise(dict(batch[0].ranking), AttributionSession(
            q_rst(), after.without([fact("R", "i0l1")]), EXACT).values())
        got, want = batch[0].probability, expected[0].probability
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert batch[0].satisfiable == expected[0].satisfiable
        assert batch.base_probability == expected.base_probability

    def test_non_hom_closed_scenarios_still_recompile(self):
        entry = NON_HOM_CLOSED[0]
        arity = max(_relation_arities(entry.query).values())
        endo = [fact(r, *["a", "b"][:a]) for r, a in
                _relation_arities(entry.query).items()]
        ws = AttributionWorkspace(PartitionedDatabase(endo, []),
                                  store=MemoryStore())
        ws.register("q", entry.query)
        ws.refresh()
        relation = sorted(_relation_arities(entry.query))[0]
        args = ["z"] * _relation_arities(entry.query)[relation]
        spec = f"+{relation}({', '.join(args)})"
        batch = ws.what_if([spec])
        assert batch.recompiled == (0,)
        assert arity >= 1                          # sanity on the template


# ---------------------------------------------------------------------------
# JSON round-trips and backwards compatibility
# ---------------------------------------------------------------------------

class TestResultsJson:
    def _refresh(self) -> WorkspaceRefresh:
        pdb = island_attribution_instance(2)
        ws = AttributionWorkspace(pdb, store=MemoryStore())
        ws.register("q", q_rst())
        ws.refresh()
        ws.remove(fact("R", "i0l0"))
        return ws.refresh()

    def test_workspace_refresh_round_trips(self):
        refresh = self._refresh()
        loaded = WorkspaceRefresh.from_json(refresh.to_json())
        delta, original = loaded["q"], refresh["q"]
        assert delta.refresh_reason == "incremental-patch"
        assert delta.maintenance == "incremental"
        assert delta.patch_stats == original.patch_stats
        assert delta.ranking == original.ranking
        assert delta.changed_values == original.changed_values
        assert loaded.applied == refresh.applied

    def test_old_payloads_load_with_null_maintenance_fields(self):
        refresh = self._refresh()
        payload = json.loads(refresh.to_json())
        for entry in payload["deltas"]:            # a pre-incremental payload
            for field in ("maintenance", "refresh_reason", "patch_stats"):
                del entry[field]
        loaded = WorkspaceRefresh.from_json_dict(payload)
        delta = loaded["q"]
        assert delta.maintenance is None
        assert delta.refresh_reason is None
        assert delta.patch_stats is None
        assert delta.ranking == refresh["q"].ranking

    def test_attribution_delta_defaults_stay_optional(self):
        delta = AttributionDelta(name="q", query="q()", backend="circuit",
                                 recomputed=False, reason="r", ranking=(),
                                 changed_values=(), rank_moves=(),
                                 new_null_players=frozenset(),
                                 dropped_null_players=frozenset())
        assert delta.maintenance is None
        assert delta.refresh_reason is None
        assert delta.patch_stats is None
        payload = delta.to_json_dict()
        assert payload["maintenance"] is None
        restored = AttributionDelta.from_json_dict(payload)
        assert restored.changed_values == ()
        assert restored.rank_moves == ()


# ---------------------------------------------------------------------------
# Store entries written by older layouts
# ---------------------------------------------------------------------------

class TestOlderStoreEntries:
    def test_bare_compiled_dnf_under_circuit_key_reads_as_a_miss(self):
        """Older patchers stored bare ``CompiledDNF``s under ``circuit_key``."""
        from repro.compile import compile_dnf
        from repro.engine import clear_engine_cache
        from repro.probability import probability_of_query
        from repro.probability.tid import TupleIndependentDatabase
        from repro.workspace import circuit_key

        pdb = island_attribution_instance(1)     # one island, no free facts
        lineage = build_lineage(q_rst(), pdb)
        store = MemoryStore()
        store.put(circuit_key(q_rst(), lineage), compile_dnf(lineage.dnf))
        clear_engine_cache()
        values = AttributionSession(q_rst(), pdb, EXACT, store=store).values()
        _assert_bitwise(values, AttributionSession(q_rst(), pdb, EXACT).values())

        store.put(circuit_key(q_rst(), lineage), compile_dnf(lineage.dnf))
        tid = TupleIndependentDatabase({f: Fraction(1, 2) for f in pdb.endogenous})
        assert probability_of_query(q_rst(), tid, "circuit", store=store) == \
            probability_of_query(q_rst(), tid, "circuit")

        store.put(circuit_key(q_rst(), lineage), compile_dnf(lineage.dnf))
        ws = AttributionWorkspace(pdb, store=store)
        ws.register("q", q_rst())
        batch = ws.what_if(["-R(i0l0)"])
        _assert_bitwise(dict(batch[0].ranking), AttributionSession(
            q_rst(), pdb.without([fact("R", "i0l0")]), EXACT).values())

    def test_island_pairs_pickled_at_the_old_module_path_still_hit(self):
        import pickle

        from repro.engine.sharding import IslandPairs
        from repro.workspace import pairs_key

        pdb = island_attribution_instance(2)
        lineage = build_lineage(q_rst(), pdb)
        warm = MemoryStore()
        cold = patch_attribution(q_rst(), lineage, store=warm, index="shapley")
        store = MemoryStore()
        for sub in decompose_lineage(lineage).components:
            key = pairs_key(q_rst(), sub.to_lineage(lineage.variables))
            record = warm.get(key)
            # The older layout: no compile_time_s / fallback fields, and the
            # class living in repro.incremental.patch.
            object.__delattr__(record, "compile_time_s")
            object.__delattr__(record, "fallback")
            blob = pickle.dumps(record, protocol=0).replace(
                b"repro.engine.sharding", b"repro.incremental.patch")
            assert b"repro.incremental.patch" in blob
            old = pickle.loads(blob)
            assert isinstance(old, IslandPairs)
            assert (old.compile_time_s, old.fallback) == (None, None)
            store.put(key, old)
        patched = patch_attribution(q_rst(), lineage, store=store, index="shapley")
        assert patched.stats.pairs_hits == 2
        _assert_bitwise(patched.values, cold.values)
