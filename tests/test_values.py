"""Tests for the pluggable value-index layer and the one-circuit economy.

The acceptance contract of the refactor:

* **parity** — every index (shapley / banzhaf / responsibility) is exact and
  bitwise-identical across the brute / counting / circuit / safe backends and
  both shard axes, because every backend reduces to the same conditioned
  vector pairs and the index is applied exactly once at the end;
* **identities** — Banzhaf satisfies the total-value identity against plain
  generalized model counts; Shapley and Banzhaf match their per-coalition
  semivalue definitions; responsibility is not a semivalue and says so;
* **null players** — a fact has value zero under one index iff under all
  (the conditioned pair is flat), so ``null_players()`` is index-independent;
* **compatibility** — pre-index JSON payloads load as ``index="shapley"``
  and serve request keys never coalesce across indices;
* **amortisation** — one compiled circuit, fetched from one shared store,
  serves Shapley, Banzhaf, responsibility, a circuit-backed PQE and a
  what-if batch with zero recompiles.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from fractions import Fraction

import pytest

from repro.api import AttributionReport, AttributionSession, EngineConfig
from repro.counting import build_lineage, generalized_model_count
from repro.data import PartitionedDatabase, fact
from repro.engine import clear_engine_cache
from repro.errors import ConfigError, IntractableQueryError
from repro.experiments import q_hierarchical, q_negation_hard, q_rst
from repro.experiments.batch_engine import bipartite_attribution_instance
from repro.probability import (
    TupleIndependentDatabase,
    probability_of_query,
    sppqe,
    uniform_probability,
)
from repro.serve import AttributionService, request_key
from repro.serve.http import AttributionHTTPServer
from repro.values import (
    BANZHAF,
    INDICES,
    RESPONSIBILITY,
    SHAPLEY,
    ValueIndex,
    get_index,
)
from repro.workspace import AttributionWorkspace, MemoryStore


@pytest.fixture(autouse=True)
def _fresh_engine_cache():
    clear_engine_cache()
    yield
    clear_engine_cache()


def _rst_triangle() -> PartitionedDatabase:
    """Three endogenous S facts under q_RST, asymmetric exogenous support."""
    return PartitionedDatabase(
        endogenous={fact("S", "a", "b"), fact("S", "a", "c"),
                    fact("S", "b", "c")},
        exogenous={fact("R", "a"), fact("R", "b"),
                   fact("T", "b"), fact("T", "c")})


def _negation_square() -> PartitionedDatabase:
    """q_negation_hard players: S facts and one N fact that blocks a support."""
    return PartitionedDatabase(
        endogenous={fact("S", "a", "c"), fact("S", "b", "c"),
                    fact("S", "a", "d"), fact("N", "a", "c"), fact("T", "d")},
        exogenous={fact("R", "a"), fact("R", "b"), fact("T", "c")})


def _values(query, pdb, **config) -> dict:
    config.setdefault("on_hard", "exact")
    return AttributionSession(query, pdb, EngineConfig(**config)).values()


# ---------------------------------------------------------------------------
# The index definitions themselves
# ---------------------------------------------------------------------------


class TestIndexRegistry:
    def test_get_index_resolves_names_and_is_idempotent_on_instances(self):
        assert get_index("shapley") is SHAPLEY
        assert get_index("banzhaf") is BANZHAF
        assert get_index("responsibility") is RESPONSIBILITY
        for index in (SHAPLEY, BANZHAF, RESPONSIBILITY):
            assert get_index(index) is index
        assert tuple(get_index(name).name for name in INDICES) == INDICES

    def test_unknown_index_is_a_config_error(self):
        with pytest.raises(ConfigError):
            get_index("borda")
        with pytest.raises(ConfigError):
            EngineConfig(index="borda")

    def test_responsibility_is_not_a_semivalue(self):
        assert not RESPONSIBILITY.is_semivalue
        with pytest.raises(NotImplementedError):
            RESPONSIBILITY.subset_weight(0, 3)
        with pytest.raises(NotImplementedError):
            ValueIndex().subset_weight(0, 3)

    def test_sampled_method_is_shapley_only(self):
        with pytest.raises(ConfigError):
            EngineConfig(method="sampled", index="banzhaf")
        with pytest.raises(ConfigError):
            EngineConfig(method="sampled", index="responsibility")
        EngineConfig(method="sampled", index="shapley")  # fine

    def test_auto_dispatch_refuses_to_sample_a_non_shapley_index(self):
        big = bipartite_attribution_instance(3, 3)   # |Dn| = 9
        config = EngineConfig(on_hard="sample", exact_size_limit=4,
                              index="banzhaf", n_samples=20)
        with pytest.raises(IntractableQueryError):
            AttributionSession(q_rst(), big, config).values()


class TestSemivalueDefinitions:
    """Shapley and Banzhaf against their per-coalition textbook sums."""

    def _semivalue_reference(self, query, pdb, index) -> dict:
        endogenous = sorted(pdb.endogenous)
        n = len(endogenous)
        reference = {}
        for mu in endogenous:
            others = [f for f in endogenous if f != mu]
            total = Fraction(0)
            for size in range(n):
                weight = index.subset_weight(size, n)
                for subset in itertools.combinations(others, size):
                    base = frozenset(subset) | pdb.exogenous
                    # Signed: on a non-monotone query adding μ can falsify.
                    swing = (int(query.evaluate(base | {mu}))
                             - int(query.evaluate(base)))
                    total += weight * swing
            reference[mu] = total
        return reference

    @pytest.mark.parametrize("index_name", ["shapley", "banzhaf"])
    def test_pair_combination_matches_the_per_coalition_sum(self, index_name):
        index = get_index(index_name)
        # The CQ¬ input keeps the brute kernel checked against a reference
        # outside the engine: serial and pooled brute share one kernel.
        for query, pdb in ((q_rst(), _rst_triangle()),
                           (q_negation_hard(), _negation_square())):
            expected = self._semivalue_reference(query, pdb, index)
            assert _values(query, pdb, method="brute", index=index_name) == expected
        assert min(expected.values()) < 0  # the negated N fact hurts

    def test_shapley_index_is_bitwise_identical_to_the_legacy_combiner(self):
        from repro.engine.backends import combine_fgmc_vectors

        with_vec, without_vec = [0, 2, 1], [0, 1, 1]
        assert (SHAPLEY.combine(with_vec, without_vec, 3)
                == combine_fgmc_vectors(with_vec, without_vec, 3))

    def test_responsibility_hand_checked(self):
        # S(a, b) alone satisfies q_RST: it is counterfactual outright.
        lone = PartitionedDatabase(
            endogenous={fact("S", "a", "b")},
            exogenous={fact("R", "a"), fact("T", "b")})
        assert _values(q_rst(), lone, method="brute",
                       index="responsibility") == {
            fact("S", "a", "b"): Fraction(1)}
        # Two interchangeable witnesses: each needs the other removed first,
        # so each has a minimum contingency set of size 1 → 1/(1+1).
        pair = PartitionedDatabase(
            endogenous={fact("S", "a", "b"), fact("S", "a", "c")},
            exogenous={fact("R", "a"), fact("T", "b"), fact("T", "c")})
        assert _values(q_rst(), pair, method="brute",
                       index="responsibility") == {
            fact("S", "a", "b"): Fraction(1, 2),
            fact("S", "a", "c"): Fraction(1, 2)}


class TestBanzhafTotalValueIdentity:
    def test_banzhaf_equals_gmc_difference(self):
        query, pdb = q_rst(), _rst_triangle()
        n = len(pdb.endogenous)
        computed = _values(query, pdb, method="counting", index="banzhaf")
        for mu in pdb.endogenous:
            rest = pdb.endogenous - {mu}
            with_mu = generalized_model_count(
                query, PartitionedDatabase(rest, pdb.exogenous | {mu}))
            without_mu = generalized_model_count(
                query, PartitionedDatabase(rest, pdb.exogenous))
            assert computed[mu] == Fraction(with_mu - without_mu, 2 ** (n - 1))


# ---------------------------------------------------------------------------
# Cross-backend, cross-shard parity
# ---------------------------------------------------------------------------


class TestIndexParityAcrossBackends:
    """Every index × every admissible backend × both shard axes: one answer."""

    CASES = [
        ("rst-triangle", q_rst, _rst_triangle,
         ("brute", "counting", "circuit")),
        ("rst-bipartite", q_rst,
         lambda: bipartite_attribution_instance(2, 3),
         ("brute", "counting", "circuit")),
        ("hierarchical", q_hierarchical,
         lambda: bipartite_attribution_instance(2, 3),
         ("brute", "counting", "circuit", "safe")),
        # Not hom-closed: an explicit counting request runs the brute table.
        ("negation-hard", q_negation_hard, _negation_square,
         ("brute", "counting")),
    ]

    @pytest.mark.parametrize("index_name", INDICES)
    @pytest.mark.parametrize("name,make_query,make_pdb,methods",
                             CASES, ids=[c[0] for c in CASES])
    def test_every_backend_and_shard_agrees(self, index_name, name,
                                            make_query, make_pdb, methods):
        query, pdb = make_query(), make_pdb()
        reference = _values(query, pdb, method="brute", index=index_name)
        assert set(reference) == set(pdb.endogenous)
        for method in methods:
            for shard in ("fact", "component"):
                got = _values(query, pdb, method=method, index=index_name,
                              shard=shard)
                assert got == reference, (method, shard)

    @pytest.mark.parametrize("index_name", INDICES)
    def test_parallel_workers_preserve_every_index(self, index_name):
        query, pdb = q_rst(), bipartite_attribution_instance(2, 3)
        reference = _values(query, pdb, method="brute", index=index_name)
        for method in ("brute", "counting", "circuit"):
            got = _values(query, pdb, method=method, index=index_name,
                          workers=2, parallel_threshold=1)
            assert got == reference, method


class TestNullPlayerConsistency:
    def test_a_fact_is_a_null_player_under_one_index_iff_under_all(self):
        # S(b, a) can never participate in a support: T(a) is absent.
        pdb = PartitionedDatabase(
            endogenous={fact("S", "a", "b"), fact("S", "b", "a")},
            exogenous={fact("R", "a"), fact("R", "b"), fact("T", "b")})
        query = q_rst()
        by_index = {name: _values(query, pdb, method="brute", index=name)
                    for name in INDICES}
        null_fact, live_fact = fact("S", "b", "a"), fact("S", "a", "b")
        for name, values in by_index.items():
            assert values[null_fact] == 0, name
            assert values[live_fact] != 0, name
        # null_players() agrees regardless of the configured index.
        for name in INDICES:
            session = AttributionSession(
                query, pdb, EngineConfig(on_hard="exact", index=name))
            assert session.null_players() == frozenset({null_fact})


# ---------------------------------------------------------------------------
# Reports, configs, request keys: the compatibility surface
# ---------------------------------------------------------------------------


class TestReportCompatibility:
    def test_pre_index_payloads_load_as_shapley(self):
        report = AttributionSession(q_rst(), _rst_triangle(),
                                    EngineConfig(on_hard="exact")).report()
        payload = report.to_json_dict()
        del payload["config"]["index"]          # a pre-index (PR 7) payload
        loaded = AttributionReport.from_json_dict(payload)
        assert loaded.index == "shapley"
        assert loaded.values == report.values

    @pytest.mark.parametrize("index_name", INDICES)
    def test_round_trip_preserves_the_index(self, index_name):
        report = AttributionSession(
            q_rst(), _rst_triangle(),
            EngineConfig(on_hard="exact", index=index_name)).report()
        assert report.index == index_name
        loaded = AttributionReport.from_json(report.to_json())
        assert loaded.index == index_name
        assert loaded.values == report.values
        assert loaded == report

    def test_efficiency_axiom_is_checked_for_shapley_only(self):
        pdb = _rst_triangle()
        shapley = AttributionSession(q_rst(), pdb,
                                     EngineConfig(on_hard="exact")).report()
        assert shapley.efficiency is not None and shapley.efficiency.ok
        for name in ("banzhaf", "responsibility"):
            report = AttributionSession(
                q_rst(), pdb, EngineConfig(on_hard="exact",
                                           index=name)).report()
            assert report.efficiency is None, name

    def test_request_keys_never_coalesce_across_indices(self):
        pdb = _rst_triangle()
        keys = {request_key("acme", q_rst(), pdb, "pooled", index): index
                for index in INDICES}
        assert len(keys) == len(INDICES)
        # The default key is the shapley key: pre-index callers coalesce
        # exactly with explicit-shapley callers.
        assert (request_key("acme", q_rst(), pdb, "pooled")
                == request_key("acme", q_rst(), pdb, "pooled", "shapley"))


class TestUniformProbabilityDedup:
    def test_one_entry_point_covers_lineages_dnfs_and_circuits(self):
        from repro.compile import compile_lineage

        query, pdb = q_rst(), _rst_triangle()
        lineage = build_lineage(query, pdb)
        compiled = compile_lineage(lineage)
        for p in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            reference = uniform_probability(lineage, p)
            assert uniform_probability(compiled, p) == reference
            assert uniform_probability(compiled.compiled, p) == reference
            assert uniform_probability(lineage.dnf, p) == reference
            assert lineage.uniform_probability(p) == reference
            assert sppqe(query, pdb, p) == reference

    def test_non_countable_inputs_are_refused(self):
        with pytest.raises(TypeError):
            uniform_probability(object(), Fraction(1, 2))


# ---------------------------------------------------------------------------
# Probability workloads through the compiled artefact
# ---------------------------------------------------------------------------


class TestCircuitBackedPQE:
    def test_circuit_method_matches_brute_and_lineage(self):
        query, pdb = q_rst(), _rst_triangle()
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)):
            tid = TupleIndependentDatabase.from_partitioned(
                pdb, endogenous_probability=p)
            circuit = probability_of_query(query, tid, method="circuit")
            assert circuit == probability_of_query(query, tid, method="brute")
            assert circuit == probability_of_query(query, tid,
                                                   method="lineage")

    def test_circuit_method_matches_lifted_on_a_safe_query(self):
        query = q_hierarchical()
        pdb = bipartite_attribution_instance(2, 2)
        tid = TupleIndependentDatabase.from_partitioned(
            pdb, endogenous_probability=Fraction(1, 3))
        assert (probability_of_query(query, tid, method="circuit")
                == probability_of_query(query, tid, method="lifted"))

    def test_non_uniform_weights_flow_through_the_sweep(self):
        query, pdb = q_rst(), _rst_triangle()
        probabilities = {}
        for i, f in enumerate(sorted(pdb.endogenous)):
            probabilities[f] = Fraction(i + 1, 5)
        tid = TupleIndependentDatabase(
            {**probabilities, **{f: Fraction(1) for f in pdb.exogenous}})
        assert (probability_of_query(query, tid, method="circuit")
                == probability_of_query(query, tid, method="brute"))

    def test_sppqe_circuit_reuses_the_store(self):
        query, pdb = q_rst(), _rst_triangle()
        store = MemoryStore()
        first = sppqe(query, pdb, Fraction(1, 2), method="circuit",
                      store=store)
        after_first = store.stats()
        assert after_first["stores"] >= 2          # lineage + circuit
        second = sppqe(query, pdb, Fraction(1, 3), method="circuit",
                       store=store)
        after_second = store.stats()
        assert after_second["stores"] == after_first["stores"]
        assert after_second["hits"] >= after_first["hits"] + 2
        assert first == sppqe(query, pdb, Fraction(1, 2))
        assert second == sppqe(query, pdb, Fraction(1, 3))


# ---------------------------------------------------------------------------
# What-if batches
# ---------------------------------------------------------------------------


class TestWhatIf:
    def _workspace(self, store=None, **config):
        pdb = _rst_triangle()
        ws = AttributionWorkspace(
            pdb, config=EngineConfig(method="circuit", shard="fact",
                                     on_hard="exact", **config),
            store=store if store is not None else MemoryStore())
        ws.register("standing", q_rst())
        ws.refresh()
        return ws, pdb

    def test_conditioned_scenarios_match_fresh_sessions_exactly(self):
        ws, pdb = self._workspace()
        batch = ws.what_if(["-S(a, b)", [">S(a, b)", "-S(b, c)"]])
        assert batch.recompiled == ()              # no fresh compilations
        hypotheticals = [
            PartitionedDatabase(pdb.endogenous - {fact("S", "a", "b")},
                                pdb.exogenous),
            PartitionedDatabase(
                pdb.endogenous - {fact("S", "a", "b"), fact("S", "b", "c")},
                pdb.exogenous | {fact("S", "a", "b")}),
        ]
        for result, hypothetical in zip(batch, hypotheticals):
            reference = AttributionSession(
                q_rst(), hypothetical,
                EngineConfig(on_hard="exact")).values()
            assert result.values == reference
            assert result.probability == sppqe(q_rst(), hypothetical,
                                               Fraction(1, 2))
        assert batch.base_probability == sppqe(q_rst(), pdb, Fraction(1, 2))

    def test_insert_scenarios_patch_incrementally(self):
        # Inserts used to force a fresh session per scenario; with the
        # maintained-lineage patcher they re-price only the islands the new
        # fact reaches, so the recompiled flag stays down — and the values
        # still match a fresh exact session bitwise.
        ws, pdb = self._workspace()
        batch = ws.what_if(["+S(b, b)"])
        assert batch.recompiled == ()
        hypothetical = PartitionedDatabase(
            pdb.endogenous | {fact("S", "b", "b")}, pdb.exogenous)
        assert batch[0].values == AttributionSession(
            q_rst(), hypothetical, EngineConfig(on_hard="exact")).values()

    @pytest.mark.parametrize("index_name", INDICES)
    def test_index_override_applies_to_every_scenario(self, index_name):
        # A one-node budget leaves no standing circuit: the scenarios then
        # condition the standing lineage instead.
        for config in ({}, {"circuit_node_budget": 1}):
            ws, pdb = self._workspace(**config)
            batch = ws.what_if(["-S(a, b)"], index=index_name)
            assert batch.recompiled == ()
            assert batch.index == index_name
            assert batch[0].index == index_name
            hypothetical = PartitionedDatabase(
                pdb.endogenous - {fact("S", "a", "b")}, pdb.exogenous)
            assert batch[0].values == AttributionSession(
                q_rst(), hypothetical,
                EngineConfig(on_hard="exact", index=index_name)).values()

    def test_the_snapshot_is_never_modified(self):
        ws, pdb = self._workspace()
        ws.what_if(["-S(a, b)", "+S(b, b)"])
        assert ws.pdb.endogenous == pdb.endogenous
        assert ws.pdb.exogenous == pdb.exogenous

    def test_batches_render_to_json(self):
        ws, _ = self._workspace()
        payload = json.loads(ws.what_if(["-S(a, b)"]).to_json())
        assert payload["index"] == "shapley"
        assert payload["results"][0]["scenario"] == ["-S(a, b)"]
        assert payload["results"][0]["recompiled"] is False

    def test_multi_island_batches_match_fresh_sessions_exactly(self):
        # Two variable-disjoint R/S/T blocks: the lineage splits into
        # islands, so the conditioning plan resweeps only the touched
        # factor per scenario — the results must not notice.
        endogenous = set()
        for block in ("u", "w"):
            endogenous |= {fact("R", f"{block}1"),
                           fact("S", f"{block}1", f"{block}2"),
                           fact("S", f"{block}1", f"{block}3"),
                           fact("T", f"{block}2"), fact("T", f"{block}3")}
        pdb = PartitionedDatabase(frozenset(endogenous), ())
        ws = AttributionWorkspace(
            pdb, config=EngineConfig(method="circuit", shard="fact",
                                     on_hard="exact"),
            store=MemoryStore())
        ws.register("standing", q_rst())
        ws.refresh()
        scenarios = ["-S(u1, u2)", ">T(w2)", ["-R(u1)", "-T(w3)"]]
        batch = ws.what_if(scenarios)
        assert batch.recompiled == ()
        deltas = [
            ({fact("S", "u1", "u2")}, set()),
            (set(), {fact("T", "w2")}),
            ({fact("R", "u1"), fact("T", "w3")}, set()),
        ]
        for result, (removed, moved) in zip(batch, deltas):
            hypothetical = PartitionedDatabase(
                pdb.endogenous - removed - moved, pdb.exogenous | moved)
            assert result.values == AttributionSession(
                q_rst(), hypothetical, EngineConfig(on_hard="exact")).values()
            assert result.probability == sppqe(q_rst(), hypothetical,
                                               Fraction(1, 2))
            assert result.satisfiable


# ---------------------------------------------------------------------------
# The serve surface
# ---------------------------------------------------------------------------


class TestServeIndices:
    def test_attribute_index_override_and_what_if_endpoint(self):
        pdb = _rst_triangle()

        async def main():
            with AttributionService() as service:
                service.register_tenant("acme", pdb)
                shapley = await service.attribute("acme", q_rst())
                banzhaf = await service.attribute("acme", q_rst(),
                                                  index="banzhaf")
                with pytest.raises(ConfigError):
                    await service.attribute("acme", q_rst(), index="borda")
                batch = await service.what_if(
                    "acme", ["-S(a, b)"], query=q_rst(),
                    index="responsibility")
                return shapley, banzhaf, batch

        shapley, banzhaf, batch = asyncio.run(main())
        assert shapley.report.index == "shapley"
        assert banzhaf.report.index == "banzhaf"
        assert shapley.report.values != banzhaf.report.values
        assert not banzhaf.coalesced        # distinct request keys
        assert batch.index == "responsibility"
        assert batch.recompiled == ()

    def test_http_what_if_route(self):
        from tests.test_serve import _call

        pdb = _rst_triangle()

        async def main():
            service = AttributionService()
            server = await AttributionHTTPServer(service, port=0).start()
            try:
                service.register_tenant("acme", pdb)
                ok = await _call(
                    server.port, "POST", "/v1/what-if",
                    {"tenant": "acme", "query": "R(x), S(x, y)",
                     "scenarios": ["-S(a, b)", [">S(a, b)", "-S(b, c)"]],
                     "index": "banzhaf", "probability": "1/3"})
                missing = await _call(server.port, "POST", "/v1/what-if",
                                      {"tenant": "acme"})
                wrong_method = await _call(server.port, "GET", "/v1/what-if")
                return ok, missing, wrong_method
            finally:
                await server.stop()
                service.close()

        (ok_status, body), (missing_status, _), (wrong_status, _) = (
            asyncio.run(main()))
        assert ok_status == 200
        assert body["tenant"] == "acme"
        assert body["index"] == "banzhaf"
        assert [r["scenario"] for r in body["results"]] == [
            ["-S(a, b)"], [">S(a, b)", "-S(b, c)"]]
        assert missing_status == 400
        assert wrong_status == 405


# ---------------------------------------------------------------------------
# The headline acceptance: one circuit, many indices
# ---------------------------------------------------------------------------


class _RecordingStore(MemoryStore):
    """A MemoryStore that records per-kind get() traffic."""

    def __init__(self):
        super().__init__()
        self.gets: list[tuple[str, bool]] = []

    def get(self, key):
        artifact = super().get(key)
        self.gets.append((key.kind, artifact is not None))
        return artifact

    def kind_counts(self, kind: str) -> tuple[int, int]:
        hits = sum(1 for k, hit in self.gets if k == kind and hit)
        misses = sum(1 for k, hit in self.gets if k == kind and not hit)
        return hits, misses


class TestOneCircuitManyIndices:
    def test_five_workloads_one_compilation(self):
        """Shapley + Banzhaf + responsibility + PQE + what-if, zero recompiles."""
        query, pdb = q_rst(), _rst_triangle()
        store = _RecordingStore()
        p = Fraction(1, 2)

        def config(index="shapley"):
            return EngineConfig(method="circuit", shard="fact",
                                on_hard="exact", index=index)

        # Workload 1 (cold): Shapley. The only circuit compilation.
        shapley = AttributionSession(query, pdb, config(),
                                     store=store).values()
        hits, misses = store.kind_counts("circuit")
        assert (hits, misses) == (0, 1)

        # Workloads 2–3: other indices, same engine artefacts.
        banzhaf = AttributionSession(query, pdb, config("banzhaf"),
                                     store=store).values()
        responsibility = AttributionSession(
            query, pdb, config("responsibility"), store=store).values()

        # Workload 4: circuit-backed PQE off the same store.
        probability = sppqe(query, pdb, p, method="circuit", store=store)

        # Workload 5: a what-if batch conditioning the standing circuit.
        ws = AttributionWorkspace(pdb, config=config(), store=store)
        ws.register("standing", query)
        ws.refresh()
        batch = ws.what_if(["-S(a, b)", ">S(a, b)"], probability=p)
        assert batch.recompiled == ()

        hits, misses = store.kind_counts("circuit")
        assert misses == 1, "the circuit must be compiled exactly once"
        assert hits >= 4, "every later workload must fetch, not recompile"

        # Exact parity against independent per-workload references that never
        # saw the shared store.
        for index_name, computed in (("shapley", shapley),
                                     ("banzhaf", banzhaf),
                                     ("responsibility", responsibility)):
            reference = _values(query, pdb, method="brute", index=index_name)
            assert computed == reference, index_name
        assert probability == sppqe(query, pdb, p, method="brute")
        removed = PartitionedDatabase(
            pdb.endogenous - {fact("S", "a", "b")}, pdb.exogenous)
        assert batch[0].values == _values(query, removed, method="brute")
        assert batch[0].probability == sppqe(query, removed, p,
                                             method="brute")
