"""Tests for ``repro.serve``: coalescing, admission, deadlines, tenancy, HTTP.

The acceptance contract exercised here:

* **coalescing** — N concurrent identical requests trigger exactly ONE engine
  compile (witnessed by ``engine_cache_stats()`` and the shared store's
  counters) and every response carries the *same* ``AttributionReport``
  (bitwise-identical values);
* **admission** — Figure 1b verdicts and the worst-case circuit estimate map
  to the fast / pooled / degraded / rejected lanes; a budget-busting request
  is refused with a structured 503 while concurrent easy requests complete;
* **deadlines** — a request whose deadline passes while queued never occupies
  a pool slot (the pool is freed for live work), and an in-flight client is
  released at its deadline;
* **tenancy** — per-tenant workspace deltas never leak across tenants, while
  the shared content-addressed store lets tenant B reuse the artifacts tenant
  A's identical query compiled, without recompiling;
* **HTTP** — the stdlib server boots in-process and serves concurrent
  requests from two tenants end to end, with typed error payloads.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time

import pytest

from repro.api import AttributionReport, EngineConfig
from repro.data import fact
from repro.engine import clear_engine_cache, engine_cache_stats, get_engine
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    ServiceError,
    ServiceOverloadError,
    UnknownTenantError,
)
from repro.experiments import q_hierarchical, q_rst
from repro.experiments.batch_engine import bipartite_attribution_instance
from repro.serve import (
    AdmissionPolicy,
    AttributionHTTPServer,
    AttributionService,
    ServiceMetrics,
    admit,
    apply_delta_spec,
    estimate_circuit_nodes,
    request_key,
)
from repro.workspace import AttributionWorkspace, MemoryStore


@pytest.fixture(autouse=True)
def _fresh_engine_cache():
    clear_engine_cache()
    yield
    clear_engine_cache()


# ---------------------------------------------------------------------------
# Admission control (pure classification)
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_fp_query_takes_the_fast_lane_regardless_of_size(self):
        decision = admit(q_hierarchical(), 10_000, AdmissionPolicy())
        assert decision.lane == "fast"
        assert decision.verdict.complexity.value == "FP"

    def test_small_hard_instance_is_pooled(self):
        decision = admit(q_rst(), 10, AdmissionPolicy(exact_size_limit=16))
        assert decision.lane == "pooled"
        assert "exact_size_limit" in decision.reason

    def test_circuit_budget_extends_the_pooled_lane(self):
        policy = AdmissionPolicy(exact_size_limit=4,
                                 circuit_node_budget=2 ** 11)
        decision = admit(q_rst(), 10, policy)  # 2^11 - 1 nodes fits
        assert decision.lane == "pooled"
        assert "circuit_node_budget" in decision.reason

    def test_over_budget_degrades_when_the_client_allows(self):
        policy = AdmissionPolicy(exact_size_limit=4, circuit_node_budget=31)
        decision = admit(q_rst(), 50, policy)
        assert decision.lane == "degraded"

    def test_over_budget_is_rejected_when_exactness_is_required(self):
        policy = AdmissionPolicy(exact_size_limit=4, circuit_node_budget=31)
        decision = admit(q_rst(), 50, policy, allow_degraded=False)
        assert decision.lane == "rejected"
        payload = decision.to_json_dict()
        assert payload["lane"] == "rejected"
        assert payload["verdict"]["complexity"] == "#P-hard"

    def test_estimate_is_exact_small_and_capped_large(self):
        assert estimate_circuit_nodes(0) == 1
        assert estimate_circuit_nodes(4) == 31
        assert estimate_circuit_nodes(10_000) == estimate_circuit_nodes(61)

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            AdmissionPolicy(max_inflight=0)
        with pytest.raises(ConfigError):
            AdmissionPolicy(default_deadline_s=0)
        with pytest.raises(ConfigError):
            AdmissionPolicy(exact_size_limit=-1)


# ---------------------------------------------------------------------------
# Request coalescing
# ---------------------------------------------------------------------------


class TestCoalescing:
    def test_concurrent_identical_requests_compile_once(self):
        store = MemoryStore()
        pdb = bipartite_attribution_instance(3, 3)

        async def main():
            with AttributionService(store=store) as service:
                service.register_tenant("acme", pdb)
                return await asyncio.gather(
                    *[service.attribute("acme", q_rst()) for _ in range(8)])

        served = asyncio.run(main())
        # Exactly one engine compile for 8 concurrent identical requests ...
        stats = engine_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 0
        # ... exactly one computed the rest coalesced onto it ...
        assert sum(not s.coalesced for s in served) == 1
        assert sum(s.coalesced for s in served) == 7
        # ... and every response carries the SAME report object, hence
        # bitwise-identical values.
        assert all(s.report is served[0].report for s in served)
        assert len({s.request_key for s in served}) == 1
        # The store saw exactly ONE computation's artifacts flow through
        # (lineage + per-island circuits), not eight computations' worth.
        from repro.api import AttributionSession

        baseline_store = MemoryStore()
        clear_engine_cache()
        AttributionSession(q_rst(), pdb, EngineConfig(on_hard="exact"),
                           store=baseline_store).report()
        assert store.stats()["stores"] == baseline_store.stats()["stores"]

    def test_sequential_requests_do_not_coalesce_but_hit_the_engine_cache(self):
        pdb = bipartite_attribution_instance(2, 2)

        async def main():
            with AttributionService() as service:
                service.register_tenant("acme", pdb)
                first = await service.attribute("acme", q_rst())
                second = await service.attribute("acme", q_rst())
                return first, second

        first, second = asyncio.run(main())
        assert not first.coalesced and not second.coalesced
        assert engine_cache_stats()["hits"] >= 1
        assert first.report.ranking == second.report.ranking

    def test_coalescing_key_separates_tenants_queries_and_snapshots(self):
        pdb_a = bipartite_attribution_instance(2, 2)
        pdb_b = bipartite_attribution_instance(3, 2)
        assert (request_key("a", q_rst(), pdb_a, "pooled")
                == request_key("a", q_rst(), pdb_a, "pooled"))
        assert (request_key("a", q_rst(), pdb_a, "pooled")
                != request_key("b", q_rst(), pdb_a, "pooled"))
        assert (request_key("a", q_rst(), pdb_a, "pooled")
                != request_key("a", q_hierarchical(), pdb_a, "pooled"))
        assert (request_key("a", q_rst(), pdb_a, "pooled")
                != request_key("a", q_rst(), pdb_b, "pooled"))

    def test_disabled_coalescing_computes_every_request(self):
        pdb = bipartite_attribution_instance(2, 2)

        async def main():
            with AttributionService() as service:
                service.set_coalescing(False)
                service.register_tenant("acme", pdb)
                return await asyncio.gather(
                    *[service.attribute("acme", q_rst()) for _ in range(4)])

        served = asyncio.run(main())
        assert all(not s.coalesced for s in served)


# ---------------------------------------------------------------------------
# Lane routing through a live service
# ---------------------------------------------------------------------------


class TestLaneRouting:
    def test_verdicts_route_to_their_lanes(self):
        policy = AdmissionPolicy(exact_size_limit=4, circuit_node_budget=31)
        config = EngineConfig(n_samples=40, seed=7)
        small = bipartite_attribution_instance(2, 2)   # |Dn| = 4
        big = bipartite_attribution_instance(3, 3)     # |Dn| = 9 busts both

        async def main():
            with AttributionService(config=config, policy=policy) as service:
                service.register_tenant("acme", small)
                service.register_tenant("big", big)
                fast = await service.attribute("acme", q_hierarchical())
                pooled = await service.attribute("acme", q_rst())
                degraded = await service.attribute("big", q_rst())
                with pytest.raises(ServiceOverloadError) as exc_info:
                    await service.attribute("big", q_rst(),
                                            allow_degraded=False)
                return fast, pooled, degraded, exc_info.value, service.stats()

        fast, pooled, degraded, rejection, stats = asyncio.run(main())
        assert fast.lane == "fast" and fast.report.exact
        assert pooled.lane == "pooled" and pooled.report.exact
        assert degraded.lane == "degraded"
        assert degraded.report.backend == "sampled"
        assert not degraded.report.exact
        # The 503 is structured: machine-readable reason, verdict, status.
        assert rejection.http_status == 503
        assert rejection.reason == "budget"
        payload = rejection.to_json_dict()
        assert payload["error"] == "ServiceOverloadError"
        assert payload["verdict"]["complexity"] == "#P-hard"
        assert stats["service"]["by_lane"] == {"fast": 1, "pooled": 1,
                                               "degraded": 1}
        assert stats["service"]["rejected_budget"] == 1

    def test_capacity_rejection_when_the_queue_is_full(self):
        policy = AdmissionPolicy(max_inflight=1, max_queued=0)
        pdb = bipartite_attribution_instance(2, 2)
        release = threading.Event()

        async def main():
            with AttributionService(policy=policy) as service:
                service.register_tenant("acme", pdb)
                original = service._compute_report

                def slow(query, snapshot, lane, deadline_at, index=None):
                    release.wait(timeout=5)
                    return original(query, snapshot, lane, deadline_at, index)

                service._compute_report = slow
                occupier = asyncio.ensure_future(
                    service.attribute("acme", q_rst()))
                await asyncio.sleep(0.05)
                # The slot and the queue (max_queued=0) are taken: a second,
                # *different* pooled request is refused immediately.
                different = bipartite_attribution_instance(3, 2)
                service.register_tenant("other", different)
                with pytest.raises(ServiceOverloadError) as exc_info:
                    await service.attribute("other", q_rst())
                release.set()
                served = await occupier
                return exc_info.value, served

        rejection, served = asyncio.run(main())
        assert rejection.reason == "capacity"
        assert rejection.retry_after_s is not None
        assert served.lane == "pooled"


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


class TestDeadlines:
    def test_expired_deadline_never_reaches_the_engine(self):
        pdb = bipartite_attribution_instance(2, 2)
        with AttributionService() as service:
            service.register_tenant("acme", pdb)
            with pytest.raises(DeadlineExceededError):
                service._compute_report(q_rst(), pdb, "pooled",
                                        time.monotonic() - 1.0)

    def test_deadline_while_queued_frees_the_pool(self):
        policy = AdmissionPolicy(max_inflight=1)
        pdb = bipartite_attribution_instance(2, 2)
        other = bipartite_attribution_instance(3, 2)
        release = threading.Event()

        async def main():
            with AttributionService(policy=policy) as service:
                service.register_tenant("acme", pdb)
                service.register_tenant("other", other)
                original = service._compute_report

                def slow(query, snapshot, lane, deadline_at, index=None):
                    if snapshot is pdb:   # only the occupier is slowed
                        release.wait(timeout=5)
                    return original(query, snapshot, lane, deadline_at, index)

                service._compute_report = slow
                occupier = asyncio.ensure_future(
                    service.attribute("acme", q_rst()))
                await asyncio.sleep(0.05)
                # The queued request's deadline elapses before a slot frees:
                # it fails as a 504 without ever occupying the pool.
                start = time.perf_counter()
                with pytest.raises(DeadlineExceededError) as exc_info:
                    await service.attribute("other", q_rst(), deadline_s=0.1)
                waited = time.perf_counter() - start
                release.set()
                await occupier
                # The slot was never leaked: the same pooled request now
                # completes normally.
                served = await service.attribute("other", q_rst())
                return exc_info.value, waited, served, service.stats()

        error, waited, served, stats = asyncio.run(main())
        assert error.http_status == 504
        assert error.deadline_s == pytest.approx(0.1)
        assert waited < 3.0          # raised at the deadline, not at release
        assert served.lane == "pooled"
        assert stats["service"]["deadline_exceeded"] == 1

    def test_invalid_deadline_is_a_config_error(self):
        pdb = bipartite_attribution_instance(2, 2)

        async def main():
            with AttributionService() as service:
                service.register_tenant("acme", pdb)
                await service.attribute("acme", q_rst(), deadline_s=-1)

        with pytest.raises(ConfigError):
            asyncio.run(main())


# ---------------------------------------------------------------------------
# Multi-tenancy and the shared store
# ---------------------------------------------------------------------------


class TestTenancy:
    def test_unknown_tenant_is_a_typed_404(self):
        with AttributionService() as service:
            with pytest.raises(UnknownTenantError) as exc_info:
                service.workspace("nope")
            assert exc_info.value.http_status == 404
            assert "nope" in str(exc_info.value)
            # KeyError compatibility: registry-shaped call sites keep working.
            assert isinstance(exc_info.value, KeyError)

    def test_duplicate_and_empty_tenant_names_are_rejected(self):
        pdb = bipartite_attribution_instance(2, 2)
        with AttributionService() as service:
            service.register_tenant("acme", pdb)
            with pytest.raises(ConfigError):
                service.register_tenant("acme", pdb)
            with pytest.raises(ConfigError):
                service.register_tenant("", pdb)
            service.unregister_tenant("acme")
            service.register_tenant("acme", pdb)  # name is free again

    def test_tenant_deltas_never_leak_across_tenants(self):
        pdb = bipartite_attribution_instance(2, 2)

        async def main():
            with AttributionService() as service:
                service.register_tenant("acme", pdb)
                service.register_tenant("globex", pdb)
                before = service.workspace("globex").snapshot_digest()
                await service.refresh_tenant("acme", ["+S(x9, y9)"])
                after_acme = await service.attribute("acme", q_rst())
                after_globex = await service.attribute("globex", q_rst())
                return (before, service.workspace("globex").snapshot_digest(),
                        service.workspace("acme").snapshot_digest(),
                        after_acme, after_globex)

        before, globex_digest, acme_digest, acme, globex = asyncio.run(main())
        assert globex_digest == before          # globex's snapshot untouched
        assert acme_digest != before            # acme's moved
        acme_facts = {f for f, _ in acme.report.ranking}
        globex_facts = {f for f, _ in globex.report.ranking}
        assert fact("S", "x9", "y9") in acme_facts
        assert fact("S", "x9", "y9") not in globex_facts

    def test_cross_tenant_store_reuse_without_recompiling(self):
        """Tenant B's identical query is a store hit: no circuit recompile."""
        store = MemoryStore()
        pdb = bipartite_attribution_instance(3, 3)

        async def main():
            with AttributionService(store=store) as service:
                service.register_tenant("acme", pdb)
                service.register_tenant("globex", pdb)
                first = await service.attribute("acme", q_rst())
                # Kill the in-process engine LRU: only the shared store can
                # now hand globex the compiled artifacts.
                clear_engine_cache()
                hits_before = store.stats()["hits"]
                second = await service.attribute("globex", q_rst())
                return first, second, hits_before

        first, second, hits_before = asyncio.run(main())
        assert store.stats()["hits"] > hits_before
        # Values are bitwise-identical Fractions across tenants.
        assert [v for _, v in first.report.ranking] \
            == [v for _, v in second.report.ranking]

    def test_delta_spec_parsing_round_trip_and_errors(self):
        pdb = bipartite_attribution_instance(2, 2)
        workspace = AttributionWorkspace(pdb)
        assert "insert" in apply_delta_spec(workspace, "+S(x9, y9)")
        assert "remove" in apply_delta_spec(workspace, "-S(x9, y9)")
        assert "make exogenous" in apply_delta_spec(workspace, ">S(l0, r0)")
        assert "make endogenous" in apply_delta_spec(workspace, "<S(l0, r0)")
        assert "insert exogenous" in apply_delta_spec(workspace, "+x:R(zz)")
        with pytest.raises(ValueError):
            apply_delta_spec(workspace, "S(l0, r0)")   # no prefix

    def test_sampled_base_config_is_rejected(self):
        with pytest.raises(ConfigError):
            AttributionService(config=EngineConfig(method="sampled"))


# ---------------------------------------------------------------------------
# Metrics and the structured request log
# ---------------------------------------------------------------------------


class TestObservability:
    def test_metrics_counters_are_consistent(self):
        metrics = ServiceMetrics()
        metrics.record(lane="fast", verdict="FP", coalesced=False,
                       outcome="ok", wall_time_s=0.5)
        metrics.record(lane="pooled", verdict="#P-hard", coalesced=True,
                       outcome="ok", wall_time_s=0.25)
        metrics.record(lane="pooled", verdict="#P-hard", coalesced=False,
                       outcome="deadline", wall_time_s=0.1)
        metrics.record_rejection("capacity")
        metrics.record_rejection("budget")
        metrics.observe_inflight(3)
        metrics.observe_inflight(1)
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == 5
        assert snapshot["coalesced"] == 1 and snapshot["computed"] == 2
        assert snapshot["by_lane"] == {"fast": 1, "pooled": 2}
        assert snapshot["by_outcome"] == {"ok": 2, "deadline": 1,
                                          "rejected": 2}
        assert snapshot["rejected_capacity"] == 1
        assert snapshot["rejected_budget"] == 1
        assert snapshot["deadline_exceeded"] == 1
        assert snapshot["peak_inflight"] == 3
        assert snapshot["wall_time_s"] == pytest.approx(0.85)
        json.dumps(snapshot)  # the whole surface is JSON-serialisable

    def test_every_request_emits_one_structured_json_log_line(self, caplog):
        pdb = bipartite_attribution_instance(2, 2)

        async def main():
            with AttributionService() as service:
                service.register_tenant("acme", pdb)
                await service.attribute("acme", q_rst())

        with caplog.at_level(logging.INFO, logger="repro.serve.request"):
            asyncio.run(main())
        lines = [r.message for r in caplog.records
                 if r.name == "repro.serve.request"]
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["event"] == "serve.request"
        assert entry["tenant"] == "acme"
        assert entry["lane"] == "pooled"
        assert entry["verdict"] == "#P-hard"
        assert entry["coalesced"] is False
        assert entry["outcome"] == "ok"
        assert entry["backend"] in ("circuit", "counting", "brute")
        assert entry["wall_time_s"] >= 0
        assert len(entry["query_key"]) == 16

    def test_stats_surface_shape(self):
        pdb = bipartite_attribution_instance(2, 2)

        async def main():
            with AttributionService() as service:
                service.register_tenant("acme", pdb)
                await service.attribute("acme", q_rst())
                return service.stats()

        stats = asyncio.run(main())
        for key in ("service", "admission_policy", "coalescing",
                    "engine_cache", "store", "tenants"):
            assert key in stats
        assert stats["tenants"]["acme"]["n_endogenous"] == 4
        assert stats["coalescing"]["enabled"] is True
        json.dumps(stats)

    def test_served_attribution_json_round_trips_the_report(self):
        pdb = bipartite_attribution_instance(2, 2)

        async def main():
            with AttributionService() as service:
                service.register_tenant("acme", pdb)
                return await service.attribute("acme", q_rst())

        served = asyncio.run(main())
        payload = json.loads(served.to_json())
        rebuilt = AttributionReport.from_json_dict(payload["report"])
        assert rebuilt.ranking == served.report.ranking  # bitwise Fractions
        assert payload["lane"] == "pooled"
        assert payload["admission"]["verdict"]["complexity"] == "#P-hard"


# ---------------------------------------------------------------------------
# Engine-LRU thread-safety and the auto+store caching regression
# ---------------------------------------------------------------------------


class TestEngineCacheConcurrency:
    def test_auto_with_store_is_cached_under_the_engine_key(self):
        # Auto-dispatched engines with a store must hit the LRU again: the
        # key holds the resolved backend name, never an artefact's store key.
        store = MemoryStore()
        pdb = bipartite_attribution_instance(2, 2)
        first = get_engine(q_hierarchical(), pdb, store=store)
        second = get_engine(q_hierarchical(), pdb, store=store)
        assert first is second
        assert engine_cache_stats()["hits"] == 1

    def test_concurrent_get_engine_is_consistent(self):
        pdbs = [bipartite_attribution_instance(2, 2, exogenous_pad=i)
                for i in range(6)]
        errors = []

        def hammer(seed):
            try:
                for i in range(30):
                    get_engine(q_rst(), pdbs[(seed + i) % len(pdbs)])
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        stats = engine_cache_stats()
        assert stats["hits"] + stats["misses"] == 4 * 30
        assert stats["size"] <= len(pdbs)


# ---------------------------------------------------------------------------
# The HTTP/JSON API, end to end
# ---------------------------------------------------------------------------


async def _call(port, method, path, payload=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode() if payload is not None else b""
    request = (f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
               f"Content-Length: {len(body)}\r\n\r\n").encode() + body
    writer.write(request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, response_body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(response_body)


class TestHTTP:
    def test_end_to_end_two_tenants_coalescing_admission_and_store_reuse(self):
        """The PR's e2e acceptance: an in-process service over HTTP."""
        store = MemoryStore()
        policy = AdmissionPolicy(exact_size_limit=4, circuit_node_budget=31)
        config = EngineConfig(n_samples=40, seed=3)
        facts = {"endogenous": ["S(x0, y0)", "S(x0, y1)", "S(x1, y0)",
                                "S(x1, y1)"],
                 "exogenous": ["R(x0)", "R(x1)", "T(y0)", "T(y1)"]}
        big = {"endogenous": [f"S(x{i}, y{j})" for i in range(3)
                              for j in range(3)],
               "exogenous": [f"R(x{i})" for i in range(3)]
               + [f"T(y{j})" for j in range(3)]}
        rst = {"query": "R(x), S(x, y), T(y)", "variables": ["x", "y"]}

        async def main():
            service = AttributionService(store=store, config=config,
                                         policy=policy)
            server = await AttributionHTTPServer(service, port=0).start()
            port = server.port
            try:
                status, health = await _call(port, "GET", "/healthz")
                assert status == 200
                assert health["status"] == "ok"
                assert set(health["components"]) == {"breakers", "pool",
                                                     "store"}
                for name, body in (("acme", facts), ("globex", facts),
                                   ("big", big)):
                    status, _ = await _call(port, "POST", "/v1/tenants",
                                            {"tenant": name, **body})
                    assert status == 200
                # (i) + (ii): a burst of identical requests from acme, a
                # cross-tenant request from globex, and one budget-busting
                # exact request — all concurrent.
                results = await asyncio.gather(
                    *[_call(port, "POST", "/v1/attribute",
                            {"tenant": "acme", **rst}) for _ in range(5)],
                    _call(port, "POST", "/v1/attribute",
                          {"tenant": "globex", **rst}),
                    _call(port, "POST", "/v1/attribute",
                          {"tenant": "big", **rst, "allow_degraded": False}),
                    _call(port, "POST", "/v1/attribute",
                          {"tenant": "big", **rst}))
                acme_results = results[:5]
                globex_status, globex_body = results[5]
                reject_status, reject_body = results[6]
                degraded_status, degraded_body = results[7]
                stats_status, stats = await _call(port, "GET", "/stats")
                # Errors and unknown routes are typed.
                missing = await _call(port, "POST", "/v1/attribute",
                                      {"tenant": "nope", **rst})
                bad = await _call(port, "POST", "/v1/attribute",
                                  {"tenant": "acme", "query": "((("})
                not_found = await _call(port, "GET", "/not-a-route")
                wrong_method = await _call(port, "GET", "/v1/attribute")
                return (acme_results, globex_status, globex_body,
                        reject_status, reject_body, degraded_status,
                        degraded_body, stats_status, stats, missing, bad,
                        not_found, wrong_method)
            finally:
                await server.stop()
                service.close()

        (acme_results, globex_status, globex_body, reject_status, reject_body,
         degraded_status, degraded_body, stats_status, stats, missing, bad,
         not_found, wrong_method) = asyncio.run(main())

        # (i) Coalescing: five identical concurrent requests, one computed,
        # identical rankings byte for byte.
        assert all(status == 200 for status, _ in acme_results)
        rankings = [json.dumps(body["report"]["ranking"])
                    for _, body in acme_results]
        assert len(set(rankings)) == 1
        assert sum(not body["coalesced"] for _, body in acme_results) == 1
        assert sum(body["coalesced"] for _, body in acme_results) == 4

        # (ii) Admission: the budget-busting exact request got a structured
        # 503 while everything else completed; allowed degradation sampled.
        assert reject_status == 503
        assert reject_body["error"] == "ServiceOverloadError"
        assert reject_body["reason"] == "budget"
        assert reject_body["verdict"]["complexity"] == "#P-hard"
        assert degraded_status == 200
        assert degraded_body["lane"] == "degraded"
        assert degraded_body["report"]["explanation"]["backend"] == "sampled"

        # (iii) Cross-tenant store reuse: globex's identical query matched
        # acme's computation (same engine/store artifacts, equal values).
        assert globex_status == 200
        assert (json.dumps(globex_body["report"]["ranking"])
                == rankings[0])
        assert stats_status == 200
        assert stats["service"]["requests"] >= 8
        assert stats["service"]["coalesced"] >= 4
        assert stats["service"]["rejected_budget"] == 1
        assert stats["engine_cache"]["misses"] <= 3   # acme+globex share one

        # Typed errors over the wire.
        assert missing[0] == 404 and missing[1]["error"] == "UnknownTenantError"
        assert bad[0] == 400
        assert not_found[0] == 404
        assert wrong_method[0] == 405

    def test_deltas_endpoint_applies_and_refreshes(self):
        async def main():
            service = AttributionService()
            server = await AttributionHTTPServer(service, port=0).start()
            try:
                await _call(server.port, "POST", "/v1/tenants",
                            {"tenant": "acme",
                             "endogenous": ["S(a, b)"],
                             "exogenous": ["R(a)", "T(b)"]})
                before = service.workspace("acme").snapshot_digest()
                status, body = await _call(
                    server.port, "POST", "/v1/deltas",
                    {"tenant": "acme", "deltas": ["+S(a, c)", "+x:T(c)"]})
                return status, body, before
            finally:
                await server.stop()
                service.close()

        status, body, before = asyncio.run(main())
        assert status == 200
        assert body["snapshot_digest"] != before
        assert len(body["refresh"]["applied"]) == 2

    def test_malformed_payloads_are_400s(self):
        async def main():
            service = AttributionService()
            server = await AttributionHTTPServer(service, port=0).start()
            try:
                results = []
                for payload in (None, {"query": "R(x)"}, {"tenant": "a"}):
                    results.append(await _call(server.port, "POST",
                                               "/v1/attribute", payload))
                return results
            finally:
                await server.stop()
                service.close()

        for status, body in asyncio.run(main()):
            assert status == 400
            assert "error" in body

    def test_service_error_payloads_match_their_exceptions(self):
        error = ServiceOverloadError("too much", reason="capacity",
                                     retry_after_s=2.0)
        assert isinstance(error, ServiceError)
        payload = error.to_json_dict()
        assert payload == {"error": "ServiceOverloadError",
                           "message": "too much", "reason": "capacity",
                           "retry_after_s": 2.0}
        deadline = DeadlineExceededError("late", deadline_s=1.5)
        assert deadline.to_json_dict()["deadline_s"] == 1.5
