"""Tests for ``repro.reliability``: fault injection, retries, breakers, quarantine.

The acceptance contract exercised here:

* **harness determinism** — the same :class:`FaultPlan` over the same call
  sequence injects the same faults (replayable by seed);
* **no silent corruption** — corrupted / truncated disk entries are detected
  by the checksummed envelope, quarantined exactly once, and surface as plain
  misses, never as wrong artifacts;
* **crash consistency** — a writer killed mid-``put`` leaves only a swept
  ``.tmp`` file, never a half-written entry that a later ``get`` serves;
* **retry-then-degrade** — a crashed island task is resubmitted to a fresh
  pool, an island that keeps failing is solved in-process, and the values
  stay bitwise-identical either way;
* **circuit breaker** — repeated failures trip a tenant/lane breaker; open
  breakers reroute to the sampled lane (audited in ``degradation_reason``)
  or refuse with a 503 carrying ``retry_after_s`` (a real ``Retry-After``
  header over HTTP); a half-open probe recovers the lane;
* **chaos property** — across ~200 seeded fault schedules × the hom-closed
  query catalog, every outcome is either bitwise-identical to the fault-free
  run or a typed :class:`ReproError` — zero silent corruption.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
import textwrap
import time

import pytest

from repro.api import AttributionReport, AttributionSession, EngineConfig
from repro.data import PartitionedDatabase, fact
from repro.engine import SVCEngine, clear_engine_cache
from repro.engine.parallel import parallel_component_results
from repro.engine.sharding import solve_component
from repro.errors import (
    CircuitOpenError,
    ConfigError,
    ReproError,
    ServiceOverloadError,
)
from repro.experiments import q_hierarchical, q_rst
from repro.experiments.batch_engine import bipartite_attribution_instance
from repro.reliability import (
    BreakerRegistry,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedFault,
    NO_RETRY,
    RetryPolicy,
    call_with_retry,
    injected,
)
from repro.reliability import faults
from repro.serve import AdmissionPolicy, AttributionHTTPServer, AttributionService
from repro.workspace import DiskStore
from repro.workspace.store import ARTIFACT_SCHEMA_VERSION, ArtifactKey


@pytest.fixture(autouse=True)
def _fresh_engine_cache_and_no_injector():
    clear_engine_cache()
    faults.deactivate()
    yield
    faults.deactivate()
    clear_engine_cache()


def _island_pdb(k: int = 3) -> PartitionedDatabase:
    """``k`` variable-disjoint lineage islands (one S fact each) for q_RST."""
    endo = frozenset(fact("S", f"l{i}", f"r{i}") for i in range(k))
    exo = frozenset(fact("R", f"l{i}") for i in range(k)) \
        | frozenset(fact("T", f"r{i}") for i in range(k))
    return PartitionedDatabase(endo, exo)


# ---------------------------------------------------------------------------
# The harness itself
# ---------------------------------------------------------------------------


class TestFaultHarness:
    def test_disabled_harness_is_inert(self):
        faults.check("store.get.read")                   # no injector: no-op
        assert faults.mangle("store.put.write", b"abc") == b"abc"
        assert faults.active() is None and faults.active_plan() is None

    def test_same_plan_same_schedule(self):
        plan = FaultPlan(seed=11, rules=(
            FaultRule(point="compile.circuit", kind="error", probability=0.5),))

        def trace(plan):
            injector = FaultInjector(plan)
            fired = []
            for _ in range(40):
                try:
                    injector.check("compile.circuit")
                    fired.append(0)
                except InjectedFault:
                    fired.append(1)
            return fired

        first, second = trace(plan), trace(plan)
        assert first == second
        assert 0 < sum(first) < 40      # the coin actually lands both ways
        different = trace(FaultPlan(seed=12, rules=plan.rules))
        assert different != first       # the seed is load-bearing

    def test_after_and_times_make_the_third_call_fail_exactly_once(self):
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(point="store.put.write", kind="oserror",
                      after=2, times=1),)))
        injector.check("store.put.write")
        injector.check("store.put.write")
        with pytest.raises(OSError):
            injector.check("store.put.write")
        injector.check("store.put.write")   # times=1: never again
        assert injector.fired() == 1

    def test_prefix_rules_cover_both_store_points(self):
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(point="store.*", kind="oserror"),)))
        with pytest.raises(OSError):
            injector.check("store.get.read")
        with pytest.raises(OSError):
            injector.check("store.put.write")
        injector.check("compile.circuit")   # not covered

    def test_mangle_corrupts_and_truncates(self):
        blob = bytes(range(64))
        corrupt = FaultInjector(FaultPlan(rules=(
            FaultRule(point="store.put.write", kind="corrupt"),)))
        mangled = corrupt.mangle("store.put.write", blob)
        assert mangled != blob and len(mangled) == len(blob)
        truncate = FaultInjector(FaultPlan(rules=(
            FaultRule(point="store.put.write", kind="truncate"),)))
        assert truncate.mangle("store.put.write", blob) == blob[:32]

    def test_sleep_rule_delays(self):
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(point="serve.compute", kind="sleep", sleep_s=0.02),)))
        start = time.perf_counter()
        injector.check("serve.compute")
        assert time.perf_counter() - start >= 0.015

    def test_injected_context_manager_always_deactivates(self):
        plan = FaultPlan(rules=(FaultRule(point="compile.circuit", kind="error"),))
        with pytest.raises(InjectedFault):
            with injected(plan):
                assert faults.active_plan() is plan
                faults.check("compile.circuit")
        assert faults.active() is None

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(point="x", kind="meteor-strike")
        with pytest.raises(ValueError):
            FaultRule(point="x", kind="error", probability=1.5)
        with pytest.raises(ValueError):
            FaultRule(point="x", kind="error", times=0)
        with pytest.raises(ValueError):
            FaultRule(point="x", kind="error", after=-1)

    def test_plans_are_picklable(self):
        plan = FaultPlan(seed=3, rules=(
            FaultRule(point="parallel.worker", kind="crash", times=1),))
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestRetry:
    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}
        retries = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        result = call_with_retry(flaky, RetryPolicy(max_attempts=3, backoff_s=0),
                                 on_retry=lambda a, e: retries.append(a))
        assert result == "ok" and calls["n"] == 3 and retries == [0, 1]

    def test_exhaustion_reraises_the_last_error(self):
        def always():
            raise OSError("persistent")

        with pytest.raises(OSError, match="persistent"):
            call_with_retry(always, RetryPolicy(max_attempts=2, backoff_s=0))

    def test_non_matching_errors_are_not_retried(self):
        calls = {"n": 0}

        def typed():
            calls["n"] += 1
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            call_with_retry(typed, RetryPolicy(max_attempts=5, backoff_s=0))
        assert calls["n"] == 1

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(max_attempts=5, backoff_s=0.1, factor=2.0,
                             max_backoff_s=0.3)
        assert [policy.delay_s(k) for k in range(4)] == [0.1, 0.2, 0.3, 0.3]
        assert NO_RETRY.max_attempts == 1

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_s=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(factor=0.5)


# ---------------------------------------------------------------------------
# The circuit breaker (deterministic fake clock)
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestCircuitBreaker:
    def test_trip_half_open_probe_and_recovery_cycle(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=10.0,
                                 clock=clock)
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"        # threshold not yet reached
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.retry_after_s() == pytest.approx(10.0)
        clock.advance(4.0)
        assert breaker.retry_after_s() == pytest.approx(6.0)
        clock.advance(6.0)
        assert breaker.state == "half_open"
        assert breaker.allow()                  # the one probe slot
        assert not breaker.allow()              # everyone else still refused
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()
        assert breaker.snapshot()["trips"] == 1

    def test_failed_probe_reopens_for_a_full_timeout(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()                  # the probe
        breaker.record_failure()                # probe failed
        assert breaker.state == "open"
        assert breaker.retry_after_s() == pytest.approx(5.0)
        assert breaker.snapshot()["trips"] == 2

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"        # never two *consecutive*

    def test_registry_materialises_lazily_and_snapshots(self):
        clock = FakeClock()
        registry = BreakerRegistry(failure_threshold=1, reset_timeout_s=5.0,
                                   clock=clock)
        assert registry.snapshot() == {}
        registry.get("acme/fast").record_failure()
        registry.get("acme/degraded")
        assert registry.states() == {"acme/degraded": "closed",
                                     "acme/fast": "open"}
        assert registry.get("acme/fast") is registry.get("acme/fast")

    def test_validation(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigError):
            CircuitBreaker(reset_timeout_s=0)


# ---------------------------------------------------------------------------
# DiskStore: quarantine, retries, sweep — the no-silent-corruption guarantee
# ---------------------------------------------------------------------------


class TestDiskStoreResilience:
    KEY = ArtifactKey("lineage", "a" * 16)

    def test_bit_flip_is_quarantined_once_and_never_served(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(self.KEY, {"payload": list(range(50))})
        path = tmp_path / self.KEY.filename
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF              # one silent bit flip
        path.write_bytes(bytes(raw))

        assert store.get(self.KEY) is None       # detected, never served
        assert not path.exists()                 # moved out of the store
        assert store.quarantine_entries() == 1
        assert (store.quarantine_directory / self.KEY.filename).exists()
        assert store.get(self.KEY) is None       # second read: plain miss
        stats = store.store_stats()
        assert stats["quarantined"] == 1         # quarantined exactly once
        assert stats["invalid"] == 1
        assert stats["quarantine_entries"] == 1

    def test_truncated_entry_is_quarantined(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(self.KEY, {"payload": list(range(50))})
        path = tmp_path / self.KEY.filename
        path.write_bytes(path.read_bytes()[:20])
        assert store.get(self.KEY) is None
        assert store.stats()["quarantined"] == 1

    def test_stale_schema_version_is_discarded_not_quarantined(self, tmp_path):
        store = DiskStore(tmp_path)
        path = tmp_path / self.KEY.filename
        payload_blob = pickle.dumps({"old": "layout"})
        path.write_bytes(pickle.dumps({
            "version": ARTIFACT_SCHEMA_VERSION - 1,
            "kind": self.KEY.kind,
            "payload": payload_blob,
            "checksum": hashlib.sha256(payload_blob).hexdigest()}))
        assert store.get(self.KEY) is None
        assert not path.exists()                 # deleted: stale, not damaged
        assert store.stats()["quarantined"] == 0
        assert store.stats()["invalid"] == 1

    def test_overwrite_after_quarantine_heals_the_entry(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(self.KEY, "original")
        path = tmp_path / self.KEY.filename
        path.write_bytes(b"garbage that is not even a pickle")
        assert store.get(self.KEY) is None
        store.put(self.KEY, "recomputed")
        assert store.get(self.KEY) == "recomputed"

    def test_injected_write_corruption_is_detected_at_read(self, tmp_path):
        """A fault that mangles the written bytes cannot produce a wrong artifact."""
        store = DiskStore(tmp_path)
        for kind in ("corrupt", "truncate"):
            plan = FaultPlan(rules=(
                FaultRule(point="store.put.write", kind=kind, times=1),))
            with injected(plan):
                store.put(self.KEY, {"expensive": "artifact"})  # write "succeeds"
            assert store.get(self.KEY) is None   # checksum catches it later
        assert store.stats()["quarantined"] == 2

    def test_transient_write_failure_is_retried(self, tmp_path):
        store = DiskStore(tmp_path, retry=RetryPolicy(max_attempts=3, backoff_s=0))
        plan = FaultPlan(rules=(
            FaultRule(point="store.put.write", kind="oserror", times=1),))
        with injected(plan):
            store.put(self.KEY, "survives one failure")
        assert store.get(self.KEY) == "survives one failure"
        stats = store.stats()
        assert stats["put_retries"] == 1 and stats["put_failures"] == 0

    def test_exhausted_write_failures_are_counted_not_raised(self, tmp_path):
        store = DiskStore(tmp_path, retry=RetryPolicy(max_attempts=2, backoff_s=0))
        plan = FaultPlan(rules=(
            FaultRule(point="store.put.write", kind="oserror"),))
        with injected(plan):
            store.put(self.KEY, "never lands")   # absorbed, not raised
        assert store.get(self.KEY) is None
        stats = store.stats()
        assert stats["put_failures"] == 1 and stats["put_retries"] == 1
        assert stats["stores"] == 0

    def test_injected_read_error_is_a_plain_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(self.KEY, "present")
        plan = FaultPlan(rules=(
            FaultRule(point="store.get.read", kind="oserror", times=1),))
        with injected(plan):
            assert store.get(self.KEY) is None   # flaky read: miss, no raise
        assert store.get(self.KEY) == "present"  # the entry itself is fine

    def test_tmp_files_are_swept_on_open(self, tmp_path):
        (tmp_path / "stale-writer.tmp").write_bytes(b"half a pickle")
        (tmp_path / "another.tmp").write_bytes(b"")
        store = DiskStore(tmp_path)
        assert store.stats()["tmp_swept"] == 2
        assert not list(tmp_path.glob("*.tmp"))


class TestCrashConsistency:
    def test_writer_killed_mid_put_leaves_a_healing_store(self, tmp_path):
        """Satellite 4: kill a real subprocess mid-``DiskStore.put``."""
        key = ArtifactKey("lineage", "b" * 16)
        script = textwrap.dedent(f"""
            import os, sys, time
            import repro.workspace.store as store_mod
            store = store_mod.DiskStore({str(tmp_path)!r})
            def hang_before_replace(src, dst):
                print("READY", flush=True)
                time.sleep(60)
            store_mod.os.replace = hang_before_replace
            store.put(store_mod.ArtifactKey({key.kind!r}, {key.digest!r}),
                      {{"payload": list(range(1000))}})
        """)
        env = dict(os.environ, PYTHONPATH="src")
        # The context manager closes the stdout pipe and reaps the child.
        with subprocess.Popen([sys.executable, "-c", script],
                              stdout=subprocess.PIPE, cwd=os.getcwd(),
                              env=env) as process:
            try:
                assert process.stdout.readline().strip() == b"READY"
                process.kill()                   # SIGKILL: no cleanup handlers
                process.wait(timeout=30)
            finally:
                if process.poll() is None:       # pragma: no cover - safety net
                    process.kill()
        # The kill landed between the tmp write and the atomic replace: the
        # temp file exists, the entry itself was never created.
        assert list(tmp_path.glob("*.tmp"))
        assert not (tmp_path / key.filename).exists()

        store = DiskStore(tmp_path)              # reopening heals
        assert store.stats()["tmp_swept"] >= 1
        assert not list(tmp_path.glob("*.tmp"))
        assert store.get(key) is None            # clean miss, nothing served
        assert store.stats()["quarantined"] == 0
        store.put(key, "recomputed")             # and the store still works
        assert store.get(key) == "recomputed"


# ---------------------------------------------------------------------------
# Per-island retry-then-degrade
# ---------------------------------------------------------------------------


class TestIslandRetryThenDegrade:
    def _tasks_and_expected(self, k=3):
        pdb = _island_pdb(k)
        engine = SVCEngine(q_rst(), pdb, method="counting", shard="component")
        decomposition = engine._decomposition()
        tasks = list(enumerate(decomposition.components))
        expected = tuple(solve_component(sub, i, mode="counting")
                         for i, sub in tasks)
        return tasks, expected

    def test_worker_error_is_retried_on_a_fresh_pool(self):
        tasks, expected = self._tasks_and_expected()
        plan = FaultPlan(rules=(
            # Fire on the third task of the first worker process only: the
            # retry round's fresh worker sees one task and sails through.
            FaultRule(point="parallel.worker", kind="error", after=2, times=1),))
        with injected(plan):
            outcome = parallel_component_results(tasks, "counting",
                                                 node_budget=10_000, workers=1)
        assert outcome is not None
        assert outcome.retried == 1 and outcome.degraded == 0
        assert outcome.results == expected       # bitwise the serial results

    def test_worker_crash_is_contained_to_its_island(self):
        tasks, expected = self._tasks_and_expected()
        plan = FaultPlan(rules=(
            # A real os._exit(13) in the worker after two clean tasks.
            FaultRule(point="parallel.worker", kind="crash", after=2, times=1),))
        with injected(plan):
            outcome = parallel_component_results(tasks, "counting",
                                                 node_budget=10_000, workers=1)
        assert outcome is not None
        assert outcome.retried >= 1 and outcome.degraded == 0
        assert outcome.results == expected

    def test_persistent_failure_degrades_to_in_process_solving(self):
        tasks, expected = self._tasks_and_expected()
        plan = FaultPlan(rules=(
            FaultRule(point="parallel.worker", kind="error"),))  # every call
        with injected(plan):
            outcome = parallel_component_results(tasks, "counting",
                                                 node_budget=10_000, workers=2)
        assert outcome is not None
        assert outcome.degraded == len(tasks)    # the pool never delivered
        assert outcome.retried == len(tasks)     # but each island was retried
        assert outcome.results == expected       # parent solved them, bitwise

    def test_engine_records_the_degradation_and_keeps_parity(self):
        pdb = _island_pdb(3)
        serial = SVCEngine(q_rst(), pdb, method="counting", shard="component")
        baseline = serial.all_values()

        engine = SVCEngine(q_rst(), pdb, method="counting", shard="component",
                           workers=2, parallel_threshold=0)
        plan = FaultPlan(rules=(
            FaultRule(point="parallel.worker", kind="error"),))
        with injected(plan):
            values = engine.all_values()
        assert values == baseline                # bitwise Fraction parity
        reasons = engine.degradation_reasons()
        assert any(r.startswith("pool→in-process") for r in reasons)


# ---------------------------------------------------------------------------
# The serving tier: breaker trip, degrade, recover; health; HTTP surfaces
# ---------------------------------------------------------------------------


def _service(clock, **policy_kwargs):
    policy = AdmissionPolicy(breaker_failure_threshold=2, breaker_reset_s=5.0,
                             **policy_kwargs)
    service = AttributionService(
        config=EngineConfig(n_samples=40, seed=3), policy=policy)
    # The injectable clock is what makes the trip → wait → probe cycle
    # deterministic; swap the registry before any traffic materialises one.
    service._breakers = BreakerRegistry(
        failure_threshold=policy.breaker_failure_threshold,
        reset_timeout_s=policy.breaker_reset_s, clock=clock)
    service.set_coalescing(False)
    return service


class TestServiceBreaker:
    def test_trip_refuse_degrade_and_half_open_recovery(self):
        clock = FakeClock()
        query = q_hierarchical()
        pdb = bipartite_attribution_instance(2, 2)

        async def main():
            service = _service(clock)
            service.register_tenant("acme", pdb)
            plan = FaultPlan(rules=(
                FaultRule(point="serve.compute", kind="error", times=2),))
            with injected(plan):
                for _ in range(2):               # two failures: threshold hit
                    with pytest.raises(InjectedFault):
                        await service.attribute("acme", query)
            # The fast lane's breaker is open: exactness-insisting requests
            # get the structured 503 with a real retry hint.
            with pytest.raises(CircuitOpenError) as exc_info:
                await service.attribute("acme", query, allow_degraded=False)
            error = exc_info.value
            assert isinstance(error, ServiceOverloadError)
            assert error.http_status == 503 and error.reason == "circuit_open"
            assert error.tenant == "acme" and error.lane == "fast"
            assert error.retry_after_s == pytest.approx(5.0)
            payload = error.to_json_dict()
            assert payload["tenant"] == "acme" and payload["lane"] == "fast"

            # A client that allows estimates is rerouted down the ladder,
            # with the reroute recorded in the report's audit trail.
            served = await service.attribute("acme", query)
            assert served.lane == "degraded"
            assert served.report.exact is False
            assert any("breaker→sampled" in reason
                       for reason in served.report.degradation_reason)
            snapshot = service._metrics.snapshot()
            assert snapshot["breaker_degraded"] == 1
            assert snapshot["rejected_circuit"] == 1

            health = service.health()
            assert health["status"] == "degraded"
            assert health["components"]["breakers"]["status"] == "degraded"

            # After the reset timeout the half-open probe heals the lane.
            clock.advance(6.0)
            served = await service.attribute("acme", query,
                                             allow_degraded=False)
            assert served.lane == "fast"
            assert served.report.degradation_reason == ()
            assert service._breakers.states()["acme/fast"] == "closed"
            assert service.health()["status"] == "ok"
            service.close()

        asyncio.run(main())

    def test_breakers_isolate_tenants(self):
        clock = FakeClock()
        query = q_hierarchical()
        pdb = bipartite_attribution_instance(2, 2)

        async def main():
            service = _service(clock)
            service.register_tenant("noisy", pdb)
            service.register_tenant("quiet", pdb)
            for _ in range(2):
                service._breakers.get("noisy/fast").record_failure()
            with pytest.raises(CircuitOpenError):
                await service.attribute("noisy", query, allow_degraded=False)
            served = await service.attribute("quiet", query,
                                             allow_degraded=False)
            assert served.lane == "fast"         # the quiet tenant is untouched
            service.close()

        asyncio.run(main())

    def test_stats_surface_includes_breakers(self):
        clock = FakeClock()

        async def main():
            service = _service(clock)
            service.register_tenant("acme", bipartite_attribution_instance(2, 2))
            await service.attribute("acme", q_hierarchical())
            stats = service.stats()
            assert stats["breakers"]["acme/fast"]["state"] == "closed"
            policy = stats["admission_policy"]
            assert policy["breaker_failure_threshold"] == 2
            assert policy["breaker_reset_s"] == 5.0
            service.close()

        asyncio.run(main())


async def _call_with_headers(port, method, path, payload=None):
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
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(response_body)


class TestHTTPReliability:
    def test_retry_after_header_and_health_rollup(self):
        clock = FakeClock()
        query_text = {"query": "R(x), S(x, y)", "variables": ["x", "y"]}
        pdb_body = {"endogenous": ["S(l0, r0)", "S(l1, r1)"],
                    "exogenous": ["R(l0)", "R(l1)"]}

        async def main():
            service = _service(clock)
            server = await AttributionHTTPServer(service, port=0).start()
            try:
                status, _, health = await _call_with_headers(
                    server.port, "GET", "/healthz")
                assert status == 200 and health["status"] == "ok"
                assert set(health["components"]) == {"breakers", "pool",
                                                     "store"}

                status, _, _ = await _call_with_headers(
                    server.port, "POST", "/v1/tenants",
                    {"tenant": "acme", **pdb_body})
                assert status == 200

                # Trip the fast lane's breaker, then watch the HTTP surfaces.
                for _ in range(2):
                    service._breakers.get("acme/fast").record_failure()
                status, headers, payload = await _call_with_headers(
                    server.port, "POST", "/v1/attribute",
                    {"tenant": "acme", "allow_degraded": False, **query_text})
                assert status == 503
                assert payload["error"] == "CircuitOpenError"
                assert payload["reason"] == "circuit_open"
                assert payload["tenant"] == "acme"
                # Satellite 2: retry_after_s is a REAL Retry-After header.
                assert headers["retry-after"] == "5"
                assert payload["retry_after_s"] == pytest.approx(5.0)

                # Satellite 3: /healthz reports the degraded breaker.
                status, _, health = await _call_with_headers(
                    server.port, "GET", "/healthz")
                assert status == 200 and health["status"] == "degraded"
                breakers = health["components"]["breakers"]
                assert breakers["breakers"]["acme/fast"]["state"] == "open"

                # Every materialised breaker open: the service is unhealthy,
                # and /healthz says so with a 503 of its own.
                status, _, health = await _call_with_headers(
                    server.port, "GET", "/healthz")
                if all(b["state"] == "open"
                       for b in service._breakers.snapshot().values()):
                    assert health["status"] == "unhealthy" and status == 503
            finally:
                await server.stop()
                service.close()

        asyncio.run(main())


class TestDegradationAuditTrail:
    def test_exact_to_sampled_descent_is_audited(self):
        pdb = bipartite_attribution_instance(2, 2)
        config = EngineConfig(exact_size_limit=2, on_hard="sample",
                              n_samples=40, seed=3)
        report = AttributionSession(q_rst(), pdb, config).report()
        assert report.exact is False
        assert any(reason.startswith("exact→sampled")
                   for reason in report.degradation_reason)

    def test_undegraded_run_has_an_empty_trail(self):
        report = AttributionSession(q_rst(),
                                    bipartite_attribution_instance(2, 2)).report()
        assert report.degradation_reason == ()

    def test_json_round_trip_and_back_compat(self):
        pdb = bipartite_attribution_instance(2, 2)
        config = EngineConfig(exact_size_limit=2, on_hard="sample",
                              n_samples=40, seed=3)
        report = AttributionSession(q_rst(), pdb, config).report()
        rebuilt = AttributionReport.from_json(report.to_json())
        assert rebuilt.degradation_reason == report.degradation_reason
        # Documents serialised before the field load with an empty trail.
        payload = report.to_json_dict()
        del payload["degradation_reason"]
        assert AttributionReport.from_json_dict(payload).degradation_reason == ()


# ---------------------------------------------------------------------------
# The chaos property: ~200 seeded schedules × the hom-closed query catalog
# ---------------------------------------------------------------------------

#: Per-point fault kinds a chaos schedule may draw.  ``crash`` is excluded —
#: these runs are serial (in-process), and a crash rule would kill pytest
#: itself; real worker crashes are exercised by TestIslandRetryThenDegrade.
_CHAOS_MENU = (
    ("store.get.read", ("oserror", "sleep")),
    ("store.put.write", ("oserror", "corrupt", "truncate", "sleep")),
    ("compile.circuit", ("error", "sleep")),
    ("engine.solve_component", ("error", "sleep")),
)


def _chaos_plan(seed: int) -> FaultPlan:
    rng = random.Random(seed)
    rules = []
    for _ in range(rng.randint(1, 3)):
        point, kinds = rng.choice(_CHAOS_MENU)
        rules.append(FaultRule(
            point=point, kind=rng.choice(kinds),
            probability=rng.choice((0.5, 1.0)),
            after=rng.randint(0, 2),
            times=rng.randint(1, 2),
            sleep_s=0.0005))
    return FaultPlan(seed=seed, rules=tuple(rules))


class TestChaosProperty:
    N_SCHEDULES_PER_QUERY = 100

    def test_no_silent_corruption_across_seeded_schedules(self, tmp_path):
        """Every chaotic outcome is bitwise-exact or a typed error — never wrong."""
        pdb = bipartite_attribution_instance(2, 2)
        catalog = (q_rst(), q_hierarchical())    # hard and safe hom-closed CQs
        outcomes = {"exact": 0, "typed_error": 0}
        for query_index, query in enumerate(catalog):
            clear_engine_cache()
            baseline = AttributionSession(query, pdb).values()
            for seed in range(self.N_SCHEDULES_PER_QUERY):
                plan = _chaos_plan(query_index * 10_000 + seed)
                store = DiskStore(tmp_path / f"chaos-{query_index}-{seed}")
                with injected(plan):
                    # Two passes over one store: the first exercises the
                    # write path under faults, the second the read path.
                    for _ in range(2):
                        clear_engine_cache()
                        session = AttributionSession(query, pdb, store=store)
                        try:
                            values = session.values()
                        except ReproError:
                            outcomes["typed_error"] += 1
                            continue
                        assert values == baseline, (
                            f"silent corruption under plan {plan}")
                        outcomes["exact"] += 1
        # The harness actually bit: both outcome classes occurred, and every
        # single run landed in one of them (nothing silently wrong).
        total = 2 * len(catalog) * self.N_SCHEDULES_PER_QUERY
        assert outcomes["exact"] + outcomes["typed_error"] == total
        assert outcomes["typed_error"] > 0
        assert outcomes["exact"] > 0

    def test_failing_schedules_replay_identically(self, tmp_path):
        """A schedule that injected a fault injects the same fault on replay."""
        pdb = bipartite_attribution_instance(2, 2)
        plan = FaultPlan(seed=5, rules=(
            FaultRule(point="engine.solve_component", kind="error",
                      probability=0.5),))

        def run(directory):
            clear_engine_cache()
            store = DiskStore(directory)
            with injected(plan):
                try:
                    return ("ok", AttributionSession(q_rst(), pdb,
                                                     store=store).values())
                except ReproError as error:
                    return ("error", str(error))

        first = run(tmp_path / "a")
        second = run(tmp_path / "b")
        assert first == second
