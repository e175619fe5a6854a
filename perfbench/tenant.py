"""The ``tenant-stream`` workload: the write path beside the reads.

One in-process ``AttributionService`` (two executor threads, ``max_inflight=2``)
holds two tenants over one shared ``MemoryStore``, each with ``q_RST``
registered as a standing query.  One op is one client cycle against one
tenant (tenants alternate), in a seeded order:

* an in-support delta — remove an endogenous fact that lies in some minimal
  support, or re-insert one removed earlier — then ``refresh_tenant``;
* an out-of-support delta — insert or remove a fact over relation ``U``,
  which ``q_RST`` never reads — then ``refresh_tenant``;
* a burst of 4 identical concurrent ``attribute`` requests;
* a ``what_if`` batch of 8 single-fact removal scenarios.

Every request is made with ``allow_degraded=False``; a typed error, a
degraded or non-exact reply, or values that break the efficiency axiom fail
the op.  Set-up builds the service, registers the tenants and runs their
initial refresh.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from fractions import Fraction

from repro.api import AttributionSession, EngineConfig
from repro.counting import clear_caches
from repro.data.atoms import fact
from repro.engine import clear_engine_cache
from repro.experiments import q_rst
from repro.incremental.delta import SnapshotDelta
from repro.serve import AdmissionPolicy, AttributionService
from repro.workspace.store import MemoryStore

from . import inputs
from .replay import TenantReplica
from .workloads import OpOutcome, bitwise_mismatch, efficiency_problem, report_problem

TENANTS = ("t0", "t1")
KINDS = ("refresh", "out", "burst", "whatif")
BURST = 4
SCENARIOS = 8
PROBABILITY = Fraction(1, 2)
NAME = "q"


def support_facts(pdb) -> "list":
    """Endogenous facts in some minimal support of ``q_RST`` (sorted).

    ``S(a, b)`` is in a support iff ``R(a)`` and ``T(b)`` are present;
    ``R(a)`` iff some such ``S(a, b)`` exists, and ``T(b)`` likewise.
    """
    facts = pdb.all_facts
    live = [f for f in facts if f.relation == "S"
            and fact("R", f.terms[0]) in facts and fact("T", f.terms[1]) in facts]
    support = set(live)
    for f in live:
        support.add(fact("R", f.terms[0]))
        support.add(fact("T", f.terms[1]))
    return sorted(support & pdb.endogenous)


class TenantStream:
    """The tenant-stream workload (see the module docstring)."""

    name = "tenant-stream"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.query = q_rst()
        rng = random.Random(f"{self.name}/{seed}")
        islands = 3 if tiny else 12
        self.initial = {t: inputs.tenant_db(rng, t, islands=islands) for t in TENANTS}
        self.rng = random.Random(f"{self.name}/{seed}/ops")
        self.loop = asyncio.new_event_loop()
        self.service: "AttributionService | None" = None
        self.removed: "dict[str, list]" = {t: [] for t in TENANTS}
        self.extra: "dict[str, list]" = {t: [] for t in TENANTS}
        self.u_counter = 0
        self.replica: "TenantReplica | None" = None
        # Per-kind observations for the tenant-only metrics.
        self.latency: "dict[str, list[float]]" = {k: [] for k in KINDS}
        self.waits: "list[float]" = []
        self.requests = 0
        self.coalesced = 0
        self.in_support = 0
        self.patched = 0
        self.patch_stats: "list[dict]" = []
        self._store_base = (0, 0)

    # -- set-up -----------------------------------------------------------------
    def setup(self) -> None:
        """Build the service, register both tenants, run their initial refresh."""
        if self.service is not None:
            self.service.close()
        clear_caches()
        clear_engine_cache()
        limit = max(len(pdb.endogenous) for pdb in self.initial.values()) + 64
        self.service = AttributionService(
            store=MemoryStore(),
            policy=AdmissionPolicy(exact_size_limit=limit, max_inflight=2),
            executor_workers=2)
        for tenant, pdb in self.initial.items():
            self.service.register_tenant(tenant, pdb).register(NAME, self.query)
        for tenant in TENANTS:
            self.loop.run_until_complete(self.service.refresh_tenant(tenant))
        stats = self.service.store_stats()
        self._store_base = (stats["hits"], stats["misses"])

    def start_trace(self, tracer) -> None:
        """Build the replica the traced replay advances (not timed)."""
        self.replica = TenantReplica(tracer, self.query)
        for tenant in TENANTS:
            self.replica.warm(tenant, self.service.workspace(tenant).pdb)

    # -- the client cycle ---------------------------------------------------------
    def _timed(self, awaitable) -> "tuple[float, object]":
        """Run one client request to completion; return its latency and reply."""
        start = time.perf_counter()
        reply = self.loop.run_until_complete(awaitable)
        return time.perf_counter() - start, reply

    def _in_support(self, tenant: str, pdb) -> "tuple[str, SnapshotDelta]":
        removed = self.removed[tenant]
        if removed and (len(removed) >= 3 or self.rng.random() < 0.5):
            f = removed.pop(self.rng.randrange(len(removed)))
            return f"+{f}", SnapshotDelta("insert", f, True)
        f = self.rng.choice(support_facts(pdb))
        removed.append(f)
        return f"-{f}", SnapshotDelta("remove", f, True)

    def _out_of_support(self, tenant: str) -> "tuple[str, SnapshotDelta]":
        extra = self.extra[tenant]
        if extra and self.rng.random() < 0.5:
            f = extra.pop(self.rng.randrange(len(extra)))
            return f"-{f}", SnapshotDelta("remove", f, True)
        self.u_counter += 1
        f = fact("U", f"{tenant}u{self.u_counter}")
        extra.append(f)
        return f"+{f}", SnapshotDelta("insert", f, True)

    async def _burst(self, tenant: str):
        async def one():
            start = time.perf_counter()
            served = await self.service.attribute(tenant, self.query,
                                                  allow_degraded=False)
            return time.perf_counter() - start, served
        return await asyncio.gather(*(one() for _ in range(BURST)))

    def op(self, k: int) -> OpOutcome:
        """One cycle; its latency is the summed latency of its four requests."""
        tenant = TENANTS[k % len(TENANTS)]
        workspace = self.service.workspace(tenant)
        kinds = list(KINDS)
        self.rng.shuffle(kinds)
        route: "dict[str, str]" = {}
        steps = []
        errors = []
        busy = 0.0
        try:
            for kind in kinds:
                pdb = workspace.pdb
                if kind in ("refresh", "out"):
                    spec, delta = (self._in_support(tenant, pdb) if kind == "refresh"
                                   else self._out_of_support(tenant))
                    latency, refresh = self._timed(
                        self.service.refresh_tenant(tenant, [spec]))
                    after = workspace.pdb
                    change = refresh.deltas[0]
                    values = dict(change.ranking)
                    problem = efficiency_problem(self.query, after, values)
                    route[f"{kind}_reason"] = change.refresh_reason
                    if kind == "refresh":
                        self.in_support += 1
                        if change.refresh_reason == "incremental-patch":
                            self.patched += 1
                            self.patch_stats.append(change.patch_stats)
                    steps.append(("refresh", delta, after, change.refresh_reason, values))
                elif kind == "burst":
                    latency, replies = self._timed(self._burst(tenant))
                    report = replies[0][1].report
                    problem = report_problem(self.query, pdb, report)
                    for client_latency, served in replies:
                        self.requests += 1
                        self.coalesced += served.coalesced
                        self.waits.append(client_latency - served.report.wall_time_s)
                        if served.lane == "degraded" or bitwise_mismatch(
                                dict(served.report.ranking), dict(report.ranking)):
                            problem = problem or f"burst reply on lane {served.lane!r} differs"
                    route.update(backend=report.backend, shard_axis=report.shard_axis,
                                 lane=replies[0][1].lane)
                    steps.append(("burst", pdb, (report.backend, report.shard_axis),
                                  dict(report.ranking)))
                else:
                    facts = support_facts(pdb)
                    chosen = self.rng.sample(facts, min(SCENARIOS, len(facts)))
                    latency, batch = self._timed(self.service.what_if(
                        tenant, [f"-{f}" for f in chosen], name=NAME,
                        probability=PROBABILITY))
                    problem = None
                    results = []
                    for f, result in zip(chosen, batch.results):
                        values = dict(result.ranking)
                        problem = problem or efficiency_problem(
                            self.query, pdb.without([f]), values)
                        results.append((values, result.probability))
                    route["whatif_recompiled"] = str(any(r.recompiled for r in batch.results))
                    steps.append(("whatif", pdb, chosen, results))
                busy += latency
                self.latency[kind].append(latency)
                if problem:
                    errors.append(f"{kind}: {problem}")
        except Exception as error:  # a typed error or refusal fails the op
            errors.append(f"{type(error).__name__}: {error}")
        return OpOutcome(busy, error="; ".join(errors) or None, route=route,
                         replay=(tenant, steps))

    def replay(self, tracer, outcome: OpOutcome) -> "str | None":
        tenant, steps = outcome.replay
        for step in steps:
            if step[0] == "refresh":
                _, delta, pdb, reason, expected = step
                got = self.replica.refresh(tenant, delta, pdb, reason)
                mismatch = bitwise_mismatch(got, expected)
            elif step[0] == "burst":
                _, pdb, route, expected = step
                mismatch = bitwise_mismatch(self.replica.attribute(pdb, route), expected)
            else:
                _, pdb, chosen, expected = step
                mismatch = None
                got = self.replica.what_if(pdb, chosen, PROBABILITY)
                for (values, prob), (want, want_prob) in zip(got, expected):
                    mismatch = mismatch or bitwise_mismatch(values, want)
                    if prob != want_prob:
                        mismatch = mismatch or "what-if probability differs"
            if mismatch:
                return f"{step[0]}: {mismatch}"
        return None

    def parity(self) -> "str | None":
        """Each tenant's final workspace values against a cold session."""
        for tenant in TENANTS:
            workspace = self.service.workspace(tenant)
            clear_caches()
            clear_engine_cache()
            cold = AttributionSession(self.query, workspace.pdb,
                                      EngineConfig(on_hard="exact")).values()
            mismatch = bitwise_mismatch(workspace.values(NAME), cold)
            if mismatch:
                return f"{tenant}: {mismatch}"
        return None

    def layer_metrics(self) -> dict:
        """The tenant-only metrics, from the untraced requests of the run."""
        def p50(values):
            return statistics.median(values) if values else 0.0

        def mean_stat(key):
            return (statistics.fmean(s.get(key, 0) for s in self.patch_stats)
                    if self.patch_stats else 0.0)

        stats = self.service.store_stats()
        hits = stats["hits"] - self._store_base[0]
        gets = hits + stats["misses"] - self._store_base[1]
        return {
            "refresh_p50_s": p50(self.latency["refresh"]),
            "attribute_p50_s": p50(self.latency["burst"]),
            "whatif_p50_s": p50(self.latency["whatif"]),
            "incremental.pairs_hits": mean_stat("pairs_hits"),
            "incremental.circuit_hits": mean_stat("circuit_hits"),
            "incremental.compiles": (mean_stat("seeded_compiles")
                                     + mean_stat("fresh_compiles")),
            "workspace.store_hit_ratio": hits / gets if gets else 0.0,
            "workspace.patch_ratio": (self.patched / self.in_support
                                      if self.in_support else 0.0),
            "serve.wait_s": p50(self.waits),
            "serve.coalesced_ratio": (self.coalesced / self.requests
                                      if self.requests else 0.0),
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        self.loop.close()
