"""The cold-attribution workloads: one fresh database per op, caches cleared.

Each op runs ``AttributionSession(query, pdb, EngineConfig(on_hard="exact"))
.report()`` on a database generated from the seed and the op index, after
``repro.counting.clear_caches()`` and ``repro.engine.clear_engine_cache()``
(both outside the timing).  Every report is checked: exact, not degraded,
every endogenous fact priced, and the efficiency axiom holding both in the
report and against ``v(Dn)`` recomputed here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from repro.analysis.dichotomy import classify_svc
from repro.api import AttributionSession, EngineConfig
from repro.counting import clear_caches
from repro.engine import clear_engine_cache
from repro.experiments import q_negation_hard, q_rst

from . import inputs
from .replay import replay_attribution, shapley_by_definition


@dataclass
class OpOutcome:
    """What one untraced op did: latency, failure (if any), route, values."""

    latency_s: float
    error: "str | None" = None
    route: "dict[str, str]" = field(default_factory=dict)
    values: "dict | None" = None
    #: Whatever the traced replay needs to re-run this op.
    replay: object = None


def efficiency_problem(query, pdb, values: dict) -> "str | None":
    """Why ``values`` is not an exact Shapley vector of ``pdb``, or ``None``."""
    if set(values) != set(pdb.endogenous):
        return "values do not cover exactly the endogenous facts"
    if any(type(v) is not Fraction for v in values.values()):
        return "a value is not an exact Fraction"
    grand = int(query.evaluate(pdb.all_facts)) - int(query.evaluate(pdb.exogenous))
    if sum(values.values(), Fraction(0)) != grand:
        return "values break the efficiency axiom"
    return None


def report_problem(query, pdb, report) -> "str | None":
    """Why a Shapley report is not an exact, undegraded, efficient one."""
    if not report.exact:
        return "report is not exact"
    if report.degradation_reason:
        return f"report degraded: {report.degradation_reason[0]}"
    if report.efficiency is None or not report.efficiency.ok:
        return "report's efficiency check failed"
    return efficiency_problem(query, pdb, dict(report.ranking))


def bitwise_mismatch(left: dict, right: dict) -> "str | None":
    """Where two value maps differ (as exact numerator/denominator pairs)."""
    if set(left) != set(right):
        return "different fact sets"
    for f, value in left.items():
        other = right[f]
        if (type(value), value.numerator, value.denominator) != (
                type(other), other.numerator, other.denominator):
            return f"{f}: {value} != {other}"
    return None


class ColdWorkload:
    """A cold ``report()`` per op on a fresh seeded database."""

    config = EngineConfig(on_hard="exact")

    def __init__(self, name: str, seed: int, make_query, make_db, parity_config=None,
                 small_db=None):
        self.name = name
        self.seed = seed
        self._make_query = make_query
        self._make_db = make_db
        self._parity_config = parity_config
        self._small_db = small_db
        self.query = None

    def setup(self) -> None:
        """Build and classify the workload's query (the only shared state)."""
        self.query = self._make_query()
        classify_svc(self.query)

    def db(self, k: int):
        return self._make_db(inputs.op_rng(self.seed, self.name, k))

    def op(self, k: int) -> OpOutcome:
        pdb = self.db(k)
        clear_caches()
        clear_engine_cache()
        start = time.perf_counter()
        try:
            report = AttributionSession(self.query, pdb, self.config).report()
        except Exception as error:  # a typed error counts as a failed op
            return OpOutcome(time.perf_counter() - start,
                             error=f"{type(error).__name__}: {error}")
        latency = time.perf_counter() - start
        route = {"backend": report.backend, "shard_axis": report.shard_axis}
        return OpOutcome(latency, error=report_problem(self.query, pdb, report),
                         route=route, values=dict(report.ranking),
                         replay=(pdb, (report.backend, report.shard_axis)))

    def replay(self, tracer, outcome: OpOutcome) -> "str | None":
        pdb, route = outcome.replay
        clear_caches()
        clear_engine_cache()
        values = replay_attribution(tracer, self.query, pdb, route)
        return bitwise_mismatch(values, outcome.values)

    def parity(self) -> "str | None":
        """Op 0 again through an independent route (outside the timing)."""
        if self._small_db is not None:
            pdb = self._small_db(inputs.op_rng(self.seed, self.name + "/parity", 0))
            expected = shapley_by_definition(self.query, pdb)
            config = self.config
        else:
            pdb = self.db(0)
            clear_caches()
            clear_engine_cache()
            expected = AttributionSession(self.query, pdb, self.config).values()
            config = self._parity_config
        clear_caches()
        clear_engine_cache()
        got = AttributionSession(self.query, pdb, config).values()
        return bitwise_mismatch(got, expected)

    def layer_metrics(self) -> dict:
        return {}

    def close(self) -> None:
        pass


def make_cold(name: str, seed: int, tiny: bool) -> ColdWorkload:
    """The three cold workloads; ``tiny`` shrinks every input for smoke tests."""
    if name == "cold-one-island":
        facts = (12, 20) if tiny else (55, 75)
        width = 5 if tiny else 16
        return ColdWorkload(
            name, seed, q_rst,
            lambda rng: inputs.one_island_db(rng, width=width, facts_range=facts),
            parity_config=EngineConfig(on_hard="exact", method="counting"))
    if name == "cold-many-islands":
        islands, facts = ((3, 4), (20, 60)) if tiny else ((16, 24), (270, 300))
        return ColdWorkload(
            name, seed, q_rst,
            lambda rng: inputs.many_islands_db(rng, islands=islands,
                                               facts_range=facts),
            parity_config=EngineConfig(on_hard="exact", shard="fact"))
    if name == "brute-negation":
        size = 6 if tiny else 13
        return ColdWorkload(
            name, seed, q_negation_hard,
            lambda rng: inputs.negation_db(rng, endogenous=size),
            small_db=lambda rng: inputs.negation_db(rng, endogenous=8, side=3))
    raise KeyError(name)
