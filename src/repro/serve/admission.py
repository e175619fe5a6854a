"""Admission control: the paper's tractability dichotomy as a load shedder.

A serving tier must decide what a request will cost *before* committing a
worker to it — otherwise one #P-hard query on a large instance starves every
well-behaved request behind it.  The paper hands the service exactly the
predictor it needs: the Figure 1b classifier says whether ``SVC_q`` is
polynomial at all, and for the exponential exact backends the instance size
bounds the work (a decision circuit over ``n`` variables has at most
``2^(n+1) - 1`` decision nodes, and the brute table has ``2^n`` rows), so
``EngineConfig.circuit_node_budget`` doubles as an admission budget.

Verdicts map to four lanes:

* ``fast``     — the classifier says FP: polynomial work (a circuit that
  compiles in polynomial size on these instances, with the safe plan as its
  node-budget fallback).  Never queued behind exponential work.
* ``pooled``   — the query is hard or unclassified but the instance is small
  enough that an exact exponential backend fits the declared budgets; the
  request takes a bounded pool slot.
* ``degraded`` — too big for exact work but the client allows estimates: the
  Monte-Carlo ``method="sampled"`` backend with its ``(ε, δ)`` guarantee.
* ``rejected`` — too big and the client insists on exact values: a
  structured :class:`repro.errors.ServiceOverloadError` (the 503), raised
  *before* any lineage is built or pool slot taken.

Capacity admission (bounding concurrently admitted pool work) lives in the
service itself — it depends on live state; this module is the pure,
per-request cost classification.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.dichotomy import Complexity, DichotomyVerdict, classify_svc
from ..compile import DEFAULT_NODE_BUDGET
from ..errors import ConfigError
from ..queries.base import BooleanQuery

#: The admission lanes, in decreasing desirability.
LANES = ("fast", "pooled", "degraded", "rejected")


@dataclass(frozen=True)
class AdmissionPolicy:
    """The service-wide cost budgets admission control enforces.

    ``exact_size_limit`` mirrors :attr:`repro.api.EngineConfig.exact_size_limit`:
    the largest ``|Dn|`` for which an exponential exact backend is acceptable.
    ``circuit_node_budget`` additionally admits larger instances whose
    worst-case circuit still fits the compiler's node ceiling — the same
    number the engine enforces at compile time, so an admitted request can
    never blow past it by more than the engine's own counting fallback.
    ``max_inflight`` bounds concurrently *running* pooled/degraded requests;
    ``max_queued`` bounds how many more may wait for a slot before capacity
    rejections start.  ``default_deadline_s`` applies when a request carries
    no deadline of its own (``None`` = no deadline).

    ``breaker_failure_threshold`` consecutive failures (errors or deadline
    misses) on one ``tenant/lane`` trip that lane's circuit breaker
    (:class:`repro.reliability.CircuitBreaker`); after ``breaker_reset_s``
    the breaker half-opens and lets one probe through.
    """

    exact_size_limit: int = 16
    circuit_node_budget: int = DEFAULT_NODE_BUDGET
    max_inflight: int = 4
    max_queued: int = 64
    default_deadline_s: "float | None" = None
    breaker_failure_threshold: int = 5
    breaker_reset_s: float = 30.0

    def __post_init__(self) -> None:
        if self.exact_size_limit < 0:
            raise ConfigError(
                f"exact_size_limit must be >= 0, got {self.exact_size_limit}")
        if self.circuit_node_budget < 1:
            raise ConfigError(
                f"circuit_node_budget must be >= 1, got {self.circuit_node_budget}")
        if self.max_inflight < 1:
            raise ConfigError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.max_queued < 0:
            raise ConfigError(f"max_queued must be >= 0, got {self.max_queued}")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ConfigError(
                f"default_deadline_s must be positive or None, got {self.default_deadline_s}")
        if self.breaker_failure_threshold < 1:
            raise ConfigError(
                f"breaker_failure_threshold must be >= 1, got {self.breaker_failure_threshold}")
        if self.breaker_reset_s <= 0:
            raise ConfigError(
                f"breaker_reset_s must be positive, got {self.breaker_reset_s}")

    def to_json_dict(self) -> dict:
        return {"exact_size_limit": self.exact_size_limit,
                "circuit_node_budget": self.circuit_node_budget,
                "max_inflight": self.max_inflight,
                "max_queued": self.max_queued,
                "default_deadline_s": self.default_deadline_s,
                "breaker_failure_threshold": self.breaker_failure_threshold,
                "breaker_reset_s": self.breaker_reset_s}


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of classifying one request's cost before dispatch.

    ``estimated_nodes`` is the worst-case decision-circuit size over the
    instance's endogenous facts (``2^(n+1) - 1``, capped to stay printable) —
    the number compared against the node budget for the pooled lane.
    """

    lane: str
    verdict: DichotomyVerdict
    reason: str
    n_endogenous: int
    estimated_nodes: int

    def to_json_dict(self) -> dict:
        return {"lane": self.lane, "reason": self.reason,
                "n_endogenous": self.n_endogenous,
                "estimated_nodes": self.estimated_nodes,
                "verdict": {"complexity": self.verdict.complexity.value,
                            "reason": self.verdict.reason,
                            "query_class": self.verdict.query_class}}


#: Cap on the worst-case node estimate so the arithmetic (and the JSON it
#: lands in) stays bounded for absurd instance sizes.
_ESTIMATE_CAP = 2 ** 62


def estimate_circuit_nodes(n_endogenous: int) -> int:
    """Worst-case node count of a decision circuit over ``n`` variables.

    A (non-reduced) decision circuit branching on every variable along every
    path has at most ``2^(n+1) - 1`` nodes; the compiler's component and
    formula caches usually do far better, but admission control needs a bound
    that cannot under-promise, not a prediction.
    """
    if n_endogenous >= 61:
        return _ESTIMATE_CAP
    return 2 ** (n_endogenous + 1) - 1


def admit(query: BooleanQuery, n_endogenous: int, policy: AdmissionPolicy,
          *, allow_degraded: bool = True,
          verdict: "DichotomyVerdict | None" = None) -> AdmissionDecision:
    """Classify one request into its admission lane (pure; no engine work).

    ``verdict`` lets the caller pass a memoised classification (the service
    classifies each registered query once); omitted, the Figure 1b classifier
    runs here.  ``allow_degraded`` is the *client's* statement that sampled
    estimates are acceptable; without it an over-budget request is rejected.
    """
    verdict = verdict if verdict is not None else classify_svc(query)
    nodes = estimate_circuit_nodes(n_endogenous)
    if verdict.complexity is Complexity.FP:
        return AdmissionDecision(
            lane="fast", verdict=verdict, reason="classifier says FP: "
            "polynomial safe-plan/circuit work, no pool slot needed",
            n_endogenous=n_endogenous, estimated_nodes=nodes)
    hardness = ("#P-hard" if verdict.complexity is Complexity.SHARP_P_HARD
                else "unclassified")
    if n_endogenous <= policy.exact_size_limit:
        return AdmissionDecision(
            lane="pooled", verdict=verdict,
            reason=f"query is {hardness} but |Dn| = {n_endogenous} <= "
                   f"exact_size_limit = {policy.exact_size_limit}: exact "
                   "exponential work fits a bounded pool slot",
            n_endogenous=n_endogenous, estimated_nodes=nodes)
    if nodes <= policy.circuit_node_budget:
        return AdmissionDecision(
            lane="pooled", verdict=verdict,
            reason=f"query is {hardness} and |Dn| = {n_endogenous} > "
                   f"exact_size_limit, but the worst-case circuit "
                   f"({nodes} nodes) fits circuit_node_budget = "
                   f"{policy.circuit_node_budget}",
            n_endogenous=n_endogenous, estimated_nodes=nodes)
    if allow_degraded:
        return AdmissionDecision(
            lane="degraded", verdict=verdict,
            reason=f"query is {hardness}, |Dn| = {n_endogenous} busts every "
                   "exact budget, and the client allows estimates: Monte-Carlo "
                   "sampling with the (ε, δ) guarantee",
            n_endogenous=n_endogenous, estimated_nodes=nodes)
    return AdmissionDecision(
        lane="rejected", verdict=verdict,
        reason=f"query is {hardness}, |Dn| = {n_endogenous} busts "
               f"exact_size_limit = {policy.exact_size_limit} and the "
               f"worst-case circuit ({nodes} nodes) busts "
               f"circuit_node_budget = {policy.circuit_node_budget}; the "
               "client disallows degraded estimates",
        n_endogenous=n_endogenous, estimated_nodes=nodes)


def degrade_decision(decision: AdmissionDecision,
                     reason: str) -> AdmissionDecision:
    """Reroute an admitted decision to the ``degraded`` (sampled) lane.

    Used by the service when a tripped circuit breaker forecloses the
    decision's original lane: the verdict and cost estimates stand, only the
    lane changes, and ``reason`` records why (it also lands in the report's
    ``degradation_reason`` audit trail).
    """
    return AdmissionDecision(
        lane="degraded", verdict=decision.verdict, reason=reason,
        n_endogenous=decision.n_endogenous,
        estimated_nodes=decision.estimated_nodes)


__all__ = ["AdmissionDecision", "AdmissionPolicy", "LANES", "admit",
           "degrade_decision", "estimate_circuit_nodes"]
