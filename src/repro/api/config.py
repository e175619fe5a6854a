"""Configuration of the attribution session.

One frozen, validated object carries every setting of a session: the
backend, the Monte-Carlo ``epsilon`` / ``delta`` / ``seed``, the hard-query
policy, parallelism, sharding and the value index.  Invalid values raise
:class:`repro.errors.ConfigError` at construction time, so a session never
fails halfway through a computation because of a typo in a backend name.
An explicit ``method="counting"`` always conditions the lineage; on a query
that is not hom-closed (no lineage applies) the engine runs the ``brute``
coalition enumeration instead, and the report says so.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..compile import DEFAULT_NODE_BUDGET
from ..engine.svc_engine import DEFAULT_PARALLEL_THRESHOLD, ENGINE_BACKENDS, SHARD_POLICIES
from ..errors import ConfigError
from ..values import INDICES

#: Backends a caller may request explicitly.  ``auto`` delegates the choice to
#: the dichotomy-aware dispatch of :class:`repro.api.AttributionSession`; the
#: exact names are the :class:`repro.engine.SVCEngine` backends; ``sampled``
#: is the Monte-Carlo permutation-sampling estimator.
METHODS = (*ENGINE_BACKENDS, "sampled")

#: What to do when the classifier says the query is #P-hard (or unclassified)
#: and the instance exceeds ``exact_size_limit``.
ON_HARD_POLICIES = ("sample", "exact", "raise")


@dataclass(frozen=True)
class EngineConfig:
    """Validated, immutable configuration for :class:`repro.api.AttributionSession`.

    ``method="auto"`` (the default) lets the session consult the Figure 1b
    classifier: every hom-closed query runs the compiled-lineage circuit
    (which falls back to the safe plan, or to lineage counting, when it blows
    ``circuit_node_budget``), any other query brute force, and a hard query
    on an instance above ``exact_size_limit`` Monte-Carlo sampling.  Any
    other value is an explicit override recorded in the session's
    :class:`repro.api.Explanation`.
    """

    #: Backend override; ``auto`` means dichotomy-aware dispatch.
    method: str = "auto"
    #: Additive error of the Monte-Carlo estimator (per fact).
    epsilon: float = 0.05
    #: Failure probability of the Monte-Carlo estimator (per fact).
    delta: float = 0.05
    #: Explicit sample count; ``None`` derives it from ``(epsilon, delta)``.
    n_samples: "int | None" = None
    #: RNG seed of the Monte-Carlo estimator (results are reproducible).
    seed: int = 0
    #: Policy for hard/unclassified queries on instances larger than
    #: ``exact_size_limit``: fall back to sampling, run an exponential exact
    #: backend anyway, or raise :class:`repro.errors.IntractableQueryError`.
    on_hard: str = "sample"
    #: Largest ``|Dn|`` for which a hard query is still solved exactly under
    #: ``method="auto"`` (exponential backends are fine at this scale).
    exact_size_limit: int = 16
    #: Verify the efficiency axiom (Σ values = v(Dn)) when building reports.
    check_efficiency: bool = True
    #: Worker processes for the exact engine backends; ``1`` keeps everything
    #: in-process.  With more workers the backend's pair kernel runs on a
    #: process pool, striped by fact (or, for brute, by coalition size).
    workers: int = 1
    #: Smallest ``|Dn|`` for which a multi-worker engine actually spawns a
    #: pool; below it the serial path always runs (pool startup would dominate).
    parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD
    #: Ceiling on the node count of the ``circuit`` backend's compiled
    #: lineage; past it compilation aborts and the engine falls back to the
    #: ``safe`` plan when the query has one, else to per-fact lineage
    #: conditioning (the ``counting`` backend).
    circuit_node_budget: int = DEFAULT_NODE_BUDGET
    #: Sharding axis of the exact engine's parallelism: ``"fact"`` stripes the
    #: fact list over workers (the PR 3 behaviour), ``"component"`` ships one
    #: variable-disjoint lineage island per task, ``"auto"`` picks the
    #: component axis whenever a cheap pre-pass finds at least two islands.
    shard: str = "auto"
    #: Power index the conditioned vector pairs are combined into:
    #: ``"shapley"`` (the paper's Claim A.1 weighting, the default),
    #: ``"banzhaf"`` (swing count over ``2^(n-1)``) or ``"responsibility"``
    #: (Chockler–Halpern ``1/(1+k)``).  The compiled artefacts are shared
    #: across indices; only the final weighting differs.
    index: str = "shapley"

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.on_hard not in ON_HARD_POLICIES:
            raise ConfigError(f"on_hard must be one of {ON_HARD_POLICIES}, "
                              f"got {self.on_hard!r}")
        if not (0 < self.epsilon < 1) or not (0 < self.delta < 1):
            raise ConfigError("epsilon and delta must lie strictly between 0 and 1")
        if self.n_samples is not None and self.n_samples <= 0:
            raise ConfigError(f"n_samples must be positive, got {self.n_samples}")
        if self.exact_size_limit < 0:
            raise ConfigError(f"exact_size_limit must be >= 0, got {self.exact_size_limit}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.parallel_threshold < 0:
            raise ConfigError(
                f"parallel_threshold must be >= 0, got {self.parallel_threshold}")
        if self.circuit_node_budget < 1:
            raise ConfigError(
                f"circuit_node_budget must be >= 1, got {self.circuit_node_budget}")
        if self.shard not in SHARD_POLICIES:
            raise ConfigError(f"shard must be one of {SHARD_POLICIES}, "
                              f"got {self.shard!r}")
        if self.index not in INDICES:
            raise ConfigError(f"index must be one of {INDICES}, "
                              f"got {self.index!r}")
        if self.index != "shapley" and self.method == "sampled":
            raise ConfigError(
                "the Monte-Carlo estimator samples Shapley permutations only; "
                f"index={self.index!r} requires an exact method")

    def to_json_dict(self) -> dict:
        """A JSON-serialisable rendering (embedded in report metadata)."""
        return asdict(self)


__all__ = ["ENGINE_BACKENDS", "EngineConfig", "INDICES", "METHODS",
           "ON_HARD_POLICIES", "SHARD_POLICIES"]
