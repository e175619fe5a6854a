"""Batched value computation (the SVC engine subsystem).

One shared artefact per ``(query, database)`` pair — compiled circuit,
lineage or safe plan; brute force enumerates the coalitions once — from which
one pair kernel per backend (:mod:`repro.engine.backends`) reads every fact's
conditioned vector pair.  The configured :class:`repro.values.ValueIndex`
(Shapley, Banzhaf or responsibility) is applied to the pairs once.  See
:mod:`repro.engine.svc_engine` for the design notes.
"""

from .backends import combine_fgmc_vectors
from .sharding import (
    ComponentResult,
    LineageDecomposition,
    SubLineage,
    combine_component_pairs,
    decompose_dnf,
    decompose_lineage,
    solve_component,
)
from .svc_engine import (
    DEFAULT_PARALLEL_THRESHOLD,
    SHARD_POLICIES,
    EngineBackend,
    ShardPolicy,
    SVCEngine,
    clear_engine_cache,
    engine_cache_stats,
    get_engine,
    resolve_auto_backend,
)

__all__ = [
    "DEFAULT_PARALLEL_THRESHOLD",
    "SHARD_POLICIES",
    "ComponentResult",
    "EngineBackend",
    "LineageDecomposition",
    "SVCEngine",
    "ShardPolicy",
    "SubLineage",
    "clear_engine_cache",
    "combine_component_pairs",
    "combine_fgmc_vectors",
    "decompose_dnf",
    "decompose_lineage",
    "engine_cache_stats",
    "get_engine",
    "resolve_auto_backend",
    "solve_component",
]
