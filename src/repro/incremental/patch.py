"""Circuit patching: recompute only the islands a lineage delta touched.

A cold refresh recompiles and resweeps the *whole* lineage after every
in-support delta.  But the decomposition proves the expensive artefacts
factor along the lineage's variable-disjoint islands, and the artifact store
keys them by ``(query, sub-lineage)`` content hash — so a single-fact delta,
which perturbs exactly one island, should pay for exactly one island.

:func:`patch_attribution` is the engine's island ladder
(:func:`repro.engine.sharding.solve_islands`) run with the pre-delta lineage
at hand: untouched islands are pairs or circuit hits, and a changed island
recompiles *seeded* from the previous snapshot's best-overlapping island
circuit.  The patcher keeps every circuit it compiles seedable (formula
cache retained), so the next delta on the same island seeds from this one.
Semivalue indices then take the recombination kernel's U-transform output
(:func:`repro.counting.dnf_counter.recombine`), which skips materialising
per-variable global vectors — where the steady state's ≥5x over cold comes
from; other indices combine the kernel's pairs.  Everything is exact integer
/ ``Fraction`` arithmetic computing the same quantities as a cold session —
bitwise parity is the contract, and the property tests hold it across
backends and stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from ..compile.compiler import DEFAULT_NODE_BUDGET
from ..engine.sharding import (
    IslandPairs,
    PatchStats,
    decompose_lineage,
    recombine_components,
    solve_islands,
)
from ..values.indexes import ValueIndex, get_index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..counting.lineage import Lineage
    from ..data.atoms import Fact
    from ..queries.base import BooleanQuery
    from ..workspace.store import ArtifactStore


@dataclass(frozen=True)
class PatchResult:
    """An island-patched attribution: exact values plus the FGMC vector."""

    values: "dict[Fact, Fraction]"
    models: "list[int]"
    backend: str
    stats: PatchStats

    @property
    def satisfiable(self) -> bool:
        """Whether the full endogenous set (with ``Dx``) satisfies the query."""
        return bool(self.models) and self.models[-1] > 0


def patch_attribution(query: "BooleanQuery", lineage: "Lineage", *,
                      store: "ArtifactStore", index: "str | ValueIndex",
                      mode: str = "circuit",
                      node_budget: int = DEFAULT_NODE_BUDGET,
                      previous: "Lineage | Callable[[], Lineage] | None" = None,
                      ) -> PatchResult:
    """Price a whole lineage by patching, island by island (see module doc).

    ``mode`` picks the per-island kernel for islands that miss every cache
    (``"circuit"`` or ``"counting"`` — the workspace maps its backend here);
    ``previous`` is the pre-delta lineage, enabling seeded recompiles.  It
    may be a zero-argument callable returning that lineage, in which case it
    is only invoked (once) if some island actually misses both the pairs and
    circuit caches — a steady-state refresh whose islands all hit never
    builds it.  Returns exact values for **every** endogenous fact (free
    variables price to 0) plus the global FGMC vector — bitwise what a cold
    session computes.
    """
    index = get_index(index)
    if mode not in ("circuit", "counting"):
        raise ValueError(f"unknown patch mode {mode!r}")
    decomposition = decompose_lineage(lineage)
    solved = solve_islands(query, decomposition, lineage.variables,
                           store=store, mode=mode, node_budget=node_budget,
                           previous=previous, retain_cache=True)
    n = decomposition.n_variables
    weights = ([index.subset_weight(j, n) for j in range(n)]
               if index.is_semivalue else None)
    models, by_variable = recombine_components(decomposition, solved.results,
                                               weights)
    if weights is None:
        by_variable = {v: index.combine(with_vector, without_vector, n)
                       for v, (with_vector, without_vector)
                       in by_variable.items()}
    variables = lineage.variables
    return PatchResult(values={variables[v]: value
                               for v, value in by_variable.items()},
                       models=models, backend=mode, stats=solved.stats)


__all__ = [
    "IslandPairs",
    "PatchResult",
    "PatchStats",
    "patch_attribution",
]
