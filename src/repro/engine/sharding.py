"""Island sharding of lineage DNFs: one decomposition, one ladder, one recombination.

The lineage of a hom-closed query over a realistic database splits into
*variable-disjoint islands* (Section 4.1): groups of clauses sharing no
endogenous fact.  Every exact route that prices a lineage island by island —
the engine's component shard axis, the incremental patcher and the what-if
patch route — goes through this module:

* :func:`decompose_lineage` splits a lineage DNF into :class:`SubLineage`
  islands (each a self-contained :class:`~repro.counting.dnf_counter.MonotoneDNF`
  over its own variables) plus the free variables no clause mentions;
* :func:`solve_islands` is **the island ladder**.  Per island, the first rung
  that applies wins:

  1. **pairs hit** — the island's priced record (:class:`IslandPairs`, under
     :func:`repro.workspace.store.pairs_key`) is in the store: no sweep;
  2. **circuit hit** — the island's :class:`CompiledLineage` (under
     :func:`~repro.workspace.store.circuit_key`) is in the store and fits the
     node budget: one derivative sweep, no compile;
  3. **seeded compile** — given the previous snapshot's lineage, the island
     compiles warm-started from its best-overlapping old island's circuit
     (:class:`~repro.compile.compiler.CompileSeed`);
  4. **fresh compile** — :func:`solve_component`, counting the island instead
     when it blows the node budget; on a process pool when ``workers > 1``.

  Results are written back (``IslandPairs`` and ``CompiledLineage``, nothing
  else) only when a store is attached; the rungs taken are tallied in
  :class:`PatchStats`;
* :func:`recombine_components` feeds the solved islands to the one
  recombination kernel, :func:`repro.counting.dnf_counter.recombine`, which
  returns the global FGMC vector with either every variable's conditioned
  pair (:func:`combine_component_pairs`) or its semivalue.

A component's circuit is orders of magnitude smaller than the whole
formula's (Shannon expansion is super-linear), so island-wise compute is
**less total work**, not just spread work.  All arithmetic is exact integer
arithmetic computing the same quantities as
:meth:`MonotoneDNF.conditioned_count_by_size`, so the values fed to the Claim
A.1 combiner are bitwise-identical ``Fraction`` inputs.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from ..compile.compiler import (
    DEFAULT_NODE_BUDGET,
    CircuitBudgetError,
    CompiledDNF,
    CompiledLineage,
    CompileSeed,
    compile_dnf,
)
from ..counting.dnf_counter import (
    MonotoneDNF,
    _split_components,
    binomial_row,
    recombine,
)
from ..reliability import faults

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..counting.lineage import Lineage
    from ..data.atoms import Fact
    from ..queries.base import BooleanQuery
    from ..workspace.store import ArtifactStore


@dataclass(frozen=True)
class SubLineage:
    """One variable-disjoint island of a lineage DNF.

    ``variables`` lists the island's *global* variable indices in increasing
    order; ``dnf`` is the island's clauses re-indexed to the local range
    ``0 .. len(variables) - 1``.  A sub-lineage is a few tuples of small
    integers — the cheap, always-picklable unit shipped to pool workers
    (unlike the whole-artefact payloads of the fact-striping axis).
    """

    variables: tuple[int, ...]
    dnf: MonotoneDNF

    @property
    def n_variables(self) -> int:
        """Number of endogenous facts in this island."""
        return len(self.variables)

    def to_lineage(self, facts: "Sequence[Fact]") -> "Lineage":
        """The island as a real :class:`~repro.counting.lineage.Lineage`.

        ``facts`` is the parent lineage's variable tuple.  The result is what
        per-component circuits are store-keyed by: its content hash covers
        exactly the island's facts and clauses, so a database delta that
        touches one island leaves every other island's key — and its cached
        circuit — intact.
        """
        from ..counting.lineage import Lineage

        return Lineage(tuple(facts[v] for v in self.variables), self.dnf)


@dataclass(frozen=True)
class LineageDecomposition:
    """A lineage DNF split into variable-disjoint components.

    ``components`` are ordered by their smallest global variable (a
    deterministic order — :func:`_split_components` iterates sets);
    ``free_variables`` are the endogenous facts no clause mentions (null
    players by Claim 5.1).  A trivially *true* DNF decomposes into zero
    components with ``trivially_true`` set (every subset satisfies it); a
    trivially *false* DNF into zero components with the flag clear.
    """

    n_variables: int
    components: tuple[SubLineage, ...]
    free_variables: tuple[int, ...]
    trivially_true: bool = False

    @property
    def n_components(self) -> int:
        """Number of variable-disjoint islands."""
        return len(self.components)

    @property
    def largest_component(self) -> int:
        """Variable count of the largest island (``0`` for trivial lineages)."""
        return max((c.n_variables for c in self.components), default=0)


def decompose_dnf(dnf: MonotoneDNF) -> LineageDecomposition:
    """Split a monotone DNF into variable-disjoint :class:`SubLineage` islands.

    Uses the same component machinery as the recursive counter and the
    circuit compiler, so the islands here are exactly the factors their
    complement products range over.
    """
    n = dnf.n_variables
    if dnf.is_trivially_true():
        return LineageDecomposition(n, (), tuple(range(n)), trivially_true=True)
    components: list[SubLineage] = []
    covered: set[int] = set()
    for clause_group in _split_components(dnf.clauses):
        variables = tuple(sorted(frozenset().union(*clause_group)))
        covered.update(variables)
        local = {v: i for i, v in enumerate(variables)}
        local_clauses = [frozenset(local[v] for v in clause)
                         for clause in clause_group]
        components.append(SubLineage(variables,
                                     MonotoneDNF(len(variables), local_clauses)))
    components.sort(key=lambda c: c.variables)
    free = tuple(v for v in range(n) if v not in covered)
    return LineageDecomposition(n, tuple(components), free)


def decompose_lineage(lineage: "Lineage") -> LineageDecomposition:
    """The decomposition of a lineage's DNF (the engine's cheap pre-pass)."""
    return decompose_dnf(lineage.dnf)


@dataclass(frozen=True)
class ComponentResult:
    """Everything the driver needs back from one solved island.

    ``models`` is the island DNF's model-count vector (length ``n_i + 1``);
    ``pairs`` maps each *local* variable to its conditioned model-count pair
    — ``(true_models, false_models)``, each of length ``n_i`` — exactly
    :meth:`MonotoneDNF.conditioned_count_by_size` of the island DNF.
    ``compiled`` carries the island's circuit back to the parent only when it
    asked for it (for store puts); pool workers drop it otherwise so the
    result transfer stays a few short integer vectors per island.
    """

    index: int
    models: tuple[int, ...]
    pairs: "dict[int, tuple[list[int], list[int]]]" = field(compare=False)
    mode: str = "counting"
    circuit_nodes: "int | None" = None
    compile_time_s: "float | None" = None
    compiled: "CompiledDNF | None" = field(default=None, compare=False)
    fallback: "str | None" = None


@dataclass(frozen=True)
class IslandPairs:
    """One island's priced result, as stored under ``pairs_key``.

    Content-addressed by the island's ``(query, sub-lineage)`` hash, so it is
    decomposition-independent (no island index inside) and any snapshot
    whose delta left the island untouched reloads it as a hit — the cheapest
    rung of the ladder.  Records written before ``compile_time_s`` and
    ``fallback`` existed load with both ``None``.
    """

    models: tuple[int, ...]
    pairs: "dict[int, tuple[list[int], list[int]]]" = field(compare=False)
    mode: str = "counting"
    circuit_nodes: "int | None" = None
    compile_time_s: "float | None" = None
    fallback: "str | None" = None

    def to_result(self, index: int) -> ComponentResult:
        """The stored record as the per-island result of decomposition slot ``index``."""
        return ComponentResult(index, **{f.name: getattr(self, f.name)
                                         for f in fields(self)})

    @classmethod
    def from_result(cls, result: ComponentResult) -> "IslandPairs":
        return cls(**{f.name: getattr(result, f.name) for f in fields(cls)})


def result_from_compiled(index: int, compiled: CompiledDNF,
                         compile_time_s: "float | None" = None,
                         keep_circuit: bool = False) -> ComponentResult:
    """An island's result read off an (already compiled) circuit.

    One top-down derivative sweep prices every local conditioned pair at once;
    this is also the path a store hit takes — sweep the cached circuit, never
    recompile it.
    """
    return ComponentResult(
        index=index,
        models=tuple(compiled.count_by_size()),
        pairs=compiled.conditioned_pairs(),
        mode="circuit",
        circuit_nodes=compiled.size,
        compile_time_s=compile_time_s,
        compiled=compiled if keep_circuit else None)


def _result_by_counting(sub: SubLineage, index: int) -> ComponentResult:
    dnf = sub.dnf
    return ComponentResult(
        index=index,
        models=tuple(dnf.count_by_size()),
        pairs={v: dnf.conditioned_count_by_size(v)
               for v in range(sub.n_variables)},
        mode="counting")


def solve_component(sub: SubLineage, index: int, mode: str = "counting",
                    node_budget: int = DEFAULT_NODE_BUDGET,
                    keep_circuit: bool = False,
                    seed: "CompileSeed | None" = None,
                    retain_cache: bool = False) -> ComponentResult:
    """Solve one island: compile-and-sweep (``"circuit"``) or condition (``"counting"``).

    The node budget applies *per component* in circuit mode; an island that
    blows it is counted instead (recorded in ``fallback``) while the other
    islands keep their circuits — the graceful degradation the whole-formula
    compiler can only apply all-or-nothing.  ``seed`` and ``retain_cache``
    pass through to :func:`~repro.compile.compiler.compile_dnf`.
    """
    faults.check("engine.solve_component")
    if mode == "circuit":
        start = time.perf_counter()
        try:
            compiled = compile_dnf(sub.dnf, node_budget=node_budget,
                                   retain_cache=retain_cache, seed=seed)
        except CircuitBudgetError as error:
            return replace(_result_by_counting(sub, index), fallback=str(error))
        return result_from_compiled(index, compiled,
                                    compile_time_s=time.perf_counter() - start,
                                    keep_circuit=keep_circuit)
    if mode != "counting":
        raise ValueError(f"unknown component mode {mode!r}")
    return _result_by_counting(sub, index)


@dataclass
class PatchStats:
    """Which rung of the island ladder priced each island (audit record)."""

    islands: int = 0
    free_variables: int = 0
    pairs_hits: int = 0
    circuit_hits: int = 0
    seeded_compiles: int = 0
    fresh_compiles: int = 0
    counting_islands: int = 0

    @property
    def reused(self) -> int:
        """Islands that paid no compile at all (pairs or circuit hits)."""
        return self.pairs_hits + self.circuit_hits

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolvedIslands:
    """The ladder's output: one result per island, in decomposition order.

    ``workers_used`` is ``1`` unless a pool ran; ``pool_fallback`` is the
    audit line when the pool was unavailable or lost islands to failures.
    """

    results: "tuple[ComponentResult, ...]"
    stats: PatchStats
    workers_used: int = 1
    pool_fallback: "str | None" = None


def solve_islands(query: "BooleanQuery", decomposition: LineageDecomposition,
                  facts: "Sequence[Fact]", *,
                  store: "ArtifactStore | None" = None, mode: str = "circuit",
                  node_budget: int = DEFAULT_NODE_BUDGET,
                  previous: "Lineage | Callable[[], Lineage | None] | None" = None,
                  retain_cache: bool = False, workers: int = 1) -> SolvedIslands:
    """Price every island of ``decomposition`` through the ladder (module doc).

    ``facts`` is the lineage's variable tuple (islands are store-keyed by
    their facts).  ``mode`` picks the kernel for islands missing every cache.
    ``previous`` — the pre-delta lineage, or a zero-argument callable
    returning it, called at most once and only when some island reaches the
    seeded rung — enables seeded compiles.  ``retain_cache`` keeps the
    compiled circuits' formula caches so a later ladder can seed from them.
    """
    if mode not in ("circuit", "counting"):
        raise ValueError(f"unknown component mode {mode!r}")
    components = decomposition.components
    stats = PatchStats(islands=len(components),
                       free_variables=len(decomposition.free_variables))
    results: "list[ComponentResult | None]" = [None] * len(components)
    keys: list = [None] * len(components)
    pending: "list[int]" = []
    keep = store is not None
    if keep:
        from ..workspace.store import circuit_key, pairs_key
    for i, sub in enumerate(components):
        if keep:
            island = sub.to_lineage(facts)
            keys[i] = (island, pairs_key(query, island), circuit_key(query, island))
            hit = store.get(keys[i][1])
            if isinstance(hit, IslandPairs) and len(hit.models) == sub.n_variables + 1:
                stats.pairs_hits += 1
                results[i] = hit.to_result(i)
                continue
            hit = store.get(keys[i][2])
            if (isinstance(hit, CompiledLineage) and hit.size <= node_budget
                    and hit.n_variables == sub.n_variables):
                stats.circuit_hits += 1
                results[i] = result_from_compiled(i, hit.compiled, hit.compile_time_s)
                store.put(keys[i][1], IslandPairs.from_result(results[i]))
                continue
        pending.append(i)

    serial = pending
    workers_used, pool_fallback = 1, None
    if workers > 1 and len(pending) >= 2:
        from . import parallel

        outcome = parallel.parallel_component_results(
            [(i, components[i]) for i in pending], mode, node_budget, workers,
            keep_circuits=keep)
        if outcome is None:
            pool_fallback = ("pool→serial: the process pool was unavailable; "
                             "every island solved in-process")
        else:
            for result in outcome.results:
                results[result.index] = result
            workers_used = min(workers, len(pending))
            if outcome.retried or outcome.degraded:
                pool_fallback = (
                    f"pool→in-process: {outcome.retried} island task(s) "
                    f"resubmitted after worker failure, {outcome.degraded} "
                    f"of {len(pending)} island(s) solved in the parent")
            serial = []
    old = None      # (previous lineage, its decomposition), resolved once
    seeded: "set[int]" = set()
    for i in serial:
        seed = None
        if keep and previous is not None and mode == "circuit":
            if old is None:
                lineage = previous() if callable(previous) else previous
                old = () if lineage is None else (lineage, decompose_lineage(lineage))
            if old:
                seed = _overlap_seed(query, store, components[i], facts, *old)
        if seed is not None:
            seeded.add(i)
        results[i] = solve_component(components[i], i, mode, node_budget,
                                     keep_circuit=keep, seed=seed,
                                     retain_cache=retain_cache)

    for i in pending:
        result = results[i]
        if result.mode == "counting":
            stats.counting_islands += 1
        elif i in seeded:
            stats.seeded_compiles += 1
        else:
            stats.fresh_compiles += 1
        if keep:
            island, pkey, ckey = keys[i]
            if result.compiled is not None:
                store.put(ckey, CompiledLineage(island, result.compiled,
                                                result.compile_time_s or 0.0))
                result = results[i] = replace(result, compiled=None)
            store.put(pkey, IslandPairs.from_result(result))
    return SolvedIslands(tuple(results), stats, workers_used, pool_fallback)


def _overlap_seed(query, store, sub: SubLineage, facts, previous: "Lineage",
                  old: LineageDecomposition) -> "CompileSeed | None":
    """A compile seed from the previous snapshot's best-overlapping island.

    Needs the old island's circuit *with its formula cache* in the store —
    only circuits compiled with ``retain_cache`` carry one.  Variables are
    renumbered old-local → new-local by fact identity, which is injective by
    construction.
    """
    local = {facts[g]: j for j, g in enumerate(sub.variables)}

    def overlap(old_sub: SubLineage) -> int:
        return sum(previous.variables[g] in local for g in old_sub.variables)

    best = max(old.components, key=overlap, default=None)
    if best is None or not overlap(best):
        return None
    from ..workspace.store import circuit_key

    cached = store.get(circuit_key(query, best.to_lineage(previous.variables)))
    if not isinstance(cached, CompiledLineage) or cached.compiled.formula_cache is None:
        return None
    renumber = {j: local[previous.variables[g]] for j, g in enumerate(best.variables)
                if previous.variables[g] in local}
    try:
        return CompileSeed(cached.compiled, renumber)
    except ValueError:
        return None


def recombine_components(decomposition: LineageDecomposition,
                         results: "Sequence[ComponentResult]",
                         weights: "Sequence[Fraction] | None" = None,
                         ) -> "tuple[list[int], dict]":
    """The global FGMC vector plus pairs (or semivalues) from solved islands.

    Flips each island's model-space result into the complement vectors
    :func:`~repro.counting.dnf_counter.recombine` takes and returns its
    output keyed by *global* variable: ``(models, {v: pair})``, or
    ``(models, {v: semivalue})`` given ``weights``.  A trivially true
    lineage is one constant-true factor over zero variables.
    """
    ordered = sorted(results, key=lambda r: r.index)
    if len(ordered) != decomposition.n_components or any(
            r.index != i for i, r in enumerate(ordered)):
        raise ValueError("results do not cover the decomposition's components")
    complements: "list[list[int]]" = []
    branches: "list[dict[int, list[int]]]" = []
    for sub, result in zip(decomposition.components, ordered):
        local_total = binomial_row(sub.n_variables - 1)
        complements.append([total - count for total, count
                            in zip(binomial_row(sub.n_variables), result.models)])
        branches.append({sub.variables[v]: [t - x for t, x in zip(local_total, true_models)]
                         for v, (true_models, _) in result.pairs.items()})
    if decomposition.trivially_true:
        complements.append([0])
        branches.append({})
    free = decomposition.free_variables
    return recombine(complements, branches, len(free), free, weights)


def combine_component_pairs(decomposition: LineageDecomposition,
                            results: "Sequence[ComponentResult]",
                            ) -> "dict[int, tuple[list[int], list[int]]]":
    """Recombine per-island pairs into the global conditioned FGMC pairs.

    Returns ``{global_variable: (with_vector, without_vector)}`` with both
    vectors of length ``n`` (sizes ``0 .. n-1`` over the other ``n-1``
    variables) — integer for integer what
    :meth:`MonotoneDNF.conditioned_count_by_size` returns on the whole
    formula, ready for the Claim A.1 combiner.
    """
    return recombine_components(decomposition, results)[1]


__all__ = [
    "ComponentResult",
    "IslandPairs",
    "LineageDecomposition",
    "PatchStats",
    "SolvedIslands",
    "SubLineage",
    "combine_component_pairs",
    "decompose_dnf",
    "decompose_lineage",
    "recombine_components",
    "result_from_compiled",
    "solve_component",
    "solve_islands",
]
