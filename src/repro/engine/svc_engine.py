"""The batched SVC engine: all Shapley values from one shared lineage.

The paper's headline reduction (Proposition 3.3 / Claim A.1) expresses the
Shapley value of a fact ``μ`` as an affine combination of two FGMC vectors —
on ``(Dn \\ {μ}, Dx ∪ {μ})`` and on ``(Dn \\ {μ}, Dx)``.  Computed fact by
fact this rebuilds the lineage DNF (an expensive homomorphism enumeration)
``2n`` times for ``n`` endogenous facts.  The engine instead derives every
per-fact vector pair from **one** shared artefact per ``(query, database)``:

* ``circuit``  — compile the lineage once into a smoothed, decomposable
  decision circuit (:mod:`repro.compile`) and read **all** per-fact vector
  pairs off it in one top-down derivative sweep — ``O(|circuit| · n)`` total
  instead of ``n`` independent conditionings; compilation is bounded by a
  node budget, beyond which the engine falls back to ``counting``,
* ``counting`` — build the lineage once and obtain each pair by *conditioning*
  the DNF (``x_μ := true`` / ``x_μ := false``); the memoised component
  decomposition of the counter is shared across all ``n`` conditionings.
  Only hom-closed queries have a lineage: an explicit ``counting`` request on
  any other query resolves to ``brute`` (the same ``Fraction``s),
* ``safe``     — compile one safe plan, interpolate the full-database FGMC
  vector once, and per fact interpolate only the "fact removed" vector; the
  "fact exogenous" vector follows from the partition identity
  ``full[k] = with[k-1] + without[k]``, halving the lifted-PQE work and
  sharing the plan across all evaluations,
* ``brute``    — enumerate the ``2^n`` coalitions once, adding each
  coalition's value to the pair strata of every fact (one query evaluation
  per coalition instead of one per coalition *per fact*, and no table).

``method="auto"`` resolves safe → circuit → brute from the query's structure
alone (:func:`resolve_auto_backend`); the circuit choice degrades to
``counting`` at artefact-build time when compilation blows the node budget.
A module-level LRU keyed by ``(query, pdb, resolved method, workers,
parallel_threshold, circuit_node_budget, store, shard, index)`` lets
independent call sites (ranking, max-SVC, relevance analysis, CLI) reuse the
same engine and its artefacts; ``auto`` is resolved to its concrete backend
*before* keying, so an ``auto`` call and an explicit call share one engine.

Every backend ends at the same seam — a per-fact conditioned vector pair
from its pair kernel (:mod:`repro.engine.backends`) — combined by a pluggable
:class:`repro.values.ValueIndex` (``index=``: Shapley by default, Banzhaf or
responsibility on request), applied once, in :meth:`SVCEngine._combine`.  The
artefacts are index-independent: engines for different indices hold distinct
LRU entries but share plans, lineages and circuits through an attached
:class:`~repro.workspace.ArtifactStore`.

Because every per-fact pair is an independent read-off of the shared
artefact, the whole-database workload shards across worker processes: with
``workers > 1`` the engine runs the pair kernel on stripes of facts (circuit,
counting, safe) or of coalition sizes (brute) over a
:class:`~concurrent.futures.ProcessPoolExecutor` (see
:mod:`repro.engine.parallel`), degrading gracefully to the serial kernel when
the instance is small, the artefact fails to pickle, or the pool cannot be
created.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Literal, get_args

from ..compile import (
    DEFAULT_NODE_BUDGET,
    CircuitBudgetError,
    CompiledLineage,
    compile_lineage,
)
from ..counting.lineage import Lineage, build_lineage
from ..data.atoms import Fact
from ..data.database import PartitionedDatabase
from ..probability.interpolation import fgmc_vector_via_pqe
from ..probability.lifted import Plan, UnsafeQueryError, evaluate_plan, safe_plan
from ..queries.base import BooleanQuery
from ..queries.cq import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries
from ..values import ValueIndex, get_index
from . import backends, parallel, sharding

if TYPE_CHECKING:  # pragma: no cover - typing only
    # repro.workspace sits *above* the engine (its workspace module builds on
    # repro.api, which builds on this module), so the runtime imports of the
    # store helpers happen lazily inside the artefact methods.
    from ..workspace.store import ArtifactStore

#: Default smallest ``|Dn|`` for which a multi-worker engine actually spawns a
#: pool: below it, per-process startup dominates any conceivable speedup
#: (2^11 coalitions enumerate in well under pool-startup time, and the
#: counting backend's per-fact conditionings are sub-millisecond at that size).
DEFAULT_PARALLEL_THRESHOLD = 12

#: Backend names; ``auto`` resolves to the first applicable of
#: safe/circuit/brute (circuit degrading to counting on budget overrun).
EngineBackend = Literal["auto", "brute", "circuit", "counting", "safe"]
_BACKENDS = get_args(EngineBackend)

#: Sharding policies for the exact backends.  ``"fact"`` stripes per-fact
#: work over the whole shared artefact (the PR 3 axis); ``"component"``
#: decomposes the lineage into variable-disjoint islands and solves each
#: island independently (less total work, and the unit that parallelises);
#: ``"auto"`` picks the component axis whenever a cheap decomposition
#: pre-pass finds at least two islands.  Backends without a lineage (safe,
#: brute) always use the fact axis.
ShardPolicy = Literal["auto", "component", "fact"]
SHARD_POLICIES = ("auto", "component", "fact")


def resolve_auto_backend(query: BooleanQuery) -> "tuple[str, Plan | None]":
    """Resolve ``method="auto"`` to its concrete backend from the query alone.

    The exact safe → counting → brute ladder, extended by knowledge
    compilation: a safe plan when the conservative compiler finds one, else
    the circuit backend for (C-)hom-closed queries (it degrades to
    ``counting`` per instance if compilation blows the node budget — an
    instance-level decision that cannot be made here), else brute force.
    Returns the compiled safe plan alongside the name so callers that
    resolved eagerly (the engine LRU) can seed the engine without compiling
    the plan twice.
    """
    if isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
        try:
            return "safe", safe_plan(query)
        except UnsafeQueryError:
            pass
    if query.is_hom_closed:
        return "circuit", None
    return "brute", None


#: Memoised resolution for the engine LRU: ``get_engine`` resolves ``auto``
#: on every call, and the safe-plan attempt must not be paid per call.
#: Unhashable queries raise ``TypeError`` here — callers fall back to an
#: uncached engine, exactly like an unhashable LRU key.
_resolved_auto = lru_cache(maxsize=1024)(resolve_auto_backend)


def _ranking_key(item: "tuple[Fact, Fraction]") -> "tuple[Fraction, Fact]":
    """The shared sort key of every Shapley ranking in the package.

    Facts are ordered by decreasing Shapley value; equal values are broken by
    the library's total order on facts (NOT by string rendering).  This is the
    single deterministic tie-breaking contract promised by
    :meth:`SVCEngine.ranking` and :meth:`repro.api.AttributionSession.ranking`.
    """
    fact, value = item
    return (-value, fact)


class SVCEngine:
    """Batched Shapley value computation for one ``(query, database)`` pair.

    The engine resolves its backend lazily (so constructing one is free) and
    caches every shared artefact — lineage, compiled circuit, safe plan, full
    FGMC vector — as well as each per-fact value.  Every value takes one
    path: :meth:`_pairs` yields the facts' conditioned vector pairs (the
    backend's pair kernel, or the island recombination on the component
    axis) and :meth:`_combine` applies the configured index to them.
    ``all_values`` is therefore ``O(lineage + n · conditioning)`` instead of
    the per-fact loop's ``O(n · lineage)``.

    With ``workers > 1`` and at least ``parallel_threshold`` pending facts,
    :meth:`all_values` runs the pair kernel on a process pool — striped by
    fact (circuit, counting, safe) or by coalition size (brute) — and sums
    the workers' integer pair partials; the values land in the same
    ``_values`` memo, so ``value_of`` / ``ranking`` / ``max_value`` are
    oblivious to how they were computed.  :attr:`workers_used` records what
    actually ran.
    """

    def __init__(self, query: BooleanQuery, pdb: PartitionedDatabase,
                 method: EngineBackend = "auto",
                 workers: int = 1,
                 parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD,
                 circuit_node_budget: int = DEFAULT_NODE_BUDGET,
                 store: "ArtifactStore | None" = None,
                 shard: ShardPolicy = "auto",
                 index: "str | ValueIndex" = "shapley"):
        if method not in _BACKENDS:
            raise ValueError(
                f"method must be one of {_BACKENDS}, got {method!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if parallel_threshold < 0:
            raise ValueError(
                f"parallel_threshold must be >= 0, got {parallel_threshold}")
        if circuit_node_budget < 1:
            raise ValueError(
                f"circuit_node_budget must be >= 1, got {circuit_node_budget}")
        if shard not in SHARD_POLICIES:
            raise ValueError(
                f"shard must be one of {SHARD_POLICIES}, got {shard!r}")
        self.query = query
        self.pdb = pdb
        self.method = method
        self.workers = workers
        self.parallel_threshold = parallel_threshold
        self.circuit_node_budget = circuit_node_budget
        self.store = store
        self.shard = shard
        self._index: ValueIndex = get_index(index)  # raises on unknown names
        self.index = self._index.name
        self._backend: "str | None" = None
        self._plan: "Plan | None" = None
        self._lineage: "Lineage | None" = None
        self._compiled: "CompiledLineage | None" = None
        self._circuit_fallback: "str | None" = None
        self._pool_fallback: "str | None" = None
        self._full_vector: "list[int] | None" = None
        self._values: dict[Fact, Fraction] = {}
        self._workers_used: int = 1
        self._decomposition_memo: "sharding.LineageDecomposition | None" = None
        self._component_results_memo: "tuple[sharding.ComponentResult, ...] | None" = None

    # -- backend resolution -----------------------------------------------------
    def backend(self) -> str:
        """The resolved backend name (``safe``, ``circuit``, ``counting`` or ``brute``)."""
        if self._backend is None:
            self._backend = self._resolve_backend()
        return self._backend

    def _resolve_backend(self) -> str:
        if self.method == "counting" and not self.query.is_hom_closed:
            # No lineage to condition.  The brute kernel's pairs differ
            # from the FGMC pairs only by the q(Dx) offset, which cancels in
            # with[j] - without[j], all that any index reads.
            return "brute"
        if self.method in ("brute", "counting"):
            return self.method
        if self.method == "safe":
            self._ensure_plan()
            return "safe"
        if self.method == "circuit":
            return self._resolve_circuit()
        # auto: the query-level ladder, then the instance-level budget check
        # for the circuit choice.
        name, plan = resolve_auto_backend(self.query)
        if plan is not None and self._plan is None:
            self._plan = plan
        if name == "circuit":
            return self._resolve_circuit()
        return name

    def _resolve_circuit(self) -> str:
        """``circuit`` when the lineage compiles under the node budget, else ``counting``.

        On the component shard axis no whole-formula circuit is built at all:
        each island compiles under its own budget inside the component path
        (with a *per-island* counting fallback), so resolution only has to
        run the cheap decomposition pre-pass.
        """
        if not self.query.is_hom_closed:
            raise ValueError(
                "the circuit backend requires a (C-)hom-closed query; "
                f"{type(self.query).__name__} is not")
        if self._component_axis_for("circuit"):
            return "circuit"
        try:
            self._ensure_compiled()
        except CircuitBudgetError as error:
            self._circuit_fallback = str(error)
            return "counting"
        return "circuit"

    # -- shared artefacts -------------------------------------------------------
    def _ensure_plan(self) -> Plan:
        if self._plan is None:
            if not isinstance(self.query, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
                raise UnsafeQueryError("the safe pipeline applies to CQs and UCQs only")
            from ..workspace.store import cached, plan_key

            self._plan = cached(self.store, lambda: plan_key(self.query), Plan,
                                lambda: safe_plan(self.query))
        return self._plan

    def lineage(self) -> Lineage:
        """The shared lineage of the query over the database (built once).

        With an :class:`~repro.workspace.ArtifactStore` attached, the lineage
        is looked up by content hash of ``(query, database)`` first — a hit
        skips the homomorphism enumeration entirely — and stored on a miss so
        later engines (and later processes, for a disk-backed store) reuse it.
        """
        if self._lineage is None:
            from ..workspace.store import cached, lineage_key

            self._lineage = cached(
                self.store, lambda: lineage_key(self.query, self.pdb), Lineage,
                lambda: build_lineage(self.query, self.pdb))
        return self._lineage

    def _ensure_compiled(self) -> CompiledLineage:
        """The lineage compiled to a circuit (once; raises on budget overrun).

        Circuits are store-keyed by content hash of ``(query, lineage)``: any
        database snapshot producing the same lineage — in particular one that
        differs only outside the query's support — reuses one compiled
        circuit.  A stored circuit larger than this engine's node budget is
        ignored (the recompile then raises :class:`CircuitBudgetError` exactly
        as a fresh compilation would).
        """
        if self._compiled is None:
            from ..workspace.store import cached, circuit_key

            budget = self.circuit_node_budget
            self._compiled = cached(
                self.store, lambda: circuit_key(self.query, self.lineage()),
                CompiledLineage,
                lambda: compile_lineage(self.lineage(), node_budget=budget),
                accept=lambda compiled: compiled.size <= budget)
        return self._compiled

    def _fgmc_via_plan(self, pdb: PartitionedDatabase) -> list[int]:
        plan = self._ensure_plan()
        return fgmc_vector_via_pqe(self.query, pdb,
                                   pqe_solver=lambda _q, tid: evaluate_plan(plan, tid))

    def _full_fgmc(self) -> list[int]:
        if self._full_vector is None:
            self._full_vector = self._fgmc_via_plan(self.pdb)
        return self._full_vector

    # -- component shard axis -----------------------------------------------------
    def _decomposition(self) -> "sharding.LineageDecomposition":
        """The lineage's island decomposition (the cheap sharding pre-pass)."""
        if self._decomposition_memo is None:
            self._decomposition_memo = sharding.decompose_lineage(self.lineage())
        return self._decomposition_memo

    def _component_axis_for(self, backend: str) -> bool:
        """Whether the component shard axis applies to the given backend.

        Only the lineage-based exact backends decompose (safe plans and the
        coalition enumeration have no island structure to exploit); an explicit
        ``shard="component"`` request on the other backends degrades
        gracefully to the fact axis, mirroring how the circuit backend
        degrades to counting on a blown budget.  ``shard="auto"`` takes the
        component axis only when the pre-pass finds at least two islands —
        one island means component-wise compute *is* whole-formula compute.
        """
        if self.shard == "fact" or backend not in ("circuit", "counting"):
            return False
        if self.shard == "component":
            return True
        return self._decomposition().n_components >= 2

    def _component_results(self) -> "tuple[sharding.ComponentResult, ...]":
        """Every island priced through the island ladder (:func:`sharding.solve_islands`).

        With an artifact store attached, a database delta inside the lineage
        support re-prices only the island it touches; every other island is a
        store hit.  Misses are solved on a process pool when ``workers > 1``
        and the instance reaches ``parallel_threshold``.
        """
        if self._component_results_memo is not None:
            return self._component_results_memo
        decomposition = self._decomposition()
        workers = (self.workers
                   if len(self.pdb.endogenous) >= self.parallel_threshold else 1)
        solved = sharding.solve_islands(
            self.query, decomposition, self.lineage().variables,
            store=self.store,
            mode="circuit" if self.backend() == "circuit" else "counting",
            node_budget=self.circuit_node_budget, workers=workers)
        if solved.workers_used > 1:
            self._workers_used = solved.workers_used
        if solved.pool_fallback is not None:
            self._pool_fallback = solved.pool_fallback
        fallbacks = [r for r in solved.results if r.fallback is not None]
        if fallbacks and self._circuit_fallback is None:
            self._circuit_fallback = (
                f"{len(fallbacks)} of {len(solved.results)} components fell "
                f"back to counting: {fallbacks[0].fallback}")
        self._component_results_memo = solved.results
        return self._component_results_memo

    # -- the pairs path -----------------------------------------------------------
    def _pairs(self, facts: "list[Fact]", workers: int = 1
               ) -> "dict[Fact, tuple[list[int], list[int]]]":
        """The conditioned vector pairs of ``facts``, or of every pending fact.

        Counting and safe price each fact on its own, so only ``facts`` are
        priced.  The circuit sweep, the island recombination and the brute
        enumeration price every fact in one pass, so they return the pair of
        every pending fact — one value costs the same as all.  The component
        axis recombines the solved islands; every other route runs the
        backend's pair kernel (:data:`backends.PAIR_KERNELS`), on a process
        pool when ``workers > 1`` — falling back to the serial kernel, with an
        audit line, when the pool is unavailable or fails.
        """
        backend = self.backend()
        component = self._component_axis_for(backend)
        if component or backend not in ("counting", "safe"):
            facts = [f for f in sorted(self.pdb.endogenous) if f not in self._values]
        if component:
            pairs = sharding.combine_component_pairs(self._decomposition(),
                                                     self._component_results())
            lineage = self.lineage()
            return {f: pairs[lineage.index_of(f)] for f in facts}
        # The artefact is built here, in the parent, so resolution errors
        # raise here rather than inside a pool worker.
        items = facts
        if backend == "circuit":
            artefact = self._ensure_compiled()
        elif backend == "counting":
            artefact = self.lineage()
        elif backend == "safe":
            artefact = (self.query, self._ensure_plan(), self.pdb, self._full_fgmc())
        else:  # brute stripes coalition sizes, not facts
            artefact = (self.query, self.pdb)
            items = list(range(len(self.pdb.endogenous) + 1))
        if workers > 1:
            pairs = parallel.parallel_pairs(backend, artefact, items, workers)
            if pairs is not None:
                self._workers_used = min(workers, len(items))
                return pairs
            self._pool_fallback = (
                "pool→serial: the process pool was unavailable or failed; "
                "per-fact work computed serially")
        return backends.PAIR_KERNELS[backend](artefact, items)

    def _combine(self, pairs: "dict[Fact, tuple[list[int], list[int]]]") -> None:
        """Memoise the configured index's value of each fact from its pair.

        The only place the index is applied: every route above yields pairs.
        """
        n = len(self.pdb.endogenous)
        for f, (with_vec, without_vec) in pairs.items():
            self._values[f] = self._index.combine(with_vec, without_vec, n)

    # -- parallel execution -------------------------------------------------------
    @property
    def workers_used(self) -> int:
        """How many workers the last batched computation actually used.

        ``1`` until a pool has successfully run: the serial path, small
        instances below ``parallel_threshold``, and every pickle / pool
        fallback all report ``1``.  When a pool did run, this is the number
        of workers that received work — ``min(workers, stripes)``, which may
        be below the configured count on instances with few pending facts.
        """
        return self._workers_used

    # -- public API ---------------------------------------------------------------
    def value_of(self, fact: Fact) -> Fraction:
        """The configured index's value of one endogenous fact, from the shared artefacts."""
        if fact not in self.pdb.endogenous:
            raise ValueError(f"{fact} is not an endogenous fact of the database")
        if fact not in self._values:
            self._combine(self._pairs([fact]))
        return self._values[fact]

    def all_values(self) -> dict[Fact, Fraction]:
        """The configured index's value of every endogenous fact (the batched workload).

        With ``workers > 1`` and at least ``parallel_threshold`` pending facts
        (so ``|Dn|`` reaches it too), the fact axis runs its pair kernel on a
        process pool (falling back to the serial kernel when the artefact
        will not pickle or no pool can be created); the component axis
        parallelises inside its island solving instead.  Results land in the
        same memo ``value_of`` reads from.
        """
        facts = sorted(self.pdb.endogenous)
        pending = [f for f in facts if f not in self._values]
        if pending:
            pooled = (self.workers > 1
                      and len(pending) >= self.parallel_threshold
                      and not self._component_axis_for(self.backend()))
            self._combine(self._pairs(pending, self.workers if pooled else 1))
        return {fact: self._values[fact] for fact in facts}

    def lineage_size(self) -> "int | None":
        """Number of clauses of the lineage DNF, or ``None`` if no lineage was built.

        Reads the memoised artefact only — it never triggers a lineage build,
        so it is safe to call for report metadata on any backend.
        """
        if self._lineage is None:
            return None
        return len(self._lineage.dnf.clauses)

    def circuit_size(self) -> "int | None":
        """Node count of the compiled circuit, or ``None`` if none was compiled.

        Like :meth:`lineage_size` this reads the memoised artefact only, so it
        is safe report metadata on every backend.  On the component shard
        axis this is the **sum** of the island circuits' node counts — the
        total compiled footprint, directly comparable to (and typically far
        below) a whole-formula compilation.
        """
        if self._compiled is not None:
            return self._compiled.size
        if self._component_results_memo is not None and self._backend == "circuit":
            nodes = [r.circuit_nodes for r in self._component_results_memo
                     if r.circuit_nodes is not None]
            return sum(nodes) if nodes else None
        return None

    def circuit_compile_time_s(self) -> "float | None":
        """Wall time of the lineage compilation, or ``None`` if none ran.

        On the component shard axis: the summed compile time of the islands
        compiled *by this engine* (store hits contribute the recorded time of
        their original compilation).
        """
        if self._compiled is not None:
            return self._compiled.compile_time_s
        if self._component_results_memo is not None and self._backend == "circuit":
            times = [r.compile_time_s for r in self._component_results_memo
                     if r.compile_time_s is not None]
            return sum(times) if times else None
        return None

    def circuit_fallback_reason(self) -> "str | None":
        """Why the circuit backend degraded to counting (``None`` when it did not).

        On the component shard axis the backend never degrades wholesale;
        this records instead when individual islands blew the node budget
        and were counted (the others keep their circuits).
        """
        return self._circuit_fallback

    def degradation_reasons(self) -> "tuple[str, ...]":
        """The engine's rungs of the degradation ladder, in the order taken.

        Entries are human-readable audit lines: ``"circuit→counting: ..."``
        when the compiler's node budget forced lineage conditioning (still
        exact), and ``"pool→..."`` when worker failures pushed islands back
        onto the parent or the pool was unavailable outright (still exact,
        serial).  Empty on a clean run; surfaced as
        :attr:`repro.api.AttributionReport.degradation_reason`.
        """
        reasons = []
        if self._circuit_fallback is not None:
            reasons.append(f"circuit→counting: {self._circuit_fallback}")
        if self._pool_fallback is not None:
            reasons.append(self._pool_fallback)
        return tuple(reasons)

    def shard_axis(self) -> str:
        """The resolved sharding axis: ``"component"`` or ``"fact"``.

        The resolution of the ``shard`` policy against the backend and (for
        ``"auto"``) the island pre-pass — what a report's ``shard_axis``
        field records.
        """
        return "component" if self._component_axis_for(self.backend()) else "fact"

    def n_components(self) -> "int | None":
        """Island count of the lineage decomposition, or ``None`` if no pre-pass ran.

        Reads the memoised decomposition only (safe metadata on any backend).
        """
        if self._decomposition_memo is None:
            return None
        return self._decomposition_memo.n_components

    def largest_component_size(self) -> "int | None":
        """Variable count of the largest island, or ``None`` if no pre-pass ran."""
        if self._decomposition_memo is None:
            return None
        return self._decomposition_memo.largest_component

    def ranking(self) -> list[tuple[Fact, Fraction]]:
        """Facts sorted by decreasing Shapley value (ties broken by fact order)."""
        return sorted(self.all_values().items(), key=_ranking_key)

    def max_value(self) -> tuple[Fact, Fraction]:
        """A fact of maximum Shapley value and that value (``max-SVC``)."""
        if not self.pdb.endogenous:
            raise ValueError("the database has no endogenous fact")
        return self.ranking()[0]

    def grand_coalition_value(self) -> int:
        """``v(Dn)``: 1 iff the full database satisfies the query but ``Dx`` alone does not.

        By the efficiency axiom the Shapley values returned by
        :meth:`all_values` sum to exactly this quantity.
        """
        full = 1 if self.query.evaluate(self.pdb.all_facts) else 0
        exogenous = 1 if self.query.evaluate(self.pdb.exogenous) else 0
        return full - exogenous


# ---------------------------------------------------------------------------
# Per-(query, pdb) engine cache
# ---------------------------------------------------------------------------

_ENGINE_CACHE: "OrderedDict[tuple, SVCEngine]" = OrderedDict()
_ENGINE_CACHE_SIZE = 128
_CACHE_HITS = 0
_CACHE_MISSES = 0
#: Guards the LRU's pop/insert/evict sequences and the counters: the serving
#: tier calls :func:`get_engine` from several executor threads at once, and an
#: unguarded ``OrderedDict`` corrupts under concurrent structural mutation.
#: Engine *construction* happens outside the lock (it can compile), so two
#: threads missing on one key may both build — the later insert wins, which
#: only costs duplicated work, never a wrong result.
_ENGINE_CACHE_LOCK = threading.Lock()


def get_engine(query: BooleanQuery, pdb: PartitionedDatabase,
               method: EngineBackend = "auto",
               workers: int = 1,
               parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD,
               circuit_node_budget: int = DEFAULT_NODE_BUDGET,
               store: "ArtifactStore | None" = None,
               shard: ShardPolicy = "auto",
               index: str = "shapley") -> SVCEngine:
    """A (possibly cached) engine for the given query, database and backend.

    Engines are cached in an LRU keyed by ``(query, pdb, resolved method,
    workers, parallel_threshold, circuit_node_budget, store, shard, index)``
    so that repeated whole-database workloads — ranking, max-SVC, relevance
    analysis, CLI invocations — share one lineage / plan / circuit.
    Unhashable queries fall back to a fresh, uncached engine (counted as a
    miss in :func:`engine_cache_stats`).  ``store`` (an optional
    :class:`repro.workspace.ArtifactStore`, compared by identity) lets those
    artefacts additionally persist outside the engine — across engines,
    workspaces and, for a disk-backed store, across processes.

    ``method="auto"`` is resolved to its concrete backend name **before** the
    key is built (:func:`resolve_auto_backend`, memoised per query), so an
    ``auto`` call and an explicit call for the backend it resolves to share
    one engine — and one shared artefact — instead of holding two cache
    entries for the same ``(query, pdb)``.  The query-level ``circuit``
    resolution may still degrade to ``counting`` inside the engine when the
    instance blows the node budget; the key keeps the resolved *request*
    either way.

    Cache correctness rests on the immutability of the key: ``Database`` and
    :class:`repro.data.database.PartitionedDatabase` hold their facts in
    frozensets and refuse attribute assignment, so a cached engine can never
    be made stale by in-place mutation (see ``tests/test_api_session.py``).
    """
    global _CACHE_HITS, _CACHE_MISSES
    plan: "Plan | None" = None
    resolved = method
    if method == "auto":
        try:
            resolved, plan = _resolved_auto(query)
        except TypeError:  # unhashable query: the engine resolves privately
            with _ENGINE_CACHE_LOCK:
                _CACHE_MISSES += 1
            return SVCEngine(query, pdb, method, workers,
                             parallel_threshold, circuit_node_budget, store, shard, index)
    # The *requested* shard policy is keyed (resolving "auto" to an axis
    # needs the lineage, far too expensive at key time); an "auto" call and
    # an explicit "component" call therefore hold separate engines even when
    # auto resolves to the component axis.
    key = (query, pdb, resolved, workers, parallel_threshold,
           circuit_node_budget, store, shard, index)
    try:
        with _ENGINE_CACHE_LOCK:
            try:
                engine = _ENGINE_CACHE.pop(key)
                _CACHE_HITS += 1
                _ENGINE_CACHE[key] = engine  # re-insert: most recently used
                return engine
            except KeyError:
                _CACHE_MISSES += 1
    except TypeError:
        with _ENGINE_CACHE_LOCK:
            _CACHE_MISSES += 1
        return SVCEngine(query, pdb, resolved, workers,
                         parallel_threshold, circuit_node_budget, store, shard, index)
    engine = SVCEngine(query, pdb, resolved, workers,
                       parallel_threshold, circuit_node_budget, store, shard, index)
    if plan is not None:
        # auto already compiled the plan: don't pay twice.  Seeding bypasses
        # _ensure_plan, so persist it here too — otherwise auto-dispatched
        # plans never reach the store and explicit method="safe" callers in
        # other processes recompile.  A stored plan is kept as is: the plan
        # of a fixed query never changes, and a workspace builds a new engine
        # per snapshot.
        from ..workspace.store import cached, plan_key

        engine._plan = cached(store, lambda: plan_key(query), Plan,
                              lambda: plan)
    with _ENGINE_CACHE_LOCK:
        _ENGINE_CACHE[key] = engine
        while len(_ENGINE_CACHE) > _ENGINE_CACHE_SIZE:
            _ENGINE_CACHE.popitem(last=False)
    return engine


def engine_cache_stats() -> dict[str, int]:
    """Counters of the engine LRU (reported by the session metadata).

    ``hits`` / ``misses`` / ``size`` describe the engine LRU itself;
    ``auto_resolutions`` is the entry count of the memoised ``auto``-backend
    resolution (which holds compiled safe plans), so a fully cleared cache
    reports all four as zero.
    """
    with _ENGINE_CACHE_LOCK:
        return {"hits": _CACHE_HITS, "misses": _CACHE_MISSES,
                "size": len(_ENGINE_CACHE),
                "auto_resolutions": _resolved_auto.cache_info().currsize}


def clear_engine_cache() -> None:
    """Drop all cached engines and reset the hit/miss counters.

    Also clears the memoised ``auto``-backend resolution (and with it every
    safe plan it holds): before this, "cleared" caches silently kept serving
    plans and backend choices resolved for earlier engines.
    """
    global _CACHE_HITS, _CACHE_MISSES
    with _ENGINE_CACHE_LOCK:
        _ENGINE_CACHE.clear()
        _resolved_auto.cache_clear()
        _CACHE_HITS = 0
        _CACHE_MISSES = 0
