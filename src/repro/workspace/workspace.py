"""The incremental attribution workspace: a long-lived service above sessions.

An :class:`repro.api.AttributionSession` is one-shot: one immutable
``(query, database)`` pair, one attribution.  Production attribution serves
the opposite shape — a *standing* set of queries over a database that keeps
changing one fact at a time — and recomputing every query from scratch after
every delta throws away every safe plan, lineage and compiled circuit the
previous run paid for.  :class:`AttributionWorkspace` is the standing-state
API:

* it holds the current :class:`~repro.data.database.PartitionedDatabase`
  snapshot and a set of registered queries; delta operations (:meth:`insert`,
  :meth:`remove`, :meth:`make_exogenous`, :meth:`make_endogenous`) replace the
  snapshot with a new immutable one (snapshots are never mutated in place, so
  engine caches keyed on them can never go stale);
* :meth:`refresh` re-attributes **only the queries a delta actually
  invalidates**, using lineage-support-aware invalidation: the *support* of a
  query is the union of its minimal supports in the current snapshot, and a
  delta fact outside that support provably cannot change any Shapley value
  (it is a dummy player: it joins no support, so ``v(S ∪ {μ}) = v(S)`` for
  every coalition ``S``, and adding or removing a dummy moves no other
  player's value).  Cached values are then carried forward — at most extended
  with a ``0`` for a new dummy or shrunk by a departed one — and the typed
  :class:`~repro.workspace.results.AttributionDelta` records exactly what
  moved;
* the expensive artifacts flow through a pluggable
  :class:`~repro.workspace.store.ArtifactStore` (in-process LRU by default; a
  :class:`~repro.workspace.store.DiskStore` makes plans, lineages and circuits
  survive process restarts and lets independent workspaces share them).

Invalidation is *conservative but exact*: a query is re-attributed whenever
correctness could require it (any insert whose relation the query inspects,
any touched fact inside the support, and every delta on queries — e.g. with
negation — whose support cannot be characterised), and values returned after
any sequence of deltas are bitwise-identical ``Fraction``s to a cold
:class:`~repro.api.AttributionSession` on the final snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction

from ..api.config import EngineConfig
from ..api.session import AttributionSession
from ..data.atoms import Fact
from ..data.database import PartitionedDatabase
from ..engine.svc_engine import _ranking_key, _resolved_auto, resolve_auto_backend
from ..errors import ConfigError
from ..incremental import MaintainedLineage, SnapshotDelta, patch_attribution
from ..queries.base import BooleanQuery
from .results import (
    AttributionDelta,
    RankMove,
    ValueChange,
    WhatIfBatch,
    WhatIfResult,
    WorkspaceDelta,
    WorkspaceRefresh,
)
from .store import (
    ArtifactStore,
    MemoryStore,
    cached,
    circuit_key,
    database_digest,
    lineage_key,
    maintained_key,
    support_key,
)

#: Delta-spec prefixes shared by the what-if batch, the HTTP API and the
#: ``repro workspace`` CLI, in try-order (``+x:`` must precede ``+``).
DELTA_PREFIXES = (("+x:", "insert_exogenous", "insert exogenous"),
                  ("+", "insert", "insert"),
                  ("-", "remove", "remove"),
                  (">", "make_exogenous", "make exogenous"),
                  ("<", "make_endogenous", "make endogenous"))


def parse_delta_spec(spec: str) -> "tuple[str, Fact, str]":
    """Parse one textual delta spec into ``(op, fact, label)``.

    The spec syntax shared by scenarios, the service API and the CLI:
    ``'+F(a)'`` insert endogenous, ``'+x:F(a)'`` insert exogenous, ``'-F(a)'``
    remove, ``'>F(a)'`` make exogenous, ``'<F(a)'`` make endogenous.  ``op``
    is the canonical operation name (the workspace method name), ``label`` a
    human-readable description.
    """
    from ..io.query_text import parse_fact

    spec = spec.strip()
    for prefix, op, label in DELTA_PREFIXES:
        if spec.startswith(prefix):
            f = parse_fact(spec[len(prefix):])
            return op, f, f"{label} {f}"
    raise ValueError(
        f"cannot parse delta {spec!r}: expected a '+', '+x:', '-', '>' or '<' "
        "prefix followed by a fact, e.g. '+S(a, b)'")


@dataclass(frozen=True)
class _QueryState:
    """The cached attribution of one registered query on one snapshot."""

    values: dict[Fact, Fraction]
    ranking: "tuple[tuple[Fact, Fraction], ...]"
    #: Union of the query's minimal supports in the snapshot's full fact set
    #: (partition-independent), or ``None`` when no support characterisation
    #: exists (non-hom-closed queries) — the conservative "always recompute".
    support: "frozenset[Fact] | None"
    backend: str
    #: The delta-maintained minimal-support view of this query on this
    #: snapshot, or ``None`` when the query is ineligible for incremental
    #: maintenance (non-hom-closed, or a backend the patcher cannot mirror).
    maintained: "MaintainedLineage | None" = None


def _ranked(values: dict[Fact, Fraction]) -> "tuple[tuple[Fact, Fraction], ...]":
    return tuple(sorted(values.items(), key=_ranking_key))


class AttributionWorkspace:
    """Incremental Shapley attribution for a set of queries over one database.

    Usage::

        ws = AttributionWorkspace(pdb, store=DiskStore("artifacts/"))
        ws.register("suspects", query)
        ws.refresh()                    # initial attribution of every query
        ws.insert(fact("S", "a", "b"))  # -> new immutable snapshot
        ws.remove(fact("R", "c"))
        result = ws.refresh()           # only invalidated queries recompute
        result["suspects"].rank_moves   # what the deltas changed

    ``config`` tunes the underlying sessions; the workspace forces exact
    semantics (``on_hard="exact"``) because cached-value reuse is only sound
    for exact backends — a ``method="sampled"`` config is rejected outright.
    """

    def __init__(self, pdb: PartitionedDatabase, *,
                 config: "EngineConfig | None" = None,
                 store: "ArtifactStore | None" = None):
        if not isinstance(pdb, PartitionedDatabase):
            raise ConfigError(
                f"AttributionWorkspace needs a PartitionedDatabase, got "
                f"{type(pdb).__name__} (wrap plain databases with "
                "repro.data.purely_endogenous or partition_by_relation)")
        config = config if config is not None else EngineConfig()
        if config.method == "sampled":
            raise ConfigError(
                "AttributionWorkspace requires an exact backend: incremental "
                "reuse of cached values is only sound when values are exact "
                "(got EngineConfig(method='sampled'))")
        if config.on_hard != "exact":
            config = replace(config, on_hard="exact")
        self._pdb = pdb
        self._config = config
        self._store: ArtifactStore = store if store is not None else MemoryStore()
        self._queries: dict[str, BooleanQuery] = {}
        self._states: dict[str, _QueryState] = {}
        self._pending: list[WorkspaceDelta] = []
        self._patched = 0
        self._patch_fallbacks = 0

    # -- introspection ----------------------------------------------------------
    @property
    def pdb(self) -> PartitionedDatabase:
        """The current (immutable) database snapshot."""
        return self._pdb

    @property
    def store(self) -> ArtifactStore:
        """The artifact store plans / lineages / circuits flow through."""
        return self._store

    @property
    def config(self) -> EngineConfig:
        """The (exactness-enforced) session configuration."""
        return self._config

    def queries(self) -> dict[str, BooleanQuery]:
        """The registered queries by name (a copy)."""
        return dict(self._queries)

    def snapshot_digest(self) -> str:
        """The stable content hash of the current snapshot.

        Equal across processes for equal database content — the serving tier
        keys request coalescing on it, and clients can use it to tell which
        snapshot a response was computed against.
        """
        return database_digest(self._pdb)

    def pending_deltas(self) -> "tuple[WorkspaceDelta, ...]":
        """Deltas applied to the snapshot but not yet refreshed through."""
        return tuple(self._pending)

    # -- query registration -----------------------------------------------------
    def register(self, name: str, query: BooleanQuery) -> None:
        """Register a query under a name; it is attributed on the next refresh.

        Re-registering the same name with an equal query is a no-op (cached
        state survives); a different query under a taken name is an error —
        unregister first.
        """
        existing = self._queries.get(name)
        if existing is not None:
            if existing == query:
                return
            raise ValueError(
                f"a different query is already registered as {name!r}; "
                "unregister it first")
        self._queries[name] = query

    def unregister(self, name: str) -> None:
        """Drop a registered query and its cached attribution."""
        if name not in self._queries:
            raise KeyError(f"no query registered as {name!r}")
        del self._queries[name]
        self._states.pop(name, None)

    # -- delta operations ---------------------------------------------------------
    def insert(self, fact: Fact, *, exogenous: bool = False) -> PartitionedDatabase:
        """Add a new fact (endogenous by default) and return the new snapshot."""
        if fact in self._pdb.all_facts:
            raise ValueError(f"{fact} is already in the database")
        if exogenous:
            pdb = self._pdb.with_exogenous([fact])
        else:
            pdb = self._pdb.with_endogenous([fact])
        return self._apply(WorkspaceDelta("insert", fact, not exogenous), pdb)

    def remove(self, fact: Fact) -> PartitionedDatabase:
        """Remove a fact from whichever part holds it; return the new snapshot."""
        if fact not in self._pdb.all_facts:
            raise ValueError(f"{fact} is not in the database")
        endogenous = fact in self._pdb.endogenous
        return self._apply(WorkspaceDelta("remove", fact, endogenous),
                           self._pdb.without([fact]))

    def make_exogenous(self, fact: Fact) -> PartitionedDatabase:
        """Move an endogenous fact to the exogenous part (it stops being a player)."""
        if fact not in self._pdb.endogenous:
            raise ValueError(f"{fact} is not an endogenous fact of the database")
        return self._apply(WorkspaceDelta("make_exogenous", fact, False),
                           self._pdb.move_to_exogenous([fact]))

    def make_endogenous(self, fact: Fact) -> PartitionedDatabase:
        """Move an exogenous fact to the endogenous part (it becomes a player)."""
        if fact not in self._pdb.exogenous:
            raise ValueError(f"{fact} is not an exogenous fact of the database")
        pdb = PartitionedDatabase(self._pdb.endogenous | {fact},
                                  self._pdb.exogenous - {fact})
        return self._apply(WorkspaceDelta("make_endogenous", fact, True), pdb)

    def _apply(self, delta: WorkspaceDelta,
               pdb: PartitionedDatabase) -> PartitionedDatabase:
        self._pdb = pdb
        self._pending.append(delta)
        return pdb

    # -- invalidation -------------------------------------------------------------
    @staticmethod
    def _delta_invalidates(query: BooleanQuery,
                           support: "frozenset[Fact] | None",
                           delta: WorkspaceDelta) -> bool:
        """Whether a delta can change any of the query's Shapley values.

        A fact over a relation the query never inspects is a dummy player in
        every coalition, so no delta on it moves any value.  Otherwise an
        insert may always create new supports (conservative), and a touched
        existing fact matters exactly when it lies in the support union — a
        fact in no minimal support joins no support and is likewise a dummy.
        Without a support characterisation every relation-matching delta
        invalidates.
        """
        if delta.fact.relation not in query.relation_names():
            return False
        if delta.op == "insert":
            return True
        if support is None:
            return True
        return delta.fact in support

    def _support(self, query: BooleanQuery,
                 maintained: "MaintainedLineage | None" = None,
                 ) -> "frozenset[Fact] | None":
        """The union of the query's minimal supports in the current snapshot.

        ``None`` — "no characterisation, recompute on every relevant delta" —
        for non-hom-closed queries (removing a fact can *satisfy* a query
        with negation, so minimal supports do not bound the delta's reach)
        and for query classes that cannot enumerate supports.

        The enumeration costs as much as a lineage build, so the result is
        cached in the artifact store under the same ``(query, database)``
        content key — repeat refreshes over one snapshot and store-warmed
        fresh processes skip it entirely.  A ``maintained`` view of the
        current snapshot short-circuits the enumeration outright: its support
        family is the same object the enumeration would rebuild.
        """
        if not query.is_hom_closed:
            return None

        def build() -> "frozenset[Fact] | None":
            if maintained is not None and maintained.matches(self._pdb):
                return maintained.support_union()
            try:
                supports = query.minimal_supports_in(self._pdb.all_facts)
            except (NotImplementedError, ValueError):
                return None
            return frozenset().union(*supports) if supports else frozenset()

        return cached(self._store, support_key(query, self._pdb), frozenset,
                      build)

    # -- incremental maintenance --------------------------------------------------
    def _incremental_mode(self, query: BooleanQuery) -> "str | None":
        """The patch kernel mirroring this workspace's backend, or ``None``.

        Incremental maintenance requires the minimal-support machinery
        (hom-closed queries) and a backend the island patcher reproduces
        exactly: the circuit backend, the lineage-counting backend, and
        ``auto`` when it resolves to the circuit.  Everything else — safe
        plans, brute force, non-hom-closed queries — recomputes
        conservatively (``refresh_reason="conservative-recompute"``).
        """
        if not query.is_hom_closed:
            return None
        method = self._config.method
        if method in ("circuit", "counting"):
            return method
        if method == "auto":
            try:
                resolved, _ = _resolved_auto(query)
            except TypeError:       # unhashable query: resolve uncached
                resolved, _ = resolve_auto_backend(query)
            return "circuit" if resolved == "circuit" else None
        return None

    def _maintained(self, query: BooleanQuery) -> "MaintainedLineage | None":
        """The maintained minimal-support view for the *current* snapshot.

        Store-cached under the ``(query, database)`` content key, so repeat
        builds and store-warmed fresh processes skip the enumeration; built
        cold otherwise (the same enumeration ``_support`` would run).
        """
        def build() -> "MaintainedLineage | None":
            try:
                return MaintainedLineage.build(query, self._pdb)
            except (NotImplementedError, ValueError):
                return None

        return cached(self._store, maintained_key(query, self._pdb),
                      MaintainedLineage, build,
                      accept=lambda view: view.matches(self._pdb))

    @staticmethod
    def _snapshot_deltas(applied: "tuple[WorkspaceDelta, ...]",
                         ) -> "tuple[SnapshotDelta, ...]":
        return tuple(SnapshotDelta(d.op, d.fact, d.endogenous) for d in applied)

    def _scenario_deltas(self, ops) -> "tuple[SnapshotDelta, ...]":
        """What-if scenario ops as snapshot deltas for the maintained view."""
        deltas = []
        for op, f, _ in ops:
            if op == "insert_exogenous":
                deltas.append(SnapshotDelta("insert", f, False))
            elif op == "insert":
                deltas.append(SnapshotDelta("insert", f, True))
            elif op == "remove":
                deltas.append(SnapshotDelta(
                    "remove", f, f in self._pdb.endogenous))
            elif op == "make_exogenous":
                deltas.append(SnapshotDelta("make_exogenous", f, False))
            else:  # make_endogenous
                deltas.append(SnapshotDelta("make_endogenous", f, True))
        return tuple(deltas)

    def _record_patch(self, fallback: bool) -> None:
        if fallback:
            self._patch_fallbacks += 1
        else:
            self._patched += 1
        recorder = getattr(self._store, "record_patch", None)
        if callable(recorder):
            recorder(fallback)

    def _patch_refresh(self, query: BooleanQuery, state: _QueryState,
                       applied: "tuple[WorkspaceDelta, ...]",
                       mode: str) -> "tuple[_QueryState, dict]":
        """Re-attribute one query by delta-maintenance + circuit patching.

        Advances the standing :class:`MaintainedLineage` through the applied
        batch (clause-level diffs, no re-enumeration), persists the advanced
        view and its lineage under the new snapshot's content keys, and
        prices the attribution island-by-island against the store, seeding
        recompiles from the pre-delta circuit.  Raises on *any* mismatch —
        the caller treats every exception as "fall back to a cold session".
        """
        assert state.maintained is not None
        maintained = state.maintained.apply_all(self._snapshot_deltas(applied))
        if not maintained.matches(self._pdb):
            raise ValueError(
                "maintained view diverged from the snapshot partition")
        lineage = maintained.lineage()
        result = patch_attribution(
            query, lineage, store=self._store, index=self._config.index,
            mode=mode, node_budget=self._config.circuit_node_budget,
            previous=state.maintained.lineage)
        support = maintained.support_union()
        self._store.put(maintained_key(query, self._pdb), maintained)
        self._store.put(lineage_key(query, self._pdb), lineage)
        self._store.put(support_key(query, self._pdb), support)
        new_state = _QueryState(values=result.values,
                                ranking=_ranked(result.values),
                                support=support, backend=result.backend,
                                maintained=maintained)
        return new_state, result.stats.to_json_dict()

    # -- refresh ------------------------------------------------------------------
    def _attribute(self, query: BooleanQuery,
                   maintained: "MaintainedLineage | None" = None) -> _QueryState:
        session = AttributionSession(query, self._pdb, self._config,
                                     store=self._store)
        values = session.values()
        return _QueryState(values=values, ranking=_ranked(values),
                           support=self._support(query, maintained),
                           backend=session.backend(), maintained=maintained)

    def _carry_forward(self, query: BooleanQuery, state: _QueryState,
                       applied: "tuple[WorkspaceDelta, ...]") -> _QueryState:
        """Update cached values for membership changes only (no recompute).

        Every delta reaching this path is a dummy-player move: new endogenous
        facts enter with value 0, departing ones leave (their cached value was
        0 — they were in no support), everyone else's value is untouched.
        The maintained view advances through the same deltas for free — a
        dummy-player delta never touches the support family, only the
        partition bookkeeping — so the incremental path stays armed.
        """
        values = dict(state.values)
        for delta in applied:
            if delta.op in ("insert", "make_endogenous") and delta.endogenous:
                values[delta.fact] = Fraction(0)
            elif delta.op in ("remove", "make_exogenous"):
                values.pop(delta.fact, None)
        maintained = state.maintained
        if maintained is not None and applied:
            try:
                maintained = maintained.apply_all(self._snapshot_deltas(applied))
                if maintained.matches(self._pdb):
                    self._store.put(maintained_key(query, self._pdb), maintained)
                else:
                    maintained = None
            except Exception:
                maintained = None
        return _QueryState(values=values, ranking=_ranked(values),
                           support=state.support, backend=state.backend,
                           maintained=maintained)

    @staticmethod
    def _diff(name: str, query: BooleanQuery, old: "_QueryState | None",
              new: _QueryState, recomputed: bool, reason: str,
              maintenance: "str | None" = None,
              refresh_reason: "str | None" = None,
              patch_stats: "dict | None" = None) -> AttributionDelta:
        old_values = {} if old is None else old.values
        changed = tuple(
            ValueChange(f, old_values.get(f), new.values.get(f))
            for f in sorted(set(old_values) | set(new.values))
            if old_values.get(f) != new.values.get(f)
            or (f in old_values) != (f in new.values))
        old_rank = ({} if old is None
                    else {f: i + 1 for i, (f, _) in enumerate(old.ranking)})
        new_rank = {f: i + 1 for i, (f, _) in enumerate(new.ranking)}
        moves = tuple(
            RankMove(f, old_rank.get(f), new_rank.get(f))
            for f in sorted(set(old_rank) | set(new_rank))
            if old_rank.get(f) != new_rank.get(f))
        old_nulls = {f for f, v in old_values.items() if v == 0}
        new_nulls = {f for f, v in new.values.items() if v == 0}
        return AttributionDelta(
            name=name, query=str(query), backend=new.backend,
            recomputed=recomputed, reason=reason, ranking=new.ranking,
            changed_values=changed, rank_moves=moves,
            new_null_players=frozenset(new_nulls - old_nulls),
            dropped_null_players=frozenset(old_nulls - new_nulls),
            maintenance=maintenance, refresh_reason=refresh_reason,
            patch_stats=patch_stats)

    def refresh(self) -> WorkspaceRefresh:
        """Bring every registered query up to date with the current snapshot.

        Consumes the pending delta batch.  Per query: a first-ever refresh
        attributes cold; otherwise the batch is screened against the query's
        cached lineage support, and only a query some delta can actually reach
        is re-attributed — incrementally by default for eligible queries
        (the maintained support view advances clause-by-clause and the
        circuit is patched island-by-island, ``refresh_reason=
        "incremental-patch"``), with the cold recompute as the fallback
        (``"patch-fallback"``) and the only path for ineligible queries
        (``"conservative-recompute"``) — the rest carry their values forward
        untouched (``"out-of-support-reuse"``).  Returns one
        :class:`AttributionDelta` per query describing exactly what changed,
        including the ``maintenance`` route and the patcher's island stats.

        The refresh is transactional: cached states and the pending batch are
        only replaced once every query succeeded, so an attribution error (or
        an interrupt) midway leaves the workspace exactly as before — the
        deltas stay pending and a retried ``refresh()`` sees them again,
        instead of silently serving pre-delta values as fresh.
        """
        start = time.perf_counter()
        applied = tuple(self._pending)
        deltas: list[AttributionDelta] = []
        new_states: dict[str, _QueryState] = {}
        for name in sorted(self._queries):
            query = self._queries[name]
            state = self._states.get(name)
            mode = self._incremental_mode(query)
            if state is None:
                maintained = self._maintained(query) if mode else None
                new_state = self._attribute(query, maintained)
                delta = self._diff(name, query, None, new_state, True,
                                   "initial attribution of a newly registered query",
                                   maintenance="recompute",
                                   refresh_reason="initial-attribution")
            else:
                triggering = [d for d in applied
                              if self._delta_invalidates(query, state.support, d)]
                if triggering:
                    culprit = triggering[0]
                    reason = (f"recomputed: {culprit} reaches the lineage support "
                              f"({len(triggering)} of {len(applied)} deltas invalidate)")
                    new_state = None
                    if mode and state.maintained is not None:
                        try:
                            new_state, stats = self._patch_refresh(
                                query, state, applied, mode)
                            delta = self._diff(
                                name, query, state, new_state, True, reason,
                                maintenance="incremental",
                                refresh_reason="incremental-patch",
                                patch_stats=stats)
                            self._record_patch(False)
                        except Exception as error:
                            self._record_patch(True)
                            new_state = self._attribute(
                                query, self._maintained(query))
                            delta = self._diff(
                                name, query, state, new_state, True, reason,
                                maintenance="recompute",
                                refresh_reason="patch-fallback",
                                patch_stats={"fallback":
                                             f"{type(error).__name__}: {error}"})
                    else:
                        new_state = self._attribute(
                            query, self._maintained(query) if mode else None)
                        delta = self._diff(
                            name, query, state, new_state, True, reason,
                            maintenance="recompute",
                            refresh_reason="conservative-recompute")
                else:
                    new_state = self._carry_forward(query, state, applied)
                    reason = ("reused: no pending deltas" if not applied else
                              f"reused: all {len(applied)} deltas lie outside "
                              "the lineage support (dummy players only)")
                    delta = self._diff(name, query, state, new_state, False,
                                       reason, maintenance=None,
                                       refresh_reason="out-of-support-reuse")
            new_states[name] = new_state
            deltas.append(delta)
        self._states.update(new_states)
        # Consume exactly the batch we processed (delta ops cannot run during
        # the loop, but slicing keeps this correct even if that ever changes).
        self._pending = self._pending[len(applied):]
        return WorkspaceRefresh(deltas=tuple(deltas), applied=applied,
                                wall_time_s=time.perf_counter() - start)

    # -- what-if batches ----------------------------------------------------------
    def _standing_artifacts(self, query: BooleanQuery):
        """The standing ``(lineage, compiled circuit)`` of a query, via the store.

        Both are fetched from the shared artifact store first and stored there
        on a miss, so a what-if batch following an attribution pays zero
        lineage builds and zero compilations.  ``(None, None)`` for
        non-hom-closed queries; ``(lineage, None)`` when compilation exceeds
        the configured node budget.
        """
        if not query.is_hom_closed:
            return None, None
        from ..compile import CircuitBudgetError, CompiledLineage, compile_lineage
        from ..counting.lineage import Lineage, build_lineage

        lineage = cached(self._store, lineage_key(query, self._pdb), Lineage,
                         lambda: build_lineage(query, self._pdb))
        budget = self._config.circuit_node_budget
        try:
            compiled = cached(
                self._store, circuit_key(query, lineage), CompiledLineage,
                lambda: compile_lineage(lineage, node_budget=budget),
                accept=lambda stored: stored.size <= budget)
        except CircuitBudgetError:
            return lineage, None
        return lineage, compiled

    def _hypothetical_snapshot(self, ops) -> PartitionedDatabase:
        """The snapshot a scenario describes, built without touching ``self``."""
        pdb = self._pdb
        for op, fact, label in ops:
            if op in ("insert", "insert_exogenous"):
                if fact in pdb.all_facts:
                    raise ValueError(f"{fact} is already in the database")
                pdb = (pdb.with_exogenous([fact]) if op == "insert_exogenous"
                       else pdb.with_endogenous([fact]))
            elif op == "remove":
                if fact not in pdb.all_facts:
                    raise ValueError(f"{fact} is not in the database")
                pdb = pdb.without([fact])
            elif op == "make_exogenous":
                if fact not in pdb.endogenous:
                    raise ValueError(
                        f"{fact} is not an endogenous fact of the database")
                pdb = pdb.move_to_exogenous([fact])
            else:  # make_endogenous
                if fact not in pdb.exogenous:
                    raise ValueError(
                        f"{fact} is not an exogenous fact of the database")
                pdb = PartitionedDatabase(pdb.endogenous | {fact},
                                          pdb.exogenous - {fact})
        return pdb

    def what_if(self, scenarios, *, name: "str | None" = None,
                query: "BooleanQuery | None" = None,
                probability: "Fraction | int | float | str" = Fraction(1, 2),
                index: "str | None" = None) -> WhatIfBatch:
        """Evaluate a batch of hypothetical scenarios without touching the snapshot.

        Each scenario is a delta spec (``'-F(a)'``, ``'>F(a)'``, ``'+F(a)'``,
        ...) or a list of them, describing a hypothetical snapshot.  For every
        scenario the batch answers: is the query still satisfiable, what is
        its probability when every surviving endogenous fact is kept
        independently with the uniform ``probability``, and how do the
        per-fact values (under the workspace's configured index) redistribute?

        Scenarios made of removals and exogenous moves of existing endogenous
        facts evaluate by **conditioning the standing artefacts**: the
        standing circuit is restricted (``remove`` ⇒ ``x_μ := false``,
        ``make_exogenous`` ⇒ ``x_μ := true``) and one derivative sweep of the
        restricted circuit prices every surviving fact's conditioned pair,
        while the scenario's probability is the standing circuit's weighted
        sweep with μ priced at 0 respectively 1 — one compile amortised
        across the whole batch, zero recompiles.  Without a compiled circuit
        (lineage-only standing artefacts) the same conditioning runs on the
        lineage DNF per fact.  Scenarios that
        change the fact *set* (inserts, endogenous moves) or run against
        non-hom-closed queries fall back to a fresh session per scenario,
        flagged ``recompiled=True`` in the result.

        The target query is ``query`` (ad hoc), the registered ``name``, or —
        when exactly one query is registered — that one.  ``index`` overrides
        the workspace's configured value index for this batch only (the
        standing artefacts are index-independent, so no extra compilation).
        """
        start = time.perf_counter()
        if query is not None:
            target, label = query, (name if name is not None else str(query))
        elif name is not None:
            if name not in self._queries:
                raise KeyError(f"no query registered as {name!r}")
            target, label = self._queries[name], name
        elif len(self._queries) == 1:
            label = next(iter(self._queries))
            target = self._queries[label]
        else:
            raise ConfigError(
                "what_if needs a target: pass query=..., name=..., or register "
                "exactly one query")
        p = Fraction(probability)
        if not (0 < p <= 1):
            raise ValueError(f"probability must be in (0, 1], got {p}")
        if self._pending:
            # Scenarios are hypotheses about the *current* snapshot; applied-
            # but-unrefreshed deltas would make "standing" ambiguous.
            self.refresh()

        parsed = []
        for scenario in scenarios:
            specs = (scenario,) if isinstance(scenario, str) else tuple(scenario)
            parsed.append((specs, [parse_delta_spec(s) for s in specs]))

        from ..engine import backends
        from ..values import get_index

        index_name = self._config.index if index is None else index
        config = (self._config if index_name == self._config.index
                  else replace(self._config, index=index_name))
        value_index = get_index(index_name)
        lineage, compiled = self._standing_artifacts(target)
        if compiled is not None:
            base = compiled.probability({f: p for f in lineage.variables})
        elif lineage is not None:
            base = lineage.probability({f: p for f in lineage.variables})
        else:
            from ..probability.spqe import sppqe

            base = sppqe(target, self._pdb, p)

        results: list[WhatIfResult] = []
        plan = None
        for specs, ops in parsed:
            conditionable = (
                lineage is not None
                and len({f for _, f, _ in ops}) == len(ops)
                and all(op in ("remove", "make_exogenous")
                        and f in self._pdb.endogenous for op, f, _ in ops))
            description = "; ".join(label for _, _, label in ops)
            if conditionable:
                fixed: "dict[int, bool]" = {}
                for op, f, _ in ops:
                    fixed[lineage.index_of(f)] = op == "make_exogenous"
                if compiled is not None:
                    # The standing circuit, never recompiled: the plan sweeps
                    # each root factor once for the whole batch, and each
                    # scenario resweeps only the factors it touches.  The
                    # scenario's probability interpolates the restricted
                    # model-count vector the same composition yields.
                    if plan is None:
                        from ..compile import ConditioningPlan

                        plan = ConditioningPlan(compiled.compiled)
                    n_rem = lineage.n_variables - len(fixed)
                    if value_index.is_semivalue:
                        # Semivalues are linear in the pair, so the plan
                        # composes the values directly — no per-variable
                        # vectors.
                        raw, satisfiable, models = plan.restricted_semivalues(
                            fixed, [value_index.subset_weight(k, n_rem)
                                    for k in range(n_rem)])
                        values = {lineage.variables[v]: value
                                  for v, value in raw.items()}
                    else:
                        pairs, satisfiable, models = plan.restricted_pairs(
                            fixed)
                        values = {lineage.variables[v]: value_index.combine(
                                      with_vec, without_vec, n_rem)
                                  for v, (with_vec, without_vec)
                                  in pairs.items()}
                    from ..probability.interpolation import (
                        sppqe_from_fgmc_vector,
                    )

                    prob = sppqe_from_fgmc_vector(models, p)
                else:
                    weights = {f: p for f in lineage.variables}
                    for op, f, _ in ops:
                        weights[f] = Fraction(
                            1 if op == "make_exogenous" else 0)
                    restricted = lineage
                    for op, f, _ in ops:
                        restricted = restricted.restricted(
                            f, op == "make_exogenous")
                    n_rem = restricted.n_variables
                    values = {f: value_index.combine(with_vec, without_vec, n_rem)
                              for f, (with_vec, without_vec)
                              in backends.counting_pairs(
                                  restricted, restricted.variables).items()}
                    prob = lineage.probability(weights)
                    satisfiable = restricted.evaluate(
                        frozenset(restricted.variables))
                recompiled = False
            else:
                pdb = self._hypothetical_snapshot(ops)
                values = None
                recompiled = True
                mode = self._incremental_mode(target)
                if lineage is not None and mode:
                    # Fact-set-changing scenarios still patch incrementally
                    # when the maintained view can mirror them: untouched
                    # islands are store hits, and only islands the scenario
                    # reaches recompile (seeded from the standing circuit).
                    try:
                        standing = self._maintained(target)
                        if standing is not None:
                            view = standing.apply_all(
                                self._scenario_deltas(ops))
                            if view.matches(pdb):
                                result = patch_attribution(
                                    target, view.lineage(),
                                    store=self._store, index=index_name,
                                    mode=mode,
                                    node_budget=self._config.circuit_node_budget,
                                    previous=lineage)
                                values = result.values
                                satisfiable = result.satisfiable
                                from ..probability.interpolation import (
                                    sppqe_from_fgmc_vector,
                                )

                                prob = (sppqe_from_fgmc_vector(result.models, p)
                                        if pdb.endogenous else
                                        Fraction(1 if satisfiable else 0))
                                recompiled = False
                    except Exception:
                        values = None
                        recompiled = True
                if values is None:
                    session = AttributionSession(target, pdb, config,
                                                 store=self._store)
                    values = session.values()
                    satisfiable = target.evaluate(pdb.all_facts)
                    from ..probability.spqe import sppqe

                    prob = (sppqe(target, pdb, p, store=self._store)
                            if pdb.endogenous else
                            Fraction(1 if satisfiable else 0))
                    recompiled = True
            results.append(WhatIfResult(
                scenario=specs, description=description,
                index=index_name, satisfiable=satisfiable,
                probability=prob, ranking=_ranked(values),
                recompiled=recompiled))
        return WhatIfBatch(name=label, query=str(target),
                           index=index_name,
                           endogenous_probability=p, base_probability=base,
                           results=tuple(results),
                           wall_time_s=time.perf_counter() - start)

    # -- cached reads -------------------------------------------------------------
    def values(self, name: str) -> dict[Fact, Fraction]:
        """The per-fact values of a registered query (refreshing if stale)."""
        self._ensure_fresh(name)
        return dict(self._states[name].values)

    def ranking(self, name: str) -> "list[tuple[Fact, Fraction]]":
        """The ranking of a registered query (refreshing if stale)."""
        self._ensure_fresh(name)
        return list(self._states[name].ranking)

    def _ensure_fresh(self, name: str) -> None:
        if name not in self._queries:
            raise KeyError(f"no query registered as {name!r}")
        if self._pending or name not in self._states:
            self.refresh()

    def store_stats(self) -> dict:
        """Observability of the artifact store: counters plus capacity/size.

        Uses the store's richer ``store_stats()`` view when it offers one
        (both bundled stores do) and degrades to the protocol's ``stats()``
        for custom implementations.
        """
        richer = getattr(self._store, "store_stats", None)
        stats = richer() if callable(richer) else dict(self._store.stats())
        stats.setdefault("patched", self._patched)
        stats.setdefault("patch_fallbacks", self._patch_fallbacks)
        return stats


__all__ = ["AttributionWorkspace"]
