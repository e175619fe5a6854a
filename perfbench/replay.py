"""Traced replays: each op re-run layer by layer through the public functions.

A replay calls the same layer functions, in the same order, as the route the
untraced op reported (``backend``, ``shard_axis``, ``refresh_reason``), each
call under a span named after its layer, and returns the values so the caller
can assert them bitwise-equal to the untraced op's.  The tenant replica
replays serve and workspace ops through its own ``MaintainedLineage`` views
and a replica store, so the service under test is never touched.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from repro.analysis.dichotomy import classify_svc
from repro.api import AttributionSession, EngineConfig
from repro.compile import DEFAULT_NODE_BUDGET, CircuitBudgetError, ConditioningPlan
from repro.compile.compiler import CompiledLineage, compile_dnf, compile_lineage
from repro.counting.lineage import Lineage, build_lineage
from repro.engine.backends import brute_value_from_table, coalition_values_of_size
from repro.engine.sharding import (
    combine_component_pairs,
    decompose_lineage,
    result_from_compiled,
    solve_component,
)
from repro.incremental.lineage import MaintainedLineage
from repro.incremental.patch import patch_attribution
from repro.probability.interpolation import sppqe_from_fgmc_vector
from repro.values import SHAPLEY
from repro.workspace.store import circuit_key, lineage_key, maintained_key, support_key

from .trace import TracedIndex, Tracer, TracingStore

#: The node budget every workload runs with (``EngineConfig``'s default).
BUDGET = DEFAULT_NODE_BUDGET


def _grand_value(tracer: Tracer, query, pdb) -> int:
    """``v(Dn)`` as the efficiency check computes it (two query evaluations)."""
    with tracer.span("queries.evaluate"):
        tracer.count("queries.evaluations", 2)
        return int(query.evaluate(pdb.all_facts)) - int(query.evaluate(pdb.exogenous))


def _lineage(tracer: Tracer, query, pdb, store) -> Lineage:
    cached = None if store is None else store.get(lineage_key(query, pdb))
    if isinstance(cached, Lineage):
        return cached
    with tracer.span("counting.lineage"):
        lineage = build_lineage(query, pdb)
    if store is not None:
        store.put(lineage_key(query, pdb), lineage)
    return lineage


def _component_pairs(tracer: Tracer, query, lineage, decomposition, store):
    """The engine's component path: per-island compile and sweeps, then recombine."""
    results = []
    for i, sub in enumerate(decomposition.components):
        key = None if store is None else circuit_key(
            query, sub.to_lineage(lineage.variables))
        cached = None if key is None else store.get(key)
        if isinstance(cached, CompiledLineage) and cached.size <= BUDGET:
            results.append(result_from_compiled(i, cached.compiled,
                                                cached.compile_time_s))
            tracer.count("compile.nodes", cached.size)
            continue
        try:
            with tracer.span("compile.compile"):
                compiled = compile_dnf(sub.dnf, node_budget=BUDGET)
        except CircuitBudgetError:
            with tracer.span("counting.condition"):
                results.append(solve_component(sub, i, "counting"))
            continue
        tracer.trace_circuit(compiled.circuit)
        tracer.count("compile.nodes", compiled.size)
        results.append(result_from_compiled(i, compiled, 0.0))
        if key is not None:
            store.put(key, CompiledLineage(sub.to_lineage(lineage.variables),
                                           compiled, 0.0))
    with tracer.span("engine.recombine"):
        return combine_component_pairs(decomposition, results)


def _whole_formula_pairs(tracer: Tracer, lineage):
    """The engine's fact-axis circuit path: one circuit, one derivative sweep."""
    with tracer.span("compile.compile"):
        compiled = compile_lineage(lineage, node_budget=BUDGET)
    tracer.trace_circuit(compiled.compiled.circuit)
    tracer.count("compile.nodes", compiled.size)
    by_fact = compiled.conditioned_vector_pairs(sorted(lineage.variables))
    return {lineage.index_of(f): pair for f, pair in by_fact.items()}


def _brute_values(tracer: Tracer, query, pdb) -> "dict":
    """The brute path: the 2^n coalition table, then one read-off per fact."""
    table: dict = {}
    n = len(pdb.endogenous)
    for size in range(n + 1):
        with tracer.span("engine.brute_table"):
            stratum = coalition_values_of_size(query, pdb, size)
        table.update(stratum)
        # One evaluation per coalition, plus the QueryGame's v(Dx).
        tracer.count("queries.evaluations", len(stratum) + 1)
    index = TracedIndex(SHAPLEY, tracer)
    values = {}
    for f in sorted(pdb.endogenous):
        with tracer.span("engine.brute_read"):
            values[f] = brute_value_from_table(table, pdb, f, index)
    tracer.count("values.facts", n)
    return values


def replay_attribution(tracer: Tracer, query, pdb, route: "tuple[str, str]", *,
                       store=None) -> dict:
    """Replay one ``AttributionSession(query, pdb).report()`` along ``route``.

    ``route`` is the untraced report's ``(backend, shard_axis)``.  Returns the
    per-fact Shapley values.  Raises ``ValueError`` on a route this replay
    does not mirror.
    """
    backend, axis = route
    with tracer.span("analysis.classify"):
        classify_svc(query)
    if backend == "brute":
        values = _brute_values(tracer, query, pdb)
    elif backend == "circuit":
        lineage = _lineage(tracer, query, pdb, store)
        tracer.count("counting.clauses", len(lineage.dnf.clauses))
        with tracer.span("engine.decompose"):
            decomposition = decompose_lineage(lineage)
        tracer.count("engine.islands", decomposition.n_components)
        if axis == "component":
            pairs = _component_pairs(tracer, query, lineage, decomposition, store)
        elif axis == "fact":
            pairs = _whole_formula_pairs(tracer, lineage)
        else:
            raise ValueError(f"no replay for shard axis {axis!r}")
        n = lineage.n_variables
        with tracer.span("values.combine"):
            values = {lineage.variables[v]: SHAPLEY.combine(w, wo, n)
                      for v, (w, wo) in pairs.items()}
        tracer.count("values.facts", n)
    else:
        raise ValueError(f"no replay for backend {backend!r}")
    grand = _grand_value(tracer, query, pdb)
    if sum(values.values(), Fraction(0)) != grand:
        raise AssertionError("replayed values break the efficiency axiom")
    sorted(values.items(), key=lambda item: (-item[1], item[0]))
    return values


class TenantReplica:
    """Replays tenant-stream ops against its own views and replica store.

    ``warm`` mirrors a tenant's initial refresh (maintained view, cold
    session, support) so the replica store holds what the service's store
    holds; every later op advances the replica the way the workspace
    advances its own state.
    """

    def __init__(self, tracer: Tracer, query):
        self.tracer = tracer
        self.query = query
        self.store = TracingStore(tracer)
        self.views: "dict[str, MaintainedLineage]" = {}
        self.values: "dict[str, dict]" = {}

    def warm(self, tenant: str, pdb) -> None:
        view = MaintainedLineage.build(self.query, pdb)
        self.store.put(maintained_key(self.query, pdb), view)
        values = AttributionSession(self.query, pdb, EngineConfig(on_hard="exact"),
                                    store=self.store).values()
        self.store.put(support_key(self.query, pdb), view.support_union())
        self.views[tenant], self.values[tenant] = view, values

    def refresh(self, tenant: str, delta, pdb, reason: str) -> dict:
        """Replay one single-delta refresh that took route ``reason``."""
        tracer, query = self.tracer, self.query
        view = self.views[tenant]
        with tracer.span("incremental.maintain"):
            advanced = view.apply(delta)
            lineage = advanced.lineage()
        if reason == "incremental-patch":
            with tracer.span("incremental.patch"):
                result = patch_attribution(
                    query, lineage, store=self.store, index=SHAPLEY.name,
                    mode="circuit", node_budget=BUDGET,
                    previous=view.lineage)
            values = result.values
            self.store.put(lineage_key(query, pdb), lineage)
            self.store.put(support_key(query, pdb), advanced.support_union())
        elif reason == "out-of-support-reuse":
            values = dict(self.values[tenant])
            if delta.op == "insert" and delta.endogenous:
                values[delta.fact] = Fraction(0)
            elif delta.op == "remove":
                values.pop(delta.fact, None)
        else:
            values = replay_attribution(tracer, query, pdb, ("circuit", "component"),
                                        store=self.store)
        self.store.put(maintained_key(query, pdb), advanced)
        self.views[tenant], self.values[tenant] = advanced, values
        return values

    def attribute(self, pdb, route: "tuple[str, str]") -> dict:
        """Replay the one computation a coalesced burst performs."""
        return replay_attribution(self.tracer, self.query, pdb, route,
                                  store=self.store)

    def what_if(self, pdb, removed_facts, probability: Fraction) -> "list[tuple]":
        """Replay a what-if batch of single-fact removals on the standing circuit.

        Returns ``(values, probability)`` per scenario.
        """
        tracer, query, store = self.tracer, self.query, self.store
        lineage = _lineage(tracer, query, pdb, store)
        compiled = store.get(circuit_key(query, lineage))
        if compiled is None:
            with tracer.span("compile.compile"):
                compiled = compile_lineage(lineage, node_budget=BUDGET)
            store.put(circuit_key(query, lineage), compiled)
        with tracer.span("compile.probability"):
            compiled.probability({f: probability for f in lineage.variables})
        out = []
        with tracer.span("compile.condition"):
            plan = ConditioningPlan(compiled.compiled)
            n_rem = lineage.n_variables - 1
            weights = [SHAPLEY.subset_weight(k, n_rem) for k in range(n_rem)]
            for f in removed_facts:
                raw, _, models = plan.restricted_semivalues(
                    {lineage.index_of(f): False}, weights)
                out.append(({lineage.variables[v]: value for v, value in raw.items()},
                            sppqe_from_fgmc_vector(models, probability)))
        return out


def shapley_by_definition(query, pdb) -> dict:
    """Shapley values straight from the subset formula (the parity oracle).

    ``Sh(f) = Σ_{S ⊆ Dn∖{f}} |S|! (n-|S|-1)! / n! · (v(S ∪ {f}) - v(S))``
    with ``v(S) = q(S ∪ Dx) - q(Dx)``; independent of every engine backend.
    Exponential: keep ``|Dn|`` small.
    """
    from math import factorial

    players = sorted(pdb.endogenous)
    n = len(players)
    base = int(query.evaluate(pdb.exogenous))
    value = {}
    for size in range(n + 1):
        for coalition in itertools.combinations(players, size):
            chosen = frozenset(coalition)
            value[chosen] = int(query.evaluate(chosen | pdb.exogenous)) - base
    out = {}
    for f in players:
        others = [p for p in players if p != f]
        total = 0
        for size in range(n):
            weight = factorial(size) * factorial(n - size - 1)
            for coalition in itertools.combinations(others, size):
                chosen = frozenset(coalition)
                total += weight * (value[chosen | {f}] - value[chosen])
        out[f] = Fraction(total, factorial(n))
    return out


__all__ = ["TenantReplica", "replay_attribution", "shapley_by_definition"]
