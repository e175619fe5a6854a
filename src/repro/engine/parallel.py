"""Process-pool sharding of the batched SVC engine.

The paper's batched reduction makes every per-fact value an independent
conditioning of one shared artefact — a lineage DNF, a compiled safe plan, or
a coalition table — which is exactly the shape that shards across workers.
This module is the execution layer behind :class:`repro.engine.SVCEngine`:

* the parent pickles the shared artefact **once per pool** and ships it
  through the pool initializer (not per task), so each worker deserialises it
  a single time and then serves many per-fact tasks against it,
* the per-fact work of the ``circuit``, ``counting`` and ``safe`` backends is
  sharded by striping the sorted fact list across workers (a circuit worker
  pays the shared context sweep once and accumulates only its stripe's
  per-fact vectors),
* the ``2^n`` coalition-table fill of the ``brute`` backend is sharded by
  coalition size (each worker evaluates whole strata of the table),
* every worker runs the *same* per-fact kernels as the serial engine
  (:mod:`repro.engine.backends`), so parallel results are bitwise-identical
  ``Fraction`` values by construction.

The configured :class:`repro.values.ValueIndex` travels by *name* in the
initializer payload of the fact-striping kinds; the brute and component kinds
stay index-agnostic — their workers return integer conditioned-vector-pair
partials, and the parent applies the index exactly once.

All drivers degrade gracefully: if the artefact fails to pickle, or the pool
itself fails (e.g. a sandbox forbids ``fork``), they return ``None`` and the
engine falls back to the serial path.  The component driver goes further —
a failed island task is resubmitted to a fresh pool once, and an island still
failing after the retry round is solved *in-process*, so one crashed worker
degrades one island, not the whole batch
(:class:`ComponentPoolOutcome` records what happened).  Correctness therefore
never depends on the pool; only wall-clock time does.

Fault injection: when a :mod:`repro.reliability.faults` plan is active in the
parent, the pool initializer ships it into every worker process, so
``"crash"`` rules at the ``"parallel.worker"`` point kill *real* workers —
the failure mode the retry-then-degrade path exists for.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from ..data.atoms import Fact
from ..reliability import faults
from ..reliability.retry import RetryPolicy
from ..values import SHAPLEY, ValueIndex, get_index
from . import backends, sharding

#: Worker-process state, installed once per pool by :func:`_init_worker`.
#: ``_STATE`` is ``(kind, artefact, index_name)`` where ``kind`` names the
#: backend flavour and ``index_name`` the value index the fact-striping kinds
#: combine with (``None`` for the pair-producing brute / component kinds).
_STATE: "tuple[str, Any, str | None] | None" = None

#: The component driver's resubmission policy: one retry round, tiny backoff
#: (a crashed worker needs a fresh pool, not patience), then in-process.
POOL_RETRY = RetryPolicy(max_attempts=2, backoff_s=0.0)


def _init_worker(payload: bytes) -> None:
    """Pool initializer: deserialise the shared artefact once per worker.

    The payload's optional fourth element is the parent's active fault plan;
    installing it here makes worker processes obey the same seeded schedule
    (fresh per-process counters — a ``times=1`` rule fires once per worker).
    """
    global _STATE
    state = pickle.loads(payload)
    if len(state) == 4:
        kind, artefact, index_name, plan = state
        if plan is not None:
            faults.activate(plan)
        _STATE = (kind, artefact, index_name)
    else:
        _STATE = state


def _fact_chunk_values(facts: Sequence[Fact]) -> "list[tuple[Fact, Fraction]]":
    """Worker task: per-fact index values for one stripe of the fact list."""
    faults.check("parallel.worker")
    kind, artefact, index_name = _STATE
    index = get_index(index_name)
    if kind == "circuit":
        compiled = artefact
        return list(backends.circuit_values_from_compiled(compiled, facts,
                                                          index).items())
    if kind == "counting":
        lineage = artefact
        return [(f, backends.counting_value_from_lineage(lineage, f, index))
                for f in facts]
    if kind == "safe":
        query, plan, pdb, full_vector = artefact
        return [(f, backends.safe_value_from_plan(query, plan, pdb, full_vector,
                                                  f, index))
                for f in facts]
    raise ValueError(f"unknown worker kind {kind!r}")


def _component_chunk(task: "tuple[int, sharding.SubLineage]",
                     ) -> sharding.ComponentResult:
    """Worker task: solve one variable-disjoint island of the lineage.

    Unlike the fact-striping tasks, the shared initializer state carries only
    the solving policy (mode, node budget, whether to ship circuits back);
    the sub-lineage itself travels with the task — a few tuples of small
    integers per island, instead of the whole artefact per pool.  Islands
    produce conditioned *vectors*, not values, so the task is index-agnostic.
    """
    faults.check("parallel.worker")
    kind, policy, _ = _STATE
    if kind != "component":
        raise ValueError(f"unknown worker kind {kind!r}")
    mode, node_budget, keep_circuit = policy
    index, sub = task
    return sharding.solve_component(sub, index, mode=mode,
                                    node_budget=node_budget,
                                    keep_circuit=keep_circuit)


def _coalition_sizes_chunk(sizes: Sequence[int]
                           ) -> "dict[Fact, tuple[list[int], list[int]]]":
    """Worker task: per-fact conditioned-pair partials for one stripe of sizes.

    Returning integer pair partials instead of the raw table strata keeps the
    result transfer at ``2n`` integers per fact per worker (the ``2^n`` table
    never crosses a process boundary), shards the per-fact read-off along
    with the fill, and keeps the payload index-agnostic — the parent sums the
    strata and applies the configured index once.
    """
    faults.check("parallel.worker")
    kind, artefact, _ = _STATE
    if kind != "brute":
        raise ValueError(f"unknown worker kind {kind!r}")
    query, pdb = artefact
    return backends.brute_pair_partials_for_sizes(query, pdb, list(sizes))


def _pickled(payload: object) -> "bytes | None":
    """The pickled payload, or ``None`` when it cannot be pickled."""
    try:
        return pickle.dumps(payload)
    except Exception:
        return None


def _initializer_payload(kind: str, artefact: Any,
                         index_name: "str | None") -> "bytes | None":
    """The pool-initializer payload, carrying the active fault plan along."""
    return _pickled((kind, artefact, index_name, faults.active_plan()))


def _stripes(items: Sequence, workers: int) -> "list[list]":
    """Split items into at most ``workers`` interleaved, non-empty stripes.

    Striping (rather than contiguous blocks) balances the work when cost
    varies monotonically along the sequence — e.g. coalition sizes, whose
    strata sizes are binomials peaking at ``n/2``.
    """
    stripes = [list(items[i::workers]) for i in range(workers)]
    return [stripe for stripe in stripes if stripe]


def parallel_fact_values(artefact: "tuple[str, Any]", facts: Sequence[Fact],
                         workers: int,
                         index_name: str = "shapley"
                         ) -> "dict[Fact, Fraction] | None":
    """Per-fact index values of ``facts``, sharded across a process pool.

    ``artefact`` is ``(kind, payload)`` as understood by
    :func:`_fact_chunk_values`; ``index_name`` selects the value index every
    worker combines with.  Returns ``None`` when the artefact cannot be
    pickled or the pool fails, signalling the engine to fall back to its
    serial path.
    """
    payload = _initializer_payload(artefact[0], artefact[1], index_name)
    if payload is None:
        return None
    try:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(payload,)) as pool:
            results = pool.map(_fact_chunk_values, _stripes(facts, workers))
            return {f: v for chunk in results for f, v in chunk}
    except Exception:
        # Pool-level failure (fork unavailable, broken pool, unpicklable
        # result, a worker raising): the serial path recomputes and, for
        # deterministic errors, re-raises with full context.
        return None


@dataclass(frozen=True)
class ComponentPoolOutcome:
    """What the component pool actually did: results plus the failure ledger.

    ``retried`` counts island tasks resubmitted to a fresh pool after a first
    failure; ``degraded`` counts islands the pool never delivered, solved
    in-process by the parent instead.  ``retried == degraded == 0`` is the
    happy path; anything else surfaces in the engine's degradation reasons.
    """

    results: "tuple[sharding.ComponentResult, ...]"
    retried: int = 0
    degraded: int = 0


def parallel_component_results(tasks: "Sequence[tuple[int, sharding.SubLineage]]",
                               mode: str, node_budget: int, workers: int,
                               keep_circuits: bool = False,
                               retry: "RetryPolicy | None" = None,
                               ) -> "ComponentPoolOutcome | None":
    """Solve lineage islands across a process pool (the component shard axis).

    ``tasks`` pairs each island with its index in the decomposition; every
    worker runs the same :func:`repro.engine.sharding.solve_component` kernel
    as the serial path, so recombined values stay bitwise-identical.
    ``keep_circuits`` asks workers to return compiled circuits alongside the
    count vectors (the parent persists them in its artifact store).

    Failure containment is per island, not per batch: tasks are submitted
    individually, a failed island is resubmitted to a *fresh* pool (one crash
    poisons a ``ProcessPoolExecutor`` wholesale, so retry rounds re-fork),
    and an island that still fails is solved in-process by the parent — where
    a deterministic error re-raises with full context instead of silently
    degrading.  Returns ``None`` only when the policy payload cannot be
    pickled (the engine's wholesale serial fallback).
    """
    payload = _initializer_payload("component",
                                   (mode, node_budget, keep_circuits), None)
    if payload is None:
        return None
    policy = retry if retry is not None else POOL_RETRY
    done: "dict[int, sharding.ComponentResult]" = {}
    pending = list(tasks)
    retried = 0
    for round_index in range(policy.max_attempts):
        if not pending:
            break
        if round_index > 0:
            retried += len(pending)
        failed: "list[tuple[int, sharding.SubLineage]]" = []
        try:
            with ProcessPoolExecutor(max_workers=workers,
                                     initializer=_init_worker,
                                     initargs=(payload,)) as pool:
                futures = [(pool.submit(_component_chunk, task), task)
                           for task in pending]
                for future, task in futures:
                    try:
                        result = future.result()
                        done[result.index] = result
                    except Exception:
                        # A worker crash breaks every sibling future of the
                        # round; collect them all for the next fresh pool.
                        failed.append(task)
        except Exception:
            # The pool itself would not start (fork forbidden) or tore down
            # uncleanly: everything not yet delivered goes to the next round.
            failed = [task for task in pending if task[0] not in done]
        pending = failed
    degraded = len(pending)
    for index, sub in pending:
        # The last line of defence runs in-process: bitwise the same kernel,
        # and a deterministic error now propagates instead of being retried.
        done[index] = sharding.solve_component(sub, index, mode=mode,
                                               node_budget=node_budget,
                                               keep_circuit=keep_circuits)
    return ComponentPoolOutcome(
        results=tuple(done[index] for index, _ in tasks),
        retried=retried, degraded=degraded)


def parallel_brute_values(artefact: "tuple[str, Any]", n_endogenous: int,
                          workers: int,
                          index: ValueIndex = SHAPLEY
                          ) -> "dict[Fact, Fraction] | None":
    """Every index value of the brute backend, strata sharded across a pool.

    The ``2^n`` coalition evaluations are chunked by coalition size; each
    worker returns per-fact integer pair partials over its strata, which add
    up componentwise (integer addition — summation order is irrelevant) to
    the same conditioned vector pairs the serial table read-off produces; the
    parent then applies ``index`` once per fact.  Returns ``None`` on
    pickling or pool failure (serial fallback).
    """
    payload = _initializer_payload(artefact[0], artefact[1], None)
    if payload is None:
        return None
    sizes = list(range(n_endogenous + 1))
    try:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(payload,)) as pool:
            results = list(pool.map(_coalition_sizes_chunk, _stripes(sizes, workers)))
    except Exception:
        return None
    pairs: "dict[Fact, tuple[list[int], list[int]]]" = {}
    for partial in results:
        for f, (plus, minus) in partial.items():
            if f not in pairs:
                pairs[f] = (list(plus), list(minus))
            else:
                total_plus, total_minus = pairs[f]
                for j, v in enumerate(plus):
                    total_plus[j] += v
                for j, v in enumerate(minus):
                    total_minus[j] += v
    return {f: index.combine(plus, minus, n_endogenous)
            for f, (plus, minus) in pairs.items()}


__all__ = ["ComponentPoolOutcome", "POOL_RETRY", "parallel_brute_values",
           "parallel_component_results", "parallel_fact_values"]
