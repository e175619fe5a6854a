"""Process-pool sharding of the batched SVC engine.

The paper's batched reduction makes every per-fact conditioned vector pair an
independent read-off of one shared artefact — a compiled circuit, a lineage
DNF, or a compiled safe plan — which is exactly the shape that shards across
workers.  This module is the execution layer behind
:class:`repro.engine.SVCEngine`:

* the parent pickles the shared artefact **once per pool** and ships it
  through the pool initializer (not per task), so each worker deserialises it
  a single time and then serves many tasks against it,
* one stripe driver, :func:`parallel_pairs`, runs a backend's pair kernel
  (:data:`repro.engine.backends.PAIR_KERNELS`) on interleaved stripes of its
  work items: facts for ``circuit``, ``counting`` and ``safe`` (a circuit
  worker pays the shared context sweep once and accumulates only its
  stripe's per-fact vectors), coalition sizes for ``brute`` (each worker
  enumerates whole strata),
* workers return integer pair partials, which the parent sums componentwise
  (integer addition — summation order is irrelevant), so pooled pairs are
  bitwise the serial kernel's by construction.

Every pool kind is index-agnostic: workers move pairs (or integer pair
partials) and the engine applies the configured value index exactly once.

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
from typing import Any, Sequence

from ..data.atoms import Fact
from ..reliability import faults
from ..reliability.retry import RetryPolicy
from . import backends, sharding

#: Worker-process state, installed once per pool by :func:`_init_worker`:
#: ``(kind, artefact)``, where ``kind`` names a pair kernel of
#: :data:`repro.engine.backends.PAIR_KERNELS` or ``"component"`` (whose
#: artefact is the island solving policy).
_STATE: "tuple[str, Any] | None" = None

#: The component driver's resubmission policy: one retry round, tiny backoff
#: (a crashed worker needs a fresh pool, not patience), then in-process.
POOL_RETRY = RetryPolicy(max_attempts=2, backoff_s=0.0)


def _init_worker(payload: bytes) -> None:
    """Pool initializer: deserialise the shared artefact once per worker.

    The payload is ``(kind, artefact, fault_plan)``; installing the parent's
    active fault plan here makes worker processes obey the same seeded
    schedule (fresh per-process counters — a ``times=1`` rule fires once per
    worker).
    """
    global _STATE
    kind, artefact, plan = pickle.loads(payload)
    if plan is not None:
        faults.activate(plan)
    _STATE = (kind, artefact)


def _stripe_pairs(items: Sequence) -> "dict[Fact, tuple[list[int], list[int]]]":
    """Worker task: the backend's pair kernel on one stripe of its work items."""
    faults.check("parallel.worker")
    kind, artefact = _STATE
    return backends.PAIR_KERNELS[kind](artefact, items)


def _component_chunk(task: "tuple[int, sharding.SubLineage]",
                     ) -> sharding.ComponentResult:
    """Worker task: solve one variable-disjoint island of the lineage.

    Unlike the stripe tasks, the shared initializer state carries only the
    solving policy (mode, node budget, whether to ship circuits back); the
    sub-lineage itself travels with the task — a few tuples of small integers
    per island, instead of the whole artefact per pool.  Islands produce
    conditioned *vectors*, not values, so the task is index-agnostic.
    """
    faults.check("parallel.worker")
    kind, policy = _STATE
    if kind != "component":
        raise ValueError(f"unknown worker kind {kind!r}")
    mode, node_budget, keep_circuit = policy
    index, sub = task
    return sharding.solve_component(sub, index, mode=mode,
                                    node_budget=node_budget,
                                    keep_circuit=keep_circuit)


def _initializer_payload(kind: str, artefact: Any) -> "bytes | None":
    """The pickled pool-initializer payload ``(kind, artefact, fault_plan)``,
    or ``None`` when it cannot be pickled."""
    try:
        return pickle.dumps((kind, artefact, faults.active_plan()))
    except Exception:
        return None


def _stripes(items: Sequence, workers: int) -> "list[list]":
    """Split items into at most ``workers`` interleaved, non-empty stripes.

    Striping (rather than contiguous blocks) balances the work when cost
    varies monotonically along the sequence — e.g. coalition sizes, whose
    strata sizes are binomials peaking at ``n/2``.
    """
    stripes = [list(items[i::workers]) for i in range(workers)]
    return [stripe for stripe in stripes if stripe]


def parallel_pairs(kind: str, artefact: Any, items: Sequence, workers: int
                   ) -> "dict[Fact, tuple[list[int], list[int]]] | None":
    """The pairs of a backend's pair kernel, its items striped across a pool.

    ``kind`` names the kernel in :data:`repro.engine.backends.PAIR_KERNELS`
    and ``artefact`` is its shared artefact.  Each worker runs the kernel on
    one stripe of ``items`` and returns integer pair partials; the parent
    sums them componentwise, which for fact stripes is a plain merge and for
    coalition-size stripes adds up each fact's strata.  Returns ``None`` when
    the artefact cannot be pickled or the pool fails, signalling the engine
    to fall back to its serial path.
    """
    payload = _initializer_payload(kind, artefact)
    if payload is None:
        return None
    try:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(payload,)) as pool:
            partials = list(pool.map(_stripe_pairs, _stripes(items, workers)))
    except Exception:
        # Pool-level failure (fork unavailable, broken pool, unpicklable
        # result, a worker raising): the serial path recomputes and, for
        # deterministic errors, re-raises with full context.
        return None
    pairs: "dict[Fact, tuple[list[int], list[int]]]" = {}
    for partial in partials:
        for f, (with_vec, without_vec) in partial.items():
            if f not in pairs:
                pairs[f] = (with_vec, without_vec)
                continue
            total_with, total_without = pairs[f]
            for j, v in enumerate(with_vec):
                total_with[j] += v
            for j, v in enumerate(without_vec):
                total_without[j] += v
    return pairs


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
                                   (mode, node_budget, keep_circuits))
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


__all__ = ["ComponentPoolOutcome", "POOL_RETRY", "parallel_component_results",
           "parallel_pairs"]
