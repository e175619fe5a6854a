"""Probabilistic query evaluation (PQE) and its restrictions.

``PQE_q`` asks for the probability that a tuple-independent probabilistic
database satisfies the query ``q``.  Three implementations are provided:

* ``method="brute"`` — sum over all possible worlds (exponential in the number
  of uncertain facts, works for any Boolean query),
* ``method="lineage"`` — build the monotone-DNF lineage over the uncertain
  facts and evaluate its probability with the decomposition-based engine
  (hom-closed queries only),
* ``method="lifted"`` — compile and evaluate a safe plan (safe (U)CQs only,
  polynomial time),
* ``method="circuit"`` — compile the lineage into a decision circuit and run
  its weighted bottom-up sweep (hom-closed queries only).  With a shared
  :class:`repro.workspace.ArtifactStore` the lineage and circuit are fetched
  from (and stored into) the same cache the attribution engines use, so a
  probability evaluation rides on the artefacts an attribution already paid
  for — zero recompiles.

``method="auto"`` tries lifted inference for (U)CQs, then lineage, then brute
force.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, Literal

from ..counting.lineage import Lineage, build_lineage
from ..queries.base import BooleanQuery
from ..queries.cq import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries
from .lifted import UnsafeQueryError, lifted_probability
from .tid import TupleIndependentDatabase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workspace.store import ArtifactStore

PQEMethod = Literal["auto", "brute", "lineage", "lifted", "circuit"]


def probability_brute_force(query: BooleanQuery, tid: TupleIndependentDatabase) -> Fraction:
    """Possible-worlds computation of ``Pr(D |= q)`` (exponential)."""
    deterministic = tid.deterministic_facts()
    uncertain = sorted(tid.uncertain_facts())
    total = Fraction(0)
    for size in range(len(uncertain) + 1):
        for chosen in itertools.combinations(uncertain, size):
            world = deterministic | frozenset(chosen)
            if not query.evaluate(world):
                continue
            weight = Fraction(1)
            chosen_set = frozenset(chosen)
            for f in uncertain:
                p = tid.probability(f)
                weight *= p if f in chosen_set else (1 - p)
            total += weight
    return total


def probability_via_lineage(query: BooleanQuery, tid: TupleIndependentDatabase) -> Fraction:
    """Lineage-based computation of ``Pr(D |= q)`` (hom-closed queries)."""
    pdb = tid.to_partitioned()
    lineage = build_lineage(query, pdb)
    return lineage.probability({f: tid.probability(f) for f in pdb.endogenous})


def probability_via_circuit(query: BooleanQuery, tid: TupleIndependentDatabase,
                            store: "ArtifactStore | None" = None,
                            node_budget: "int | None" = None) -> Fraction:
    """Circuit-backed ``Pr(D |= q)``: one weighted sweep of the compiled lineage.

    With ``store`` given, the lineage and the compiled circuit are looked up
    in the shared artifact store first and stored there on a miss — an
    attribution session over the same ``(query, database)`` content leaves
    exactly the artefacts this evaluation needs, and vice versa.  Raises
    :class:`repro.compile.CircuitBudgetError` when a fresh compilation would
    exceed ``node_budget`` (default :data:`repro.compile.DEFAULT_NODE_BUDGET`).
    """
    from ..compile import DEFAULT_NODE_BUDGET, CompiledLineage, compile_lineage
    from ..workspace.store import cached, circuit_key, lineage_key

    pdb = tid.to_partitioned()
    lineage = cached(store, lambda: lineage_key(query, pdb), Lineage,
                     lambda: build_lineage(query, pdb))
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    compiled = cached(store, lambda: circuit_key(query, lineage), CompiledLineage,
                      lambda: compile_lineage(lineage, node_budget=budget),
                      accept=lambda stored: stored.size <= budget)
    return compiled.probability({f: tid.probability(f)
                                 for f in pdb.endogenous})


def probability_of_query(query: BooleanQuery, tid: TupleIndependentDatabase,
                         method: PQEMethod = "auto",
                         store: "ArtifactStore | None" = None) -> Fraction:
    """``PQE_q``: the probability that the probabilistic database satisfies the query.

    ``store`` only matters to the ``circuit`` method (artefact reuse); the
    other methods ignore it.
    """
    if method == "brute":
        return probability_brute_force(query, tid)
    if method == "lineage":
        return probability_via_lineage(query, tid)
    if method == "circuit":
        return probability_via_circuit(query, tid, store=store)
    if method == "lifted":
        if not isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
            raise ValueError("lifted inference applies to CQs and UCQs only")
        return lifted_probability(query, tid)
    # auto
    if isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
        try:
            return lifted_probability(query, tid)
        except UnsafeQueryError:
            pass
    if query.is_hom_closed:
        return probability_via_lineage(query, tid)
    return probability_brute_force(query, tid)


def probability_half(query: BooleanQuery, tid: TupleIndependentDatabase,
                     method: PQEMethod = "auto") -> Fraction:
    """``PQE_q^{1/2}``: requires every fact to have probability exactly 1/2."""
    if tid.probability_image() != {Fraction(1, 2)}:
        raise ValueError("PQE[1/2] requires all probabilities to equal 1/2")
    return probability_of_query(query, tid, method)


def probability_half_one(query: BooleanQuery, tid: TupleIndependentDatabase,
                         method: PQEMethod = "auto") -> Fraction:
    """``PQE_q^{1/2;1}``: requires probabilities to be drawn from {1/2, 1}."""
    if not tid.probability_image() <= {Fraction(1, 2), Fraction(1)}:
        raise ValueError("PQE[1/2;1] requires all probabilities in {1/2, 1}")
    return probability_of_query(query, tid, method)
