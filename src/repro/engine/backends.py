"""The pair kernels of the engine backends.

Claim A.1 (Proposition 3.3) reduces every value to one conditioned FGMC
vector pair per fact — strata of coalitions satisfying with/without the fact —
followed by a fixed weighting.  Each exact backend of
:class:`repro.engine.SVCEngine` is one *pair kernel* here, with the one
signature ``kernel(artefact, items) -> {fact: (with_vector, without_vector)}``
over its shared artefact:

* ``circuit``  — a :class:`~repro.compile.CompiledLineage`; the items are
  facts, all priced by one top-down derivative sweep,
* ``counting`` — a :class:`~repro.counting.lineage.Lineage`; each item fact is
  priced by conditioning the DNF,
* ``safe``     — ``(query, plan, pdb, full_vector)``; each item fact costs one
  plan interpolation, the partition identity gives the other vector,
* ``brute``    — ``(query, pdb)``; the items are coalition *sizes*, and the
  kernel returns every fact's pair partials over those strata.

Serial engine and process-pool workers (:mod:`repro.engine.parallel`) run the
same kernels, so pooled values are bitwise-identical by construction.  The
kernels are index-agnostic: the engine applies the configured
:class:`repro.values.ValueIndex` once, to the (summed) pairs.

Everything here is side-effect free and operates on picklable inputs only —
a requirement for shipping the artefact to worker processes once per pool.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from ..data.atoms import Fact
from ..data.database import PartitionedDatabase
from ..probability.interpolation import fgmc_vector_via_pqe
from ..probability.lifted import Plan, evaluate_plan
from ..values import SHAPLEY, ValueIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compile import CompiledLineage
    from ..counting.lineage import Lineage
    from ..queries.base import BooleanQuery


def combine_fgmc_vectors(with_fact_exogenous: "list[int]", without_fact: "list[int]",
                         n_endogenous: int) -> Fraction:
    """Claim A.1: combine the two per-fact FGMC vectors into a Shapley value.

    ``with_fact_exogenous[j]`` counts generalized supports of size ``j`` in
    ``(Dn \\ {μ}, Dx ∪ {μ})``; ``without_fact[j]`` in ``(Dn \\ {μ}, Dx)``;
    ``n_endogenous`` is ``|Dn|`` (including μ).

    The canonical implementation now lives in
    :class:`repro.values.ShapleyIndex` (the weighting became a pluggable
    :class:`~repro.values.ValueIndex`); this historical entry point delegates
    verbatim — one integer numerator over the shared ``n!`` denominator, one
    ``Fraction`` at the end, bitwise-identical to the per-term accumulation.
    """
    return SHAPLEY.combine(with_fact_exogenous, without_fact, n_endogenous)


def circuit_pairs(compiled: "CompiledLineage", facts: "list[Fact]"
                  ) -> "dict[Fact, tuple[list[int], list[int]]]":
    """The pairs of ``facts`` from one derivative sweep of the compiled circuit.

    A worker pricing one stripe of facts still pays the context sweep once,
    and restricts the per-fact accumulation (the ``· n`` factor) to its stripe.
    """
    return compiled.conditioned_vector_pairs(facts)


def counting_pairs(lineage: "Lineage", facts: "Sequence[Fact]"
                   ) -> "dict[Fact, tuple[list[int], list[int]]]":
    """The pairs of ``facts``, each by conditioning the shared lineage DNF."""
    return {fact: lineage.conditioned_vectors(fact) for fact in facts}


def safe_pairs(artefact: "tuple[BooleanQuery, Plan, PartitionedDatabase, list[int]]",
               facts: "Sequence[Fact]"
               ) -> "dict[Fact, tuple[list[int], list[int]]]":
    """The pairs of ``facts`` from the shared safe plan.

    ``artefact`` is ``(query, plan, pdb, full_vector)``, where
    ``full_vector`` is the FGMC vector of the full database, interpolated once
    per engine; only the "fact removed" vector is interpolated per fact.
    """
    query, plan, pdb, full_vector = artefact
    n = len(pdb.endogenous)
    pairs = {}
    for fact in facts:
        without_pdb = PartitionedDatabase(pdb.endogenous - {fact}, pdb.exogenous)
        without_vec = fgmc_vector_via_pqe(
            query, without_pdb, pqe_solver=lambda _q, tid: evaluate_plan(plan, tid))
        # Partition identity: a size-(j+1) generalized support of (Dn, Dx)
        # either contains μ (a size-j support of (Dn \ {μ}, Dx ∪ {μ})) or not
        # (a size-(j+1) support of (Dn \ {μ}, Dx)).
        with_vec = [full_vector[j + 1] - (without_vec[j + 1] if j + 1 < len(without_vec) else 0)
                    for j in range(n)]
        pairs[fact] = (with_vec, without_vec)
    return pairs


def brute_pairs(artefact: "tuple[BooleanQuery, PartitionedDatabase]",
                sizes: "Sequence[int]"
                ) -> "dict[Fact, tuple[list[int], list[int]]]":
    """Every fact's pair partials over whole coalition-size strata.

    ``artefact`` is ``(query, pdb)``.  Rewrites the brute-force enumeration
    as a sum over *all* coalitions ``T``: a coalition of size ``s`` with game
    value ``v(T)`` contributes ``v(T)`` to stratum ``s - 1`` of the *with*
    vector of every fact in ``T`` (there ``T = S ∪ {μ}``) and ``v(T)`` to
    stratum ``s`` of the *without* vector of every fact outside it (there
    ``T = S``).  Over all sizes ``0..n`` the partials are the pairs; over a
    stripe of sizes they sum componentwise with the other stripes' partials,
    so no ``2^n`` coalition table is ever built.
    """
    from ..core.games import QueryGame

    query, pdb = artefact
    game = QueryGame(query, pdb)
    players = sorted(pdb.endogenous)
    n = len(players)
    partials = {f: ([0] * n, [0] * n) for f in players}
    for size in sizes:
        for coalition in itertools.combinations(players, size):
            value = game.value(frozenset(coalition))
            if value == 0:
                continue
            inside = set(coalition)
            for f in coalition:
                partials[f][0][size - 1] += value
            if size < n:
                for f in players:
                    if f not in inside:
                        partials[f][1][size] += value
    return partials


#: The pair kernel of each exact backend, by name.
PAIR_KERNELS = {"brute": brute_pairs, "circuit": circuit_pairs,
                "counting": counting_pairs, "safe": safe_pairs}


def coalition_values_of_size(query: "BooleanQuery", pdb: PartitionedDatabase,
                             size: int) -> "dict[frozenset[Fact], int]":
    """One stratum of the coalition table: every size-``size`` coalition's value.

    The engine no longer calls this (its brute kernel is :func:`brute_pairs`);
    it stays for the benchmark's traced replay of the table route.
    """
    from ..core.games import QueryGame

    game = QueryGame(query, pdb)
    players = sorted(pdb.endogenous)
    return {frozenset(coalition): game.value(frozenset(coalition))
            for coalition in itertools.combinations(players, size)}


def brute_value_from_table(table: "dict[frozenset[Fact], int]",
                           pdb: PartitionedDatabase, fact: Fact,
                           index: ValueIndex = SHAPLEY) -> Fraction:
    """The index value of one fact read off a full coalition table.

    The engine no longer calls this (its brute kernel is :func:`brute_pairs`);
    it stays for the benchmark's traced replay of the table route.
    """
    others = sorted(pdb.endogenous - {fact})
    n = len(pdb.endogenous)
    plus = [0] * n
    minus = [0] * n
    for size in range(len(others) + 1):
        for coalition in itertools.combinations(others, size):
            before = frozenset(coalition)
            plus[size] += table[before | {fact}]
            minus[size] += table[before]
    return index.combine(plus, minus, n)


__all__ = [
    "PAIR_KERNELS",
    "brute_pairs",
    "brute_value_from_table",
    "circuit_pairs",
    "coalition_values_of_size",
    "combine_fgmc_vectors",
    "counting_pairs",
    "safe_pairs",
]
