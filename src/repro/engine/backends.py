"""Pure per-fact value functions of the engine backends.

These are the computational kernels of :class:`repro.engine.SVCEngine`,
factored out as module-level functions of the *shared artefact* (lineage, safe
plan + full FGMC vector, or coalition table) and one fact.  Both the serial
engine and the process-pool workers of :mod:`repro.engine.parallel` call the
same functions, so the parallel backend is bitwise-identical to the serial one
by construction: there is exactly one implementation of each backend's
arithmetic.

Every kernel ends at the same seam: a per-fact *conditioned vector pair*
(strata of coalitions satisfying with/without the fact) handed to one
:class:`repro.values.ValueIndex` — Shapley by default, Banzhaf or
responsibility when the engine is configured with a different index.  The
artefacts themselves are index-independent; only this final combination step
varies.

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


# ---------------------------------------------------------------------------
# counting backend
# ---------------------------------------------------------------------------

def counting_value_from_lineage(lineage: "Lineage", fact: Fact,
                                index: ValueIndex = SHAPLEY) -> Fraction:
    """The index value of one fact by conditioning the shared lineage DNF."""
    with_vec, without_vec = lineage.conditioned_vectors(fact)
    return index.combine(with_vec, without_vec, lineage.n_variables)


# ---------------------------------------------------------------------------
# circuit backend
# ---------------------------------------------------------------------------

def circuit_values_from_compiled(compiled: "CompiledLineage",
                                 facts: "Sequence[Fact]",
                                 index: ValueIndex = SHAPLEY
                                 ) -> "dict[Fact, Fraction]":
    """Index values of ``facts`` from the shared compiled circuit.

    One top-down derivative sweep prices every requested per-fact conditioned
    vector pair at once (:meth:`repro.compile.CompiledLineage.conditioned_vector_pairs`);
    the combination step is then identical to the other backends.  Serial
    engine and pool workers both run exactly this function — a worker
    computing one stripe of facts still pays the context sweep only once, and
    restricts the per-fact accumulation (the ``· n`` factor) to its stripe.
    """
    n = compiled.n_variables
    pairs = compiled.conditioned_vector_pairs(list(facts))
    return {fact: index.combine(with_vec, without_vec, n)
            for fact, (with_vec, without_vec) in pairs.items()}


# ---------------------------------------------------------------------------
# safe backend
# ---------------------------------------------------------------------------

def safe_value_from_plan(query: "BooleanQuery", plan: Plan, pdb: PartitionedDatabase,
                         full_vector: "list[int]", fact: Fact,
                         index: ValueIndex = SHAPLEY) -> Fraction:
    """The index value of one fact from the shared safe plan.

    ``full_vector`` is the FGMC vector of the full database, interpolated once
    per engine; only the "fact removed" vector is interpolated here, the "fact
    exogenous" vector follows from the partition identity
    ``full[k] = with[k-1] + without[k]``.
    """
    n = len(pdb.endogenous)
    without_pdb = PartitionedDatabase(pdb.endogenous - {fact}, pdb.exogenous)
    without_vec = fgmc_vector_via_pqe(
        query, without_pdb, pqe_solver=lambda _q, tid: evaluate_plan(plan, tid))
    # Partition identity: a size-(j+1) generalized support of (Dn, Dx)
    # either contains μ (a size-j support of (Dn \ {μ}, Dx ∪ {μ})) or not
    # (a size-(j+1) support of (Dn \ {μ}, Dx)).
    with_vec = [full_vector[j + 1] - (without_vec[j + 1] if j + 1 < len(without_vec) else 0)
                for j in range(n)]
    return index.combine(with_vec, without_vec, n)


# ---------------------------------------------------------------------------
# brute backend
# ---------------------------------------------------------------------------

def coalition_values_of_size(query: "BooleanQuery", pdb: PartitionedDatabase,
                             size: int) -> "dict[frozenset[Fact], int]":
    """One stratum of the coalition table: every size-``size`` coalition's value.

    The 2^n table fill is sharded across worker processes by coalition size;
    each worker evaluates the query game on its strata only.
    """
    from ..core.games import QueryGame

    game = QueryGame(query, pdb)
    players = sorted(pdb.endogenous)
    return {frozenset(coalition): game.value(frozenset(coalition))
            for coalition in itertools.combinations(players, size)}


def brute_pair_partials_for_sizes(query: "BooleanQuery", pdb: PartitionedDatabase,
                                  sizes: "list[int]"
                                  ) -> "dict[Fact, tuple[list[int], list[int]]]":
    """Per-fact conditioned-vector-pair partials over whole coalition-size strata.

    Rewrites the brute-force enumeration as a sum over *all* coalitions ``T``:
    a coalition of size ``s`` with game value ``v(T)`` contributes ``v(T)`` to
    stratum ``s - 1`` of the *with* vector of every fact in ``T`` (there
    ``T = S ∪ {μ}``) and ``v(T)`` to stratum ``s`` of the *without* vector of
    every fact outside it (there ``T = S``).  Each worker evaluates the query
    game only on its strata and returns integer pair partials, so nothing the
    size of the ``2^n`` table ever crosses a process boundary and the payload
    stays **index-agnostic** — the parent sums the strata componentwise and
    applies the configured :class:`~repro.values.ValueIndex` exactly once.
    """
    from ..core.games import QueryGame

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


def brute_pairs_from_table(table: "dict[frozenset[Fact], int]",
                           pdb: PartitionedDatabase,
                           fact: Fact) -> "tuple[list[int], list[int]]":
    """One fact's conditioned vector pair read off the shared coalition table."""
    others = sorted(pdb.endogenous - {fact})
    n = len(pdb.endogenous)
    plus = [0] * n
    minus = [0] * n
    for size in range(len(others) + 1):
        for coalition in itertools.combinations(others, size):
            before = frozenset(coalition)
            plus[size] += table[before | {fact}]
            minus[size] += table[before]
    return plus, minus


def brute_value_from_table(table: "dict[frozenset[Fact], int]",
                           pdb: PartitionedDatabase, fact: Fact,
                           index: ValueIndex = SHAPLEY) -> Fraction:
    """The index value of one fact read off the shared coalition table."""
    plus, minus = brute_pairs_from_table(table, pdb, fact)
    return index.combine(plus, minus, len(pdb.endogenous))


__all__ = [
    "brute_pair_partials_for_sizes",
    "brute_pairs_from_table",
    "brute_value_from_table",
    "circuit_values_from_compiled",
    "coalition_values_of_size",
    "combine_fgmc_vectors",
    "counting_value_from_lineage",
    "safe_value_from_plan",
]
