"""Per-fact Shapley value pipelines for database facts (the SVC problem).

The paper's reductions, one fact at a time:

* :func:`shapley_value_via_fgmc` — Claim A.1 / Proposition 3.3: the Shapley
  value is an affine combination of two FGMC vectors (on the database with the
  fact made exogenous and on the database with the fact removed).  With the
  lineage-based counter this is usually exponentially faster than brute force,
  and it is *the* sense in which "Shapley value computation is a matter of
  counting".
* :func:`shapley_value_safe_pipeline` — the FP side of the dichotomies: FGMC
  vectors are obtained from ``n + 1`` lifted-inference PQE evaluations through
  the Vandermonde bridge, giving a polynomial-time algorithm for safe (U)CQs.

Both end at the Claim A.1 combiner :func:`shapley_value_from_fgmc_vectors`.
Whole-database attribution goes through :class:`repro.api.AttributionSession`,
whose engine derives every per-fact vector pair from one shared artefact;
these pipelines are the references the batch benchmarks compare it against.
"""

from __future__ import annotations

from fractions import Fraction

from ..counting.problems import CountingMethod, fgmc_vector
from ..data.atoms import Fact
from ..data.database import PartitionedDatabase
from ..engine.backends import combine_fgmc_vectors
from ..engine.svc_engine import EngineBackend
from ..probability.interpolation import fgmc_vector_via_pqe
from ..probability.lifted import UnsafeQueryError, lifted_probability
from ..queries.base import BooleanQuery
from ..queries.cq import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries

#: The backend names the per-fact entry points accept: the engine's own.
SVCMethod = EngineBackend

#: Claim A.1 combiner (canonical implementation lives with the batched engine).
shapley_value_from_fgmc_vectors = combine_fgmc_vectors


def shapley_value_via_fgmc(query: BooleanQuery, pdb: PartitionedDatabase, fact: Fact,
                           counting_method: CountingMethod = "auto") -> Fraction:
    """SVC via the FGMC oracle (the reduction ``SVC_q ≤ FGMC_q`` of Proposition 3.3).

    The literal per-fact reduction: two fresh FGMC computations on the two
    derived databases.  The batched engine obtains the same two vectors by
    conditioning one shared lineage; this function remains as the reference
    (and as the per-fact baseline of the batch benchmarks).
    """
    n = len(pdb.endogenous)
    with_fact = PartitionedDatabase(pdb.endogenous - {fact}, pdb.exogenous | {fact})
    without_fact = PartitionedDatabase(pdb.endogenous - {fact}, pdb.exogenous)
    vector_with = fgmc_vector(query, with_fact, method=counting_method)
    vector_without = fgmc_vector(query, without_fact, method=counting_method)
    return shapley_value_from_fgmc_vectors(vector_with, vector_without, n)


def shapley_value_safe_pipeline(query: "ConjunctiveQuery | UnionOfConjunctiveQueries",
                                pdb: PartitionedDatabase, fact: Fact) -> Fraction:
    """The polynomial-time pipeline for safe queries.

    Safe plan → lifted PQE at ``n + 1`` probabilities → Vandermonde → FGMC
    vectors → Claim A.1.  Raises
    :class:`repro.probability.lifted.UnsafeQueryError` when no safe plan exists.
    Like :func:`shapley_value_via_fgmc` this is the literal per-fact reduction;
    the engine's ``safe`` backend shares the compiled plan and halves the
    interpolation work.
    """
    if not isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
        raise UnsafeQueryError("the safe pipeline applies to CQs and UCQs only")
    n = len(pdb.endogenous)
    with_fact = PartitionedDatabase(pdb.endogenous - {fact}, pdb.exogenous | {fact})
    without_fact = PartitionedDatabase(pdb.endogenous - {fact}, pdb.exogenous)

    def solver(q, tid):
        return lifted_probability(q, tid)

    vector_with = fgmc_vector_via_pqe(query, with_fact, pqe_solver=solver)
    vector_without = fgmc_vector_via_pqe(query, without_fact, pqe_solver=solver)
    return shapley_value_from_fgmc_vectors(vector_with, vector_without, n)
