"""The pluggable combiner layer: conditioned vector pairs → index values.

Every exact backend of the engine reduces attribution to the same artefact:
for each endogenous fact μ, the pair of size-stratified counts

* ``with_fact_exogenous[j]`` — generalized supports of size ``j`` of the query
  in ``(Dn \\ {μ}, Dx ∪ {μ})`` (coalitions S with ``S ∪ {μ}`` satisfying), and
* ``without_fact[j]`` — generalized supports of size ``j`` in
  ``(Dn \\ {μ}, Dx)`` (coalitions S satisfying on their own).

The paper's Claim A.1 turns that pair into a *Shapley* value with the weights
``j!(n-1-j)!/n!`` — but the pair parameterises a whole family of power
indices with nothing but a different final weighting.  This module is that
final weighting, made pluggable: a :class:`ValueIndex` consumes a pair and
produces one exact :class:`~fractions.Fraction`.

Three indices ship:

* ``shapley`` — Claim A.1 / Proposition 3.3, bit-for-bit the historical
  ``combine_fgmc_vectors`` (one integer numerator over the shared ``n!``
  denominator, a single ``Fraction`` at the end);
* ``banzhaf`` — the raw swing count over ``2^(n-1)``: the probability that μ
  is critical for a uniformly random coalition of the other facts;
* ``responsibility`` — the Chockler–Halpern degree of responsibility
  ``1/(1+k)`` where ``k`` is the size of a minimum contingency set, counted
  from the largest stratum with a swing (for monotone — hom-closed — queries
  the per-stratum swing count is exactly ``with[j] - without[j]``).

Shapley and Banzhaf are *semivalues*: they also admit a per-coalition-size
weight ``w(s, n)`` (:meth:`ValueIndex.subset_weight`) against which the
property tests cross-check the pair combination.  Responsibility is not a
semivalue — which is why every backend, brute included, goes through the
pair form (the pair kernels of :mod:`repro.engine.backends`, brute's being
:func:`~repro.engine.backends.brute_pairs`).

The sharding and parallel layers stay index-agnostic by construction: they
move *pairs* (or integer pair partials) across process and island boundaries,
and the engine applies the index exactly once, at the end
(``SVCEngine._combine``) — which is also why every index is exact on every
backend, bitwise-identically.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..errors import ConfigError
from ..linalg import shapley_subset_weight

#: The registered index names, in the order the docs present them.
INDICES = ("shapley", "banzhaf", "responsibility")


@lru_cache(maxsize=4096)
def _factorials(n: int) -> "tuple[int, ...]":
    """``(0!, 1!, ..., n!)`` — shared by every Shapley combination at size n."""
    values = [1]
    for k in range(1, n + 1):
        values.append(values[-1] * k)
    return tuple(values)


def _at(vector: "list[int]", index: int) -> int:
    return vector[index] if 0 <= index < len(vector) else 0


class ValueIndex:
    """One power index over the conditioned-vector-pair artefact.

    Subclasses define :meth:`combine`; semivalues additionally define
    :meth:`subset_weight`.  Instances are stateless singletons — compare them
    by :attr:`name` (which is also what configurations, LRU keys, request
    keys and JSON payloads carry).
    """

    #: The registered name (what ``EngineConfig(index=...)`` takes).
    name: str = ""
    #: Whether the index is a semivalue (admits per-stratum subset weights).
    is_semivalue: bool = False

    def combine(self, with_fact_exogenous: "list[int]",
                without_fact: "list[int]", n_endogenous: int) -> Fraction:
        """The index value of the fact from its conditioned vector pair."""
        raise NotImplementedError  # pragma: no cover - abstract

    def subset_weight(self, subset_size: int, n_players: int) -> Fraction:
        """The semivalue weight ``w(s, n)`` of one size-``s`` coalition.

        Only defined for semivalues (``is_semivalue``): the index value is
        ``Σ_S w(|S|, n) · (v(S ∪ {μ}) - v(S))`` over coalitions of the other
        facts — the per-coalition reference the property tests check the
        stratified pair combination against.
        """
        raise NotImplementedError(
            f"index {self.name!r} is not a semivalue: it has no per-stratum "
            f"subset weight — combine conditioned vector pairs instead")

    def __repr__(self) -> str:
        return f"<ValueIndex {self.name}>"


class ShapleyIndex(ValueIndex):
    """Claim A.1: ``Sh(μ) = Σ_j j!(n-1-j)!/n! · (with[j] - without[j])``.

    The implementation is the historical ``combine_fgmc_vectors`` moved here
    verbatim: one integer numerator accumulated over the shared ``n!``
    denominator, one ``Fraction`` built at the end — bitwise-identical to the
    per-term reference by the property test of ``tests/test_compile.py``.
    """

    name = "shapley"
    is_semivalue = True

    def combine(self, with_fact_exogenous: "list[int]",
                without_fact: "list[int]", n_endogenous: int) -> Fraction:
        n = n_endogenous
        if n == 0:
            return Fraction(0)
        factorials = _factorials(n)
        numerator = 0
        for j in range(n):
            plus = _at(with_fact_exogenous, j)
            minus = _at(without_fact, j)
            if plus != minus:
                numerator += factorials[j] * factorials[n - 1 - j] * (plus - minus)
        return Fraction(numerator, factorials[n])

    def subset_weight(self, subset_size: int, n_players: int) -> Fraction:
        return shapley_subset_weight(subset_size, n_players)


class BanzhafIndex(ValueIndex):
    """The (non-normalised) Banzhaf index: swing count over ``2^(n-1)``.

    ``Bz(μ) = Σ_j (with[j] - without[j]) / 2^(n-1)`` — the probability that μ
    is critical when every other fact joins the coalition independently with
    probability 1/2.  Equivalently (the *total-value identity*): the
    difference of plain generalized model counts
    ``GMC(Dn \\ {μ}, Dx ∪ {μ}) - GMC(Dn \\ {μ}, Dx)`` over ``2^(n-1)`` — no
    size stratification needed, which is what the parity tests check against.
    """

    name = "banzhaf"
    is_semivalue = True

    def combine(self, with_fact_exogenous: "list[int]",
                without_fact: "list[int]", n_endogenous: int) -> Fraction:
        n = n_endogenous
        if n == 0:
            return Fraction(0)
        numerator = 0
        for j in range(n):
            numerator += _at(with_fact_exogenous, j) - _at(without_fact, j)
        return Fraction(numerator, 2 ** (n - 1))

    def subset_weight(self, subset_size: int, n_players: int) -> Fraction:
        if not 0 <= subset_size <= n_players - 1:
            raise ValueError(
                f"subset_size must be in [0, {n_players - 1}], got {subset_size}")
        return Fraction(1, 2 ** (n_players - 1))


class ResponsibilityIndex(ValueIndex):
    """Chockler–Halpern degree of responsibility, by counting.

    ``ρ(μ) = 1/(1+k)`` where ``k`` is the size of a minimum contingency set:
    the fewest endogenous facts whose removal makes μ counterfactual (the
    query holds with μ, fails without it).  μ is a swing for a coalition
    ``S ⊆ Dn \\ {μ}`` exactly when ``S ∪ {μ}`` satisfies and ``S`` does not;
    removing the contingency set ``Γ = Dn \\ {μ} \\ S`` (size ``n-1-|S|``)
    then makes μ counterfactual.  For monotone (hom-closed) queries the
    number of size-``j`` swings is exactly ``with[j] - without[j]``, so the
    minimum ``k`` is read off the *largest* stratum with a nonzero surplus —
    pure counting, no search.  ``ρ(μ) = 0`` iff every stratum has
    ``with[j] == without[j]``, i.e. iff μ is a null player — the consistency
    the cross-index tests pin down.

    Not a semivalue: there is no per-coalition weight whose weighted marginal
    sum yields ``1/(1+k)``, so :meth:`subset_weight` raises — every backend
    computes responsibility through the pair form.
    """

    name = "responsibility"
    is_semivalue = False

    def combine(self, with_fact_exogenous: "list[int]",
                without_fact: "list[int]", n_endogenous: int) -> Fraction:
        n = n_endogenous
        for j in range(n - 1, -1, -1):
            if _at(with_fact_exogenous, j) != _at(without_fact, j):
                return Fraction(1, 1 + (n - 1 - j))
        return Fraction(0)


#: The stateless singletons (what the engine actually calls).
SHAPLEY = ShapleyIndex()
BANZHAF = BanzhafIndex()
RESPONSIBILITY = ResponsibilityIndex()

_BY_NAME = {index.name: index for index in (SHAPLEY, BANZHAF, RESPONSIBILITY)}


def get_index(name: "str | ValueIndex") -> ValueIndex:
    """The registered :class:`ValueIndex` for a name (idempotent on instances)."""
    if isinstance(name, ValueIndex):
        return name
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigError(
            f"index must be one of {INDICES}, got {name!r}") from None


__all__ = [
    "BANZHAF",
    "BanzhafIndex",
    "INDICES",
    "RESPONSIBILITY",
    "ResponsibilityIndex",
    "SHAPLEY",
    "ShapleyIndex",
    "ValueIndex",
    "get_index",
]
