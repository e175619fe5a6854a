"""Size-stratified model counting for monotone DNFs.

The lineage of a (C-)hom-closed query over a partitioned database is a
*monotone* DNF over the endogenous facts: a subset ``S ⊆ Dn`` satisfies the
query (together with ``Dx``) iff it contains all facts of some clause.  The
fixed-size generalized model counting problem FGMC therefore reduces to
computing, for every ``k``, the number of variable subsets of size ``k`` that
contain some clause.

This module implements an exact counter for that quantity using the classic
#SAT ingredients — branching on a most-frequent variable, decomposition into
variable-disjoint components, memoisation — specialised to monotone DNFs and
returning the whole *size-stratified* count vector at once (a polynomial in a
formal size variable, represented as a list of Python integers).  It plays the
role the paper's counting oracles (or an external model counter such as PySDD)
would play in practice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Mapping, Sequence


def binomial_row(n: int) -> list[int]:
    """The vector ``[C(n,0), C(n,1), ..., C(n,n)]``."""
    return [math.comb(n, k) for k in range(n + 1)]


def convolve(left: Sequence[int], right: Sequence[int]) -> list[int]:
    """Convolution of two coefficient vectors (product of generating polynomials)."""
    if not left or not right:
        return []
    out = [0] * (len(left) + len(right) - 1)
    for i, a in enumerate(left):
        if a == 0:
            continue
        for j, b in enumerate(right):
            if b:
                out[i + j] += a * b
    return out


def add_vectors(left: Sequence[int], right: Sequence[int]) -> list[int]:
    """Component-wise sum of two coefficient vectors (padded with zeros)."""
    size = max(len(left), len(right))
    out = [0] * size
    for i, a in enumerate(left):
        out[i] += a
    for i, b in enumerate(right):
        out[i] += b
    return out


def pad(vector: Sequence[int], length: int) -> list[int]:
    """Pad a coefficient vector with zeros up to ``length`` entries."""
    out = list(vector)
    if len(out) < length:
        out.extend([0] * (length - len(out)))
    return out


def recombine(complements: Sequence[Sequence[int]],
              true_branches: "Sequence[Mapping[int, Sequence[int]]]",
              free: int, free_variables: Iterable[int] = (),
              weights: "Sequence[Fraction] | None" = None,
              ) -> "tuple[list[int], dict]":
    """The FGMC vectors of a disjunction of variable-disjoint islands.

    ``complements[i]`` counts island ``i``'s non-models by size (length
    ``n_i + 1``); ``true_branches[i]`` maps each island-``i`` variable to
    price to the island's non-model vector with that variable fixed true
    (length ``n_i``); ``free`` more variables lie in no island.  A subset
    falsifies the disjunction iff it falsifies every island, so the global
    non-models are ``nm = Π_i complements[i] · (1+z)^free`` and the returned
    model vector is ``C(n, k) - nm[k]`` (length ``n + 1``).

    Fixing a variable of island ``i`` replaces only factor ``i``:
    ``nm_true = true_branch · rest_i``, with ``rest_i`` the product of the
    other factors (prefix/suffix products: ``O(m)`` convolutions for ``m``
    islands).  The false branch needs no second convolution, since a
    size-``k`` non-model either contains the variable or not:
    ``nm[k] = nm_true[k-1] + nm_false[k]``.

    The returned dict maps every priced variable (the branch keys and
    ``free_variables``) to ``(with_vector, without_vector)`` — exactly
    :meth:`MonotoneDNF.conditioned_count_by_size` of the disjunction.  Given
    a semivalue's ``weights`` ``w(k, n)`` for ``k = 0 .. n-1`` it maps them to
    the value ``Σ_k w_k·(with[k] - without[k]) = Σ_k w_k·nm[k] -
    Σ_a true[a]·(U[a] + U[a+1])`` instead, with the U-transform
    ``U[a] = Σ_b rest_i[b]·w_{a+b}`` taken once per island, so no vector is
    built per variable.  The sums run in integers over the weights' common
    denominator: the ``Fraction`` is the one ``index.combine`` returns on the
    vectors.  Free variables are null players (equal vectors, value 0).
    """
    m = len(complements)
    n = free + sum(len(c) - 1 for c in complements)
    # Suffix products seeded with the free row: suffix[0] is the global nm,
    # and each island's rest folds (1+z)^free in once.
    suffix: list[list[int]] = [binomial_row(free)] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = convolve(complements[i], suffix[i + 1])
    nm = pad(suffix[0], n + 1)
    models = [total - count for total, count in zip(binomial_row(n), nm)]
    out: dict = {}
    free_variables = list(free_variables)
    if n == 0 or not (free_variables or any(true_branches)):
        return models, out
    if weights is None:
        total = binomial_row(n - 1)
    elif len(weights) != n:
        raise ValueError(
            f"need one weight per coalition size: {n}, got {len(weights)}")
    else:
        denominator = math.lcm(*(w.denominator for w in weights))
        scaled = [int(w * denominator) for w in weights]
        base = sum(map(mul, scaled, nm))
    prefix = [1]
    for i, branches in enumerate(true_branches):
        if branches:
            rest = convolve(prefix, suffix[i + 1])
            if weights is None:
                for v, true_c in branches.items():
                    nm_true = pad(convolve(true_c, rest), n)
                    out[v] = ([t - x for t, x in zip(total, nm_true)],
                              [t - x + y for t, x, y in zip(total, nm, [0, *nm_true])])
            else:
                # Slices past the end truncate and ``map`` stops at the
                # shorter operand: weights beyond size n - 1 count as zero.
                transform = [sum(map(mul, rest, scaled[a:a + len(rest)]))
                             for a in range(len(complements[i]))]
                adjacent = [x + y for x, y in zip(transform, transform[1:])]
                for v, true_c in branches.items():
                    out[v] = Fraction(base - sum(map(mul, true_c, adjacent)),
                                      denominator)
        prefix = convolve(prefix, complements[i])
    if free_variables and weights is None:
        nm_free = pad(convolve(prefix, binomial_row(free - 1)), n)
        shared = [t - x for t, x in zip(total, nm_free)]
    for v in free_variables:
        out[v] = Fraction(0) if weights is not None else (list(shared), list(shared))
    return models, out


class MonotoneDNF:
    """A monotone DNF over integer variables ``0 .. n_variables - 1``.

    ``clauses`` is a collection of variable sets; the formula is satisfied by an
    assignment (equivalently, by the *set* of true variables) iff the set
    includes some clause.  The always-true formula is represented by a clause
    equal to the empty set; the always-false formula by an empty clause list.
    """

    def __init__(self, n_variables: int, clauses: Iterable[frozenset[int]]):
        if n_variables < 0:
            raise ValueError("n_variables must be non-negative")
        clause_set = set()
        for clause in clauses:
            clause_frozen = frozenset(clause)
            for variable in clause_frozen:
                if not (0 <= variable < n_variables):
                    raise ValueError(f"variable {variable} out of range 0..{n_variables - 1}")
            clause_set.add(clause_frozen)
        self.n_variables = n_variables
        self.clauses = frozenset(_minimize_clauses(clause_set))

    # -- structure -------------------------------------------------------------
    def is_trivially_true(self) -> bool:
        """Whether the empty clause is present (every subset satisfies the formula)."""
        return frozenset() in self.clauses

    def is_trivially_false(self) -> bool:
        """Whether there is no clause (no subset satisfies the formula)."""
        return not self.clauses

    def variables_used(self) -> frozenset[int]:
        """Variables occurring in at least one clause."""
        out: set[int] = set()
        for clause in self.clauses:
            out |= clause
        return frozenset(out)

    def evaluate(self, true_variables: Iterable[int]) -> bool:
        """Whether the set of true variables satisfies the DNF."""
        true_set = frozenset(true_variables)
        return any(clause <= true_set for clause in self.clauses)

    # -- conditioning -----------------------------------------------------------
    def _conditioned_clauses(self, variable: int
                             ) -> tuple[frozenset[frozenset[int]], frozenset[frozenset[int]]]:
        """The clause sets after fixing ``variable`` to true / false (original indices).

        Fixing to true removes the variable from every clause (a clause reduced
        to the empty set makes the restriction trivially true); fixing to false
        discards the clauses containing it.
        """
        if not (0 <= variable < self.n_variables):
            raise ValueError(f"variable {variable} out of range 0..{self.n_variables - 1}")
        true_clauses = frozenset(_minimize_clauses(
            {clause - {variable} for clause in self.clauses}))
        false_clauses = frozenset(clause for clause in self.clauses
                                  if variable not in clause)
        return true_clauses, false_clauses

    def restrict(self, variable: int, value: bool) -> "MonotoneDNF":
        """The DNF obtained by fixing ``variable`` to ``value``.

        The result ranges over the remaining ``n_variables - 1`` variables,
        reindexed so that indices above ``variable`` shift down by one.
        """
        true_clauses, false_clauses = self._conditioned_clauses(variable)
        kept = true_clauses if value else false_clauses
        reindexed = [frozenset(v if v < variable else v - 1 for v in clause)
                     for clause in kept]
        return MonotoneDNF(self.n_variables - 1, reindexed)

    def conditioned_count_by_size(self, variable: int) -> tuple[list[int], list[int]]:
        """The count vectors of both restrictions of ``variable``, sharing the cache.

        Returns ``(true_vector, false_vector)`` where ``true_vector[k]`` counts
        the size-``k`` subsets of the *other* variables satisfying the DNF with
        ``variable`` fixed to true, and ``false_vector[k]`` with it fixed to
        false.  Unlike :meth:`restrict` (which reindexes), the computation keeps
        the original variable indices, so the memoised component decomposition
        is shared across the ``n`` conditionings of a batched Shapley run.
        """
        true_clauses, false_clauses = self._conditioned_clauses(variable)
        remaining = frozenset(range(self.n_variables)) - {variable}
        return (list(_with_free_vars(true_clauses, remaining)),
                list(_with_free_vars(false_clauses, remaining)))

    # -- counting ---------------------------------------------------------------
    def count_by_size(self) -> list[int]:
        """The vector ``[m_0, ..., m_n]`` where ``m_k`` counts satisfying subsets of size ``k``."""
        used = self.variables_used()
        free = self.n_variables - len(used)
        core = _count_vector(frozenset(self.clauses), frozenset(used))
        return pad(convolve(core, binomial_row(free)) if free else list(core),
                   self.n_variables + 1)

    def model_count(self) -> int:
        """The total number of satisfying subsets (of any size)."""
        return sum(self.count_by_size())

    def probability(self, probabilities: Mapping[int, Fraction]) -> Fraction:
        """Probability that independently sampled variables satisfy the DNF.

        ``probabilities[v]`` is the probability that variable ``v`` is true
        (missing variables default to probability 0, i.e. always false).
        """
        probs = {v: Fraction(probabilities.get(v, 0)) for v in range(self.n_variables)}
        return _probability(frozenset(self.clauses),
                            frozenset(self.variables_used()),
                            _freeze_probs(probs))

    def __str__(self) -> str:
        if self.is_trivially_true():
            return "TRUE"
        if self.is_trivially_false():
            return "FALSE"
        clause_strings = sorted("(" + " ∧ ".join(f"x{v}" for v in sorted(c)) + ")"
                                for c in self.clauses)
        return " ∨ ".join(clause_strings)


def _minimize_clauses(clauses: set[frozenset[int]]) -> set[frozenset[int]]:
    """Remove clauses that are supersets of other clauses (they are redundant)."""
    ordered = sorted(clauses, key=len)
    kept: list[frozenset[int]] = []
    for clause in ordered:
        if not any(existing <= clause for existing in kept):
            kept.append(clause)
    return set(kept)


@lru_cache(maxsize=200_000)
def _count_vector(clauses: frozenset[frozenset[int]],
                  variables: frozenset[int]) -> tuple[int, ...]:
    """Count satisfying subsets of ``variables`` by size.

    ``variables`` must contain every variable appearing in ``clauses``; variables
    not in any clause are free and handled by the caller (or by the component
    decomposition below).
    """
    if frozenset() in clauses:
        return tuple(binomial_row(len(variables)))
    if not clauses:
        return tuple([0] * (len(variables) + 1))

    # Component decomposition: split clauses into variable-disjoint groups.
    components = _split_components(clauses)
    if len(components) > 1:
        # A subset satisfies the DNF iff it satisfies *some* component, so
        # counts do not multiply — non-model counts do (``recombine``).
        complements: list[list[int]] = []
        covered: set[int] = set()
        for component in components:
            component_vars = frozenset().union(*component)
            covered |= component_vars
            count = _count_vector(frozenset(component), component_vars)
            complements.append([total - models for total, models
                                in zip(binomial_row(len(component_vars)), count)])
        return tuple(recombine(complements, [{}] * len(complements),
                               len(variables - covered))[0])

    # Branch on the most frequent variable.
    frequency: dict[int, int] = {}
    for clause in clauses:
        for variable in clause:
            frequency[variable] = frequency.get(variable, 0) + 1
    branch_variable = max(sorted(frequency), key=lambda v: frequency[v])

    remaining = variables - {branch_variable}
    # Case "variable true": remove it from every clause.
    true_clauses = frozenset(clause - {branch_variable} for clause in clauses)
    true_vector = _with_free_vars(true_clauses, remaining)
    # Case "variable false": clauses containing it can no longer be satisfied.
    false_clauses = frozenset(clause for clause in clauses if branch_variable not in clause)
    false_vector = _with_free_vars(false_clauses, remaining)

    shifted_true = [0] + list(true_vector)
    combined = add_vectors(shifted_true, list(false_vector))
    return tuple(pad(combined, len(variables) + 1))


def _with_free_vars(clauses: frozenset[frozenset[int]], variables: frozenset[int]
                    ) -> tuple[int, ...]:
    """Count over ``variables`` allowing clauses to use only a subset of them."""
    used = frozenset().union(*clauses) if clauses else frozenset()
    free = variables - used
    inner = _count_vector(clauses, used)
    if not free:
        return tuple(pad(list(inner), len(variables) + 1))
    return tuple(pad(convolve(list(inner), binomial_row(len(free))), len(variables) + 1))


def _split_components(clauses: frozenset[frozenset[int]]) -> list[set[frozenset[int]]]:
    """Group clauses into connected components linked by shared variables."""
    remaining = set(clauses)
    components: list[set[frozenset[int]]] = []
    while remaining:
        seed = remaining.pop()
        component = {seed}
        component_vars = set(seed)
        changed = True
        while changed:
            changed = False
            for clause in list(remaining):
                if clause & component_vars:
                    component.add(clause)
                    component_vars |= clause
                    remaining.discard(clause)
                    changed = True
        components.append(component)
    return components


def _freeze_probs(probs: Mapping[int, Fraction]) -> tuple[tuple[int, Fraction], ...]:
    return tuple(sorted(probs.items()))


@lru_cache(maxsize=200_000)
def _probability(clauses: frozenset[frozenset[int]],
                 variables: frozenset[int],
                 probabilities: tuple[tuple[int, Fraction], ...]) -> Fraction:
    """Probability that an independent random subset of the variables satisfies the DNF."""
    probs = dict(probabilities)
    if frozenset() in clauses:
        return Fraction(1)
    if not clauses:
        return Fraction(0)

    components = _split_components(clauses)
    if len(components) > 1:
        none_satisfied = Fraction(1)
        for component in components:
            component_vars = frozenset().union(*component)
            sub_probs = _freeze_probs({v: probs[v] for v in component_vars})
            p_component = _probability(frozenset(component), component_vars, sub_probs)
            none_satisfied *= (1 - p_component)
        return 1 - none_satisfied

    frequency: dict[int, int] = {}
    for clause in clauses:
        for variable in clause:
            frequency[variable] = frequency.get(variable, 0) + 1
    branch_variable = max(sorted(frequency), key=lambda v: frequency[v])
    p_true = probs[branch_variable]

    true_clauses = frozenset(clause - {branch_variable} for clause in clauses)
    false_clauses = frozenset(clause for clause in clauses if branch_variable not in clause)
    remaining_vars = variables - {branch_variable}

    def restricted(clause_set: frozenset[frozenset[int]]) -> Fraction:
        used = frozenset().union(*clause_set) if clause_set else frozenset()
        sub_probs = _freeze_probs({v: probs[v] for v in used})
        return _probability(clause_set, used, sub_probs)

    del remaining_vars
    return p_true * restricted(true_clauses) + (1 - p_true) * restricted(false_clauses)


def clear_caches() -> None:
    """Clear the memoisation caches (useful in long benchmark runs)."""
    _count_vector.cache_clear()
    _probability.cache_clear()
