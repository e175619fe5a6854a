"""Self-join-free conjunctive queries with safe negation (sjf-CQ¬).

Section 6.2 of the paper considers queries with negative atoms, following
[Reshef, Kimelfeld, Livshits, PODS 2020].  A sjf-CQ¬ is a self-join-free CQ
whose atoms may be negated, with the *safety* restriction that every variable
of a negative atom also occurs in a positive atom.  Satisfaction: there is a
homomorphism from the positive atoms into the database under which the image
of no negative atom belongs to the database.

These queries are **not** hom-closed, so the hom-closed machinery (lineage
DNFs, the plain island reduction) does not apply; brute-force algorithms and
the dedicated reduction of Proposition 6.1 are used instead.
"""

from __future__ import annotations

from typing import Iterable

from ..data.atoms import Atom, Fact, atoms_constants, atoms_variables
from ..data.terms import Constant, Variable
from .base import BooleanQuery, as_fact_set
from .cq import ConjunctiveQuery


class ConjunctiveQueryWithNegation(BooleanQuery):
    """A conjunctive query with (safe) negated atoms."""

    is_hom_closed = False

    def __init__(self, positive: Iterable[Atom], negative: Iterable[Atom] = (),
                 name: str = "", require_self_join_free: bool = True,
                 require_safe: bool = True):
        pos = tuple(positive)
        neg = tuple(negative)
        if not pos:
            raise ValueError("a CQ with negation needs at least one positive atom")
        self.positive: tuple[Atom, ...] = pos
        self.negative: tuple[Atom, ...] = neg
        self.name = name
        self._positive_query = ConjunctiveQuery(pos, name=f"{name}+" if name else "")
        if require_safe:
            pos_vars = atoms_variables(pos)
            for atom in neg:
                if not atom.variables() <= pos_vars:
                    raise ValueError(
                        f"unsafe negation: variables of {atom} do not all occur positively")
        if require_self_join_free and not self.is_self_join_free():
            raise ValueError("query is not self-join-free; pass require_self_join_free=False")

    # -- structure ------------------------------------------------------------------
    @property
    def atoms(self) -> tuple[Atom, ...]:
        """All atoms, positive then negative (used by the hierarchy test)."""
        return self.positive + self.negative

    def positive_query(self) -> ConjunctiveQuery:
        """The CQ formed by the positive atoms only (``q+``), built once per query."""
        return self._positive_query

    def variables(self) -> frozenset[Variable]:
        return atoms_variables(self.atoms)

    def constants(self) -> frozenset[Constant]:
        return atoms_constants(self.atoms)

    def relation_names(self) -> frozenset[str]:
        return frozenset(a.relation for a in self.atoms)

    def positive_relation_names(self) -> frozenset[str]:
        return frozenset(a.relation for a in self.positive)

    def negative_relation_names(self) -> frozenset[str]:
        return frozenset(a.relation for a in self.negative)

    def is_self_join_free(self) -> bool:
        """No two atoms (positive or negative) share a relation name."""
        names = [a.relation for a in self.atoms]
        return len(names) == len(set(names))

    # -- semantics ---------------------------------------------------------------------
    def evaluate(self, db) -> bool:
        facts = as_fact_set(db)
        for hom in self._positive_query.homomorphisms(facts):
            violated = False
            for atom in self.negative:
                grounded = atom.substitute(hom)
                if not grounded.is_ground():
                    # Safe negation guarantees groundedness; guard anyway.
                    violated = True
                    break
                if grounded in facts:
                    violated = True
                    break
            if not violated:
                return True
        return False

    def minimal_supports_in(self, db) -> frozenset[frozenset[Fact]]:
        """Minimal supports are not well-defined for non-monotone queries.

        A set of facts satisfying the query may stop satisfying it when facts
        are *added*; the notion used throughout the paper (and this library)
        only makes sense for (C-)hom-closed queries.
        """
        raise NotImplementedError(
            "minimal supports are only defined for hom-closed queries; "
            "sjf-CQ¬ queries are not monotone")

    def __str__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        positives = " ∧ ".join(str(a) for a in self.positive)
        negatives = " ∧ ".join(f"¬{a}" for a in self.negative)
        if negatives:
            return f"{label}{positives} ∧ {negatives}"
        return f"{label}{positives}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConjunctiveQueryWithNegation):
            return NotImplemented
        return (frozenset(self.positive) == frozenset(other.positive)
                and frozenset(self.negative) == frozenset(other.negative))

    def __hash__(self) -> int:
        return hash(("CQneg", frozenset(self.positive), frozenset(self.negative)))


def cq_with_negation(positive: Iterable[Atom], negative: Iterable[Atom] = (),
                     name: str = "", require_self_join_free: bool = True
                     ) -> ConjunctiveQueryWithNegation:
    """Convenience constructor for sjf-CQ¬ queries."""
    return ConjunctiveQueryWithNegation(positive, negative, name=name,
                                        require_self_join_free=require_self_join_free)


class FirstOrderNegationQuery(BooleanQuery):
    """A first-order query of the shape ``∃x̄ (positive CQ) ∧ ¬(inner CQ over x̄)``.

    This captures the 1RA⁻ examples D.1 and D.2 of the paper, e.g.::

        q2 = ∃x∃y S(x, y) ∧ ¬(A(x) ∧ B(y))

    which is not expressible as a sjf-CQ¬ (the negation covers a conjunction).
    Evaluation enumerates homomorphisms of the positive part and checks that the
    grounded inner conjunction is *not* fully contained in the database.
    """

    is_hom_closed = False

    def __init__(self, positive: Iterable[Atom], negated_conjunction: Iterable[Atom],
                 name: str = ""):
        self.positive = tuple(positive)
        self.negated_conjunction = tuple(negated_conjunction)
        if not self.positive:
            raise ValueError("need at least one positive atom")
        if not self.negated_conjunction:
            raise ValueError("need at least one negated atom; otherwise use ConjunctiveQuery")
        pos_vars = atoms_variables(self.positive)
        for atom in self.negated_conjunction:
            if not atom.variables() <= pos_vars:
                raise ValueError("variables of the negated conjunction must occur positively")
        self.name = name
        self._positive_query = ConjunctiveQuery(self.positive)

    def positive_query(self) -> ConjunctiveQuery:
        """The positive part as a CQ, built once per query."""
        return self._positive_query

    def evaluate(self, db) -> bool:
        facts = as_fact_set(db)
        for hom in self._positive_query.homomorphisms(facts):
            # A non-ground image is never a fact, so it counts as absent.
            if not all(a.substitute(hom) in facts for a in self.negated_conjunction):
                return True
        return False

    def minimal_supports_in(self, db) -> frozenset[frozenset[Fact]]:
        raise NotImplementedError("minimal supports are only defined for hom-closed queries")

    def constants(self) -> frozenset[Constant]:
        return atoms_constants(self.positive + self.negated_conjunction)

    def relation_names(self) -> frozenset[str]:
        return frozenset(a.relation for a in self.positive + self.negated_conjunction)

    def __str__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        positives = " ∧ ".join(str(a) for a in self.positive)
        inner = " ∧ ".join(str(a) for a in self.negated_conjunction)
        return f"{label}{positives} ∧ ¬({inner})"
