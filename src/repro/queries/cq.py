"""Boolean conjunctive queries.

A (Boolean) conjunctive query is an existentially quantified conjunction of
relational atoms.  A database ``D`` satisfies the CQ ``q`` iff there is a
C-homomorphism from ``atoms(q)`` to ``D`` where ``C = const(q)`` — i.e. a
mapping of the query's variables to database constants (constants of the query
are fixed) sending every atom to a fact of ``D``.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from ..data.atoms import Atom, Fact, atoms_constants, atoms_variables
from ..data.database import Database, PartitionedDatabase
from ..data.terms import Constant, FreshConstantFactory, Term, Variable, is_constant
from .base import BooleanQuery, as_fact_set, minimize_supports


class ConjunctiveQuery(BooleanQuery):
    """A Boolean conjunctive query (CQ)."""

    is_hom_closed = True

    def __init__(self, atoms: Iterable[Atom], name: str = ""):
        atom_tuple = tuple(atoms)
        if not atom_tuple:
            raise ValueError("a conjunctive query needs at least one atom; use TrueQuery for ⊤")
        self.atoms: tuple[Atom, ...] = atom_tuple
        self.name = name

    # -- basic structure ------------------------------------------------------
    def variables(self) -> frozenset[Variable]:
        """All variables of the query."""
        return atoms_variables(self.atoms)

    def constants(self) -> frozenset[Constant]:
        """All constants of the query (the set ``C``)."""
        return atoms_constants(self.atoms)

    def relation_names(self) -> frozenset[str]:
        return frozenset(a.relation for a in self.atoms)

    def is_self_join_free(self) -> bool:
        """``True`` iff no two atoms share a relation name (sjf-CQ)."""
        names = [a.relation for a in self.atoms]
        return len(names) == len(set(names))

    def is_constant_free(self) -> bool:
        """``True`` iff the query mentions no constant."""
        return not self.constants()

    def atoms_containing(self, variable: Variable) -> tuple[Atom, ...]:
        """The atoms in which the given variable occurs (``at(x)`` in [11])."""
        return tuple(a for a in self.atoms if variable in a.variables())

    def substitute(self, mapping: Mapping[Term, Term]) -> "ConjunctiveQuery":
        """Apply a substitution to every atom, returning a new CQ."""
        return ConjunctiveQuery(tuple(a.substitute(mapping) for a in self.atoms),
                                name=self.name)

    # -- homomorphisms ----------------------------------------------------------
    def homomorphisms(self, db: "Database | PartitionedDatabase | Iterable[Fact] | JoinIndex",
                      partial: "Mapping[Term, Constant] | None" = None,
                      ) -> Iterator[dict[Term, Constant]]:
        """Enumerate C-homomorphisms from the query's atoms into the database.

        Each homomorphism is returned as a mapping from the query's terms to
        constants; query constants are always mapped to themselves.  An optional
        ``partial`` assignment restricts the search (used when substituting a
        separator variable, or when checking relevance of a fact).

        The search is a join over a plan memoised per (query atoms, terms
        bound before the search): the greedy order that puts the atom with
        the fewest unbound variables first (ties broken by ``str(atom)``),
        and for each step the first argument position already bound.  Each
        call buckets the facts once by ``(relation, arity)`` in a
        :class:`JoinIndex`; a step with a bound position reads only the facts
        carrying the bound constant there, from a map built on first use.
        Pass a :class:`JoinIndex` as ``db`` to reuse one across searches over
        the same facts.  The *set* of homomorphisms yielded is exact; the
        order in which they are yielded is unspecified.
        """
        plan_constants, steps = _join_plan(
            self.atoms, frozenset(partial) if partial else frozenset())
        assignment: dict[Term, Constant] = {c: c for c in plan_constants}
        if partial:
            for term, value in partial.items():
                if is_constant(term) and term != value:
                    return
                assignment[term] = value
        index = db if isinstance(db, JoinIndex) else JoinIndex(as_fact_set(db))
        yield from _extend(steps, 0, assignment, index)

    def evaluate(self, db) -> bool:
        for _ in self.homomorphisms(db):
            return True
        return False

    def image(self, homomorphism: Mapping[Term, Constant]) -> frozenset[Fact]:
        """The set of facts that the atoms are mapped to under a homomorphism."""
        return frozenset(a.substitute(homomorphism).to_fact() for a in self.atoms)

    def minimal_supports_in(self, db) -> frozenset[frozenset[Fact]]:
        """The ⊆-minimal supports of the query within the database.

        Every support of a CQ contains the image of some homomorphism, and every
        image is a support; hence the minimal supports are exactly the ⊆-minimal
        homomorphism images.
        """
        images = {self.image(h) for h in self.homomorphisms(db)}
        return minimize_supports(images)

    # -- canonical databases and cores ------------------------------------------
    def freeze(self, factory: "FreshConstantFactory | None" = None,
               ) -> tuple[frozenset[Fact], dict[Variable, Constant]]:
        """The canonical database of the query: freeze each variable to a fresh constant.

        Returns the set of facts together with the freezing substitution.
        """
        if factory is None:
            factory = FreshConstantFactory(self.constants(), prefix="frz")
        frozen: dict[Variable, Constant] = {
            v: factory.fresh(v.name) for v in sorted(self.variables())}
        facts = frozenset(a.substitute(frozen).to_fact() for a in self.atoms)
        return facts, frozen

    def canonical_database(self, factory: "FreshConstantFactory | None" = None) -> Database:
        """The canonical database as a :class:`Database`."""
        facts, _ = self.freeze(factory)
        return Database(facts)

    def core(self) -> "ConjunctiveQuery":
        """A core of the query: an equivalent CQ with a ⊆-minimal set of atoms.

        Computed by greedily removing atoms as long as the smaller query still
        maps homomorphically into the canonical database of the original one
        while fixing query constants (i.e. remains equivalent).
        """
        current = list(dict.fromkeys(self.atoms))
        changed = True
        while changed and len(current) > 1:
            changed = False
            for atom in list(current):
                candidate = [a for a in current if a is not atom]
                if not candidate:
                    continue
                smaller = ConjunctiveQuery(candidate)
                frozen_facts, _ = ConjunctiveQuery(current).freeze()
                # 'smaller' is implied by 'current'; they are equivalent iff
                # 'current' maps into the canonical database of 'smaller'.
                smaller_facts, _ = smaller.freeze()
                if ConjunctiveQuery(current).evaluate(smaller_facts):
                    current = candidate
                    changed = True
                    break
                del frozen_facts
        return ConjunctiveQuery(tuple(current), name=self.name)

    def canonical_minimal_supports(self) -> frozenset[frozenset[Fact]]:
        """Canonical minimal supports: minimal supports inside the frozen core."""
        core = self.core()
        facts, _ = core.freeze()
        return core.minimal_supports_in(facts)

    def is_minimal(self) -> bool:
        """``True`` iff the query equals its core (up to atom multiset)."""
        return set(self.core().atoms) == set(self.atoms)

    # -- equivalence -------------------------------------------------------------
    def is_equivalent_to(self, other: "ConjunctiveQuery") -> bool:
        """Homomorphic equivalence of two CQs (each maps into the other's canonical db)."""
        self_facts, _ = self.freeze()
        other_facts, _ = other.freeze()
        return self.evaluate(other_facts) and other.evaluate(self_facts)

    # -- dunder --------------------------------------------------------------------
    def __str__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return label + " ∧ ".join(str(a) for a in self.atoms)

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({list(self.atoms)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return frozenset(self.atoms) == frozenset(other.atoms)

    def __hash__(self) -> int:
        return hash(("ConjunctiveQuery", frozenset(self.atoms)))


# -- the join layer ---------------------------------------------------------------

class JoinIndex:
    """A fact set bucketed for the homomorphism search.

    One pass buckets the facts by ``(relation, arity)``.  A join step that
    probes an argument position reads a ``{constant: [facts]}`` map of its
    bucket, built on first use and kept.  Nothing else changes after
    construction, so one index serves any number of searches over the same
    facts: :meth:`ConjunctiveQuery.homomorphisms` builds one per call unless
    it is handed one, and the delta search builds one per delta.
    """

    __slots__ = ("buckets", "_maps")

    def __init__(self, facts: Iterable[Fact]):
        buckets: dict[tuple[str, int], list[Fact]] = {}
        for f in facts:
            buckets.setdefault((f.relation, len(f.terms)), []).append(f)
        self.buckets = buckets
        self._maps: dict[tuple[str, int, int], dict[Constant, list[Fact]]] = {}

    def probe(self, key: tuple[str, int, int]) -> dict[Constant, list[Fact]]:
        """The facts of bucket ``key[:2]`` keyed by their constant at position ``key[2]``."""
        by_value = self._maps.get(key)
        if by_value is None:
            by_value = {}
            position = key[2]
            for f in self.buckets.get(key[:2], ()):
                by_value.setdefault(f.terms[position], []).append(f)
            self._maps[key] = by_value
        return by_value


class _Step(NamedTuple):
    """One join step: where its candidate facts come from and what each must satisfy."""

    #: ``(relation, arity)`` of the step's atom.
    bucket: tuple[str, int]
    #: ``bucket + (position,)`` for the first argument position already bound,
    #: or ``None`` when the atom has none (the step scans the whole bucket).
    probe: "tuple[str, int, int] | None"
    #: The bound term at the probe position.
    probe_term: "Term | None"
    #: ``(position, term)`` for each term this step binds first.
    binds: tuple[tuple[int, Term], ...]
    #: ``(position, term)`` for every other position.  Its term is already
    #: bound (a constant, a pinned term, an earlier step or an earlier
    #: position of this atom), so a candidate fact must agree with it.
    checks: tuple[tuple[int, Term], ...]


@functools.lru_cache(maxsize=512)
def _join_plan(atoms: tuple[Atom, ...], pinned: frozenset[Term]
               ) -> tuple[tuple[Constant, ...], tuple[_Step, ...]]:
    """The constants of ``atoms`` and their join steps, given the ``pinned`` terms.

    The order is greedy: repeatedly the atom with the fewest unbound
    variables, ties broken by ``str(atom)``.  A plan depends only on its
    arguments, so equal queries share one.
    """
    constants = atoms_constants(atoms)
    bound: set[Term] = set(constants) | pinned
    remaining = list(atoms)
    steps: list[_Step] = []
    while remaining:
        chosen = min(remaining, key=lambda a: (len(a.variables() - bound), str(a)))
        remaining.remove(chosen)
        bucket = (chosen.relation, chosen.arity)
        probe = probe_term = None
        binds: list[tuple[int, Term]] = []
        checks: list[tuple[int, Term]] = []
        introduced: set[Term] = set()
        for position, term in enumerate(chosen.terms):
            if probe is None and term in bound:
                probe, probe_term = bucket + (position,), term
            elif term in bound or term in introduced:
                checks.append((position, term))
            else:
                binds.append((position, term))
                introduced.add(term)
        bound |= introduced
        steps.append(_Step(bucket, probe, probe_term, tuple(binds), tuple(checks)))
    return tuple(constants), tuple(steps)


def _extend(steps: Sequence[_Step], depth: int, assignment: dict[Term, Constant],
            index: JoinIndex) -> Iterator[dict[Term, Constant]]:
    """Yield every extension of ``assignment`` through ``steps[depth:]``.

    A candidate fact first writes the terms its step binds, then checks its
    other positions.  A rejected candidate's writes need no undo: they are
    terms this step introduces, so the next candidate rewrites them before
    any check or deeper step reads them.
    """
    if depth == len(steps):
        yield dict(assignment)
        return
    bucket, probe, probe_term, binds, checks = steps[depth]
    if probe is None:
        candidates = index.buckets.get(bucket, ())
    else:
        candidates = index.probe(probe).get(assignment[probe_term], ())
    for fact in candidates:
        values = fact.terms
        for position, term in binds:
            assignment[term] = values[position]
        for position, term in checks:
            if values[position] != assignment[term]:
                break
        else:
            yield from _extend(steps, depth + 1, assignment, index)


def cq(*atoms: Atom, name: str = "") -> ConjunctiveQuery:
    """Convenience constructor: ``cq(atom("R", x), atom("S", x, y))``."""
    return ConjunctiveQuery(atoms, name=name)


def product_of_cqs(queries: Sequence[ConjunctiveQuery]) -> ConjunctiveQuery:
    """The conjunction of several CQs as a single CQ, with variables renamed apart.

    Used by the inclusion–exclusion rule of lifted inference: ``P(q1 ∨ q2)``
    needs the probability of ``q1 ∧ q2`` where the two CQs do not accidentally
    share variables.
    """
    renamed_atoms: list[Atom] = []
    for index, query in enumerate(queries):
        renaming: dict[Term, Term] = {
            v: Variable(f"{v.name}@{index}") for v in query.variables()}
        renamed_atoms.extend(a.substitute(renaming) for a in query.atoms)
    return ConjunctiveQuery(tuple(dict.fromkeys(renamed_atoms)))


def all_subsets_of_atoms(query: ConjunctiveQuery) -> Iterator[tuple[Atom, ...]]:
    """All non-empty subsets of the query's atoms (helper for analysis routines)."""
    atoms = query.atoms
    for size in range(1, len(atoms) + 1):
        yield from itertools.combinations(atoms, size)
