"""Relational atoms and facts.

An atom is ``R(t1, ..., tk)`` where ``R`` is a relation name and the ``ti`` are
terms.  A fact is an atom whose terms are all constants.  Databases are finite
sets of facts.

Equality, hashing and ordering are defined on the *content* (relation name and
terms) so that a :class:`Fact` and an :class:`Atom` describing the same ground
atom compare equal, and heterogeneous collections can be sorted
deterministically.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .terms import Constant, Term, Variable, const, is_constant, is_variable


def _term_key(term: Term) -> tuple[int, str]:
    """A total order on terms: constants before variables, then by name."""
    return (0, term.name) if is_constant(term) else (1, term.name)


class Atom:
    """A relational atom ``relation(terms...)`` over constants and variables.

    The hash is memoised: ``__init__`` stores ``hash((relation, terms))`` in a
    slot, because facts are hashed on every set union, difference and
    membership test, and hashing the terms afresh calls each constant's
    dataclass ``__hash__``.  String hashes are salted per process
    (``PYTHONHASHSEED``), so the memo is only valid in the process that
    computed it; ``__reduce__`` therefore rebuilds the atom through the
    constructor, and an atom unpickled in a pool worker re-hashes under that
    worker's seed.  Pickling the slot instead would leave every unpickled fact
    unfindable in the receiving process's sets and dicts.
    """

    __slots__ = ("relation", "terms", "_hash", "_sort_key")

    def __init__(self, relation: str, terms: Iterable[Term]):
        if not relation:
            raise ValueError("relation name must be non-empty")
        terms = tuple(terms)
        if len(terms) == 0:
            raise ValueError("atoms must have positive arity")
        for t in terms:
            if not isinstance(t, (Constant, Variable)):
                raise TypeError(f"atom terms must be Constant or Variable, got {t!r}")
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", hash((relation, terms)))

    # -- immutability -----------------------------------------------------
    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Atom objects are immutable")

    def __reduce__(self) -> tuple:
        # Slots + the __setattr__ guard defeat pickle's default state
        # restoration; rebuilding through the constructor keeps atoms (and
        # facts) picklable, which the process-pool engine backend relies on,
        # and recomputes the memoised hash under the receiving process's
        # hash seed (see the class docstring).
        return (type(self), (self.relation, self.terms))

    # -- value semantics ---------------------------------------------------
    def _key(self) -> tuple:
        # Memoised: sorting large databases compares each atom many times,
        # and the key tuple is immutable like everything else here.
        try:
            return self._sort_key
        except AttributeError:
            key = (self.relation, tuple(_term_key(t) for t in self.terms))
            object.__setattr__(self, "_sort_key", key)
            return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return self.relation == other.relation and self.terms == other.terms

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Atom") -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return self._key() < other._key()

    def __le__(self, other: "Atom") -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return self._key() <= other._key()

    # -- accessors ---------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of argument positions."""
        return len(self.terms)

    def constants(self) -> frozenset[Constant]:
        """The set of constants appearing in the atom (``const`` in the paper)."""
        return frozenset(t for t in self.terms if is_constant(t))

    def variables(self) -> frozenset[Variable]:
        """The set of variables appearing in the atom (``vars`` in the paper)."""
        return frozenset(t for t in self.terms if is_variable(t))

    def is_ground(self) -> bool:
        """``True`` iff the atom contains no variable, i.e. it is a fact."""
        return all(is_constant(t) for t in self.terms)

    def substitute(self, mapping: Mapping[Term, Term]) -> "Atom":
        """Apply a substitution to the atom's terms.

        Terms not present in ``mapping`` are kept as-is.  If the result is
        ground, a :class:`Fact` is returned.
        """
        new_terms = tuple(mapping.get(t, t) for t in self.terms)
        if all(is_constant(t) for t in new_terms):
            return Fact(self.relation, new_terms)
        return Atom(self.relation, new_terms)

    def to_fact(self) -> "Fact":
        """Return this atom as a :class:`Fact` (raises if not ground)."""
        return Fact(self.relation, self.terms)

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(str(t) for t in self.terms)})"

    def __repr__(self) -> str:
        return f"Atom({self.relation!r}, {self.terms!r})"


class Fact(Atom):
    """A ground atom: every term is a constant.

    ``Fact`` is a subclass of :class:`Atom` so facts can be used anywhere atoms
    are expected (e.g. as targets of homomorphisms), and a fact compares equal
    to an atom with the same relation name and terms.
    """

    __slots__ = ()

    def __init__(self, relation: str, terms: Iterable[Term]):
        super().__init__(relation, terms)
        for t in self.terms:
            if not is_constant(t):
                raise ValueError(f"facts must be ground, got non-constant term {t!r}")

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(t.name for t in self.terms)})"

    def __repr__(self) -> str:
        return f"Fact({self.relation!r}, {self.terms!r})"


def atom(relation: str, *terms: "Term | str | int") -> Atom:
    """Convenience constructor for atoms.

    String and integer arguments are interpreted as *constants*; pass
    :class:`Variable` objects (e.g. built with :func:`repro.data.terms.var`)
    for variables.
    """
    converted = tuple(t if isinstance(t, (Constant, Variable)) else const(t) for t in terms)
    if all(is_constant(t) for t in converted):
        return Fact(relation, converted)
    return Atom(relation, converted)


def fact(relation: str, *values: "Constant | str | int") -> Fact:
    """Convenience constructor for facts: ``fact("R", "a", 1)``."""
    return Fact(relation, tuple(const(v) for v in values))


def atoms_constants(atoms: Iterable[Atom]) -> frozenset[Constant]:
    """All constants occurring in a collection of atoms."""
    out: set[Constant] = set()
    for a in atoms:
        out.update(a.constants())
    return frozenset(out)


def atoms_variables(atoms: Iterable[Atom]) -> frozenset[Variable]:
    """All variables occurring in a collection of atoms."""
    out: set[Variable] = set()
    for a in atoms:
        out.update(a.variables())
    return frozenset(out)


def atoms_terms(atoms: Iterable[Atom]) -> frozenset[Term]:
    """All terms occurring in a collection of atoms."""
    out: set[Term] = set()
    for a in atoms:
        out.update(a.terms)
    return frozenset(out)


def single_atom_c_homomorphisms(source: Atom, target: Atom,
                                fixed: frozenset[Constant]) -> list[dict[Term, Term]]:
    """All C-homomorphisms from the single atom ``source`` to the single atom ``target``.

    A C-homomorphism maps terms of ``source`` to terms of ``target`` position-wise,
    consistently (each source term gets a unique image), and fixes every constant in
    ``fixed`` (the set C).  Constants outside C may be renamed.  This is the notion
    used in the definition of a *q-leak* (Section 4.1 of the paper).
    """
    if source.relation != target.relation or source.arity != target.arity:
        return []
    mapping: dict[Term, Term] = {}
    for s, t in zip(source.terms, target.terms):
        if s in mapping:
            if mapping[s] != t:
                return []
        else:
            if is_constant(s) and s in fixed and s != t:
                return []
            mapping[s] = t
    return [mapping]
