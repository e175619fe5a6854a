"""Typed snapshot deltas and the clause-level differ for maintained lineages.

The workspace's refresh loop treats an in-support delta as "recompute
everything": rebuild the lineage with a full homomorphism enumeration, then
recompile and resweep the whole circuit.  This module is the first half of
the incremental alternative — given the standing family of **minimal
supports** of a query over the full fact set ``Dn ∪ Dx``, compute the
post-delta family by touching only what the delta can reach:

* ``remove(μ)``      — drop exactly the supports containing μ.  Exact by
  monotonicity: a minimal support of ``D`` avoiding μ stays minimal in
  ``D \\ {μ}``, and a minimal support of ``D \\ {μ}`` is minimal in ``D``
  (a smaller support inside it would avoid μ too).
* ``make_exogenous`` / ``make_endogenous`` — the support family is a
  property of the *full* fact set, independent of the partition, so it is
  unchanged; only the lineage projection (which facts become variables)
  moves.
* ``insert(μ)``      — every support that is *new* must contain μ (anything
  avoiding μ was a support before), and for the query classes with
  homomorphism semantics every support through μ is the image of a
  homomorphism mapping some atom onto μ.  :func:`supports_through` therefore
  delta-grounds only the pinned homomorphism searches — one per unifiable
  atom — instead of re-enumerating every homomorphism of the query, and
  :func:`apply_delta` minimises the union with the standing family.

Queries without a pinnable structure (generic hom-closed classes such as
RPQs) fall back to a full enumeration filtered to the supports through μ —
still exact, just not delta-priced.  Non-hom-closed queries have no minimal
support characterisation at all; callers gate on ``query.is_hom_closed``
before reaching this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.atoms import Fact
from ..data.terms import is_constant
from ..queries.base import BooleanQuery, minimize_supports
from ..queries.cq import ConjunctiveQuery, JoinIndex
from ..queries.ucq import UnionOfConjunctiveQueries

#: The delta operations a snapshot admits (the workspace's method names).
DELTA_OPS = ("insert", "remove", "make_exogenous", "make_endogenous")


@dataclass(frozen=True)
class SnapshotDelta:
    """One typed delta against a partitioned snapshot.

    ``endogenous`` records the fact's relationship to ``Dn`` after the
    operation: for ``insert`` whether the fact joins the endogenous part,
    for the partition moves the side the fact lands on, for ``remove`` the
    side it leaves.  The field mirrors
    :class:`repro.workspace.results.WorkspaceDelta`, so workspace deltas
    convert losslessly.
    """

    op: str
    fact: Fact
    endogenous: bool = True

    def __post_init__(self) -> None:
        if self.op not in DELTA_OPS:
            raise ValueError(
                f"op must be one of {DELTA_OPS}, got {self.op!r}")

    def __str__(self) -> str:
        part = "Dn" if self.endogenous else "Dx"
        return f"{self.op}({self.fact} @ {part})"


@dataclass(frozen=True)
class SupportDiff:
    """What a delta did to the minimal-support family (for patch stats)."""

    added: frozenset[frozenset[Fact]]
    removed: frozenset[frozenset[Fact]]

    @property
    def touched(self) -> int:
        """Number of supports the delta created or destroyed."""
        return len(self.added) + len(self.removed)


def diff_supports(old: "frozenset[frozenset[Fact]]",
                  new: "frozenset[frozenset[Fact]]") -> SupportDiff:
    """The symmetric difference of two support families, as a typed record."""
    return SupportDiff(added=frozenset(new - old), removed=frozenset(old - new))


def _pinned_partial(atom, fact: Fact) -> "dict | None":
    """The partial assignment unifying ``atom`` with ``fact`` (``None`` on clash)."""
    if atom.relation != fact.relation or len(atom.terms) != len(fact.terms):
        return None
    partial: dict = {}
    for term, value in zip(atom.terms, fact.terms):
        if is_constant(term):
            if term != value:
                return None
            continue
        bound = partial.get(term)
        if bound is None:
            partial[term] = value
        elif bound != value:
            return None
    return partial


def _cq_supports_through(query: ConjunctiveQuery, index: JoinIndex,
                         fact: Fact) -> "set[frozenset[Fact]]":
    """All homomorphism images through ``fact`` — pinned searches, one per atom.

    Every support of a CQ through μ is the image of a homomorphism mapping
    some atom onto μ, so the union of the per-atom pinned enumerations is
    complete; distinct atoms unifying with μ just re-find the same images.
    Every search reads the one ``index`` of the post-delta facts.
    """
    images: set[frozenset[Fact]] = set()
    for atom in query.atoms:
        partial = _pinned_partial(atom, fact)
        if partial is None:
            continue
        for hom in query.homomorphisms(index, partial=partial):
            image = query.image(hom)
            if fact in image:
                images.add(image)
    return images


def supports_through(query: BooleanQuery, facts: "frozenset[Fact]",
                     fact: Fact) -> "frozenset[frozenset[Fact]]":
    """The ⊆-minimal supports of ``query`` in ``facts`` that contain ``fact``.

    CQs (and UCQs, disjunct by disjunct) enumerate only the homomorphisms
    pinned through ``fact``; other hom-closed query classes fall back to the
    full enumeration filtered to ``fact`` — exact either way.  The result is
    minimal *within the family of supports through the fact*; global
    minimality against the standing supports is :func:`apply_delta`'s job.
    """
    if fact not in facts:
        return frozenset()
    if isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
        disjuncts = (query,) if isinstance(query, ConjunctiveQuery) else query.disjuncts
        index = JoinIndex(facts)
        images: set[frozenset[Fact]] = set()
        for disjunct in disjuncts:
            images |= _cq_supports_through(disjunct, index, fact)
        return minimize_supports(images)
    return frozenset(s for s in query.minimal_supports_in(facts) if fact in s)


def apply_delta(query: BooleanQuery,
                supports: "frozenset[frozenset[Fact]]",
                facts_after: "frozenset[Fact]",
                delta: SnapshotDelta) -> "frozenset[frozenset[Fact]]":
    """The post-delta minimal-support family, from the standing one.

    ``supports`` is the exact family of ⊆-minimal supports of ``query`` in
    the pre-delta full fact set; ``facts_after`` is the post-delta full fact
    set (``Dn ∪ Dx`` with the delta already applied).  Returns the exact
    minimal-support family of the post-delta set — the invariant
    :class:`repro.incremental.lineage.MaintainedLineage` keeps.
    """
    if delta.op == "remove":
        return frozenset(s for s in supports if delta.fact not in s)
    if delta.op in ("make_exogenous", "make_endogenous"):
        # The support family ranges over the full fact set; partition moves
        # only change which facts project into the lineage.
        return supports
    # insert: new minimal supports must pass through the new fact.
    if delta.fact.relation not in query.relation_names():
        return supports
    through = supports_through(query, facts_after, delta.fact)
    if not through:
        return supports
    return minimize_supports(supports | through)


__all__ = [
    "DELTA_OPS",
    "SnapshotDelta",
    "SupportDiff",
    "apply_delta",
    "diff_supports",
    "supports_through",
]
