"""Decomposable queries (Section 4.2).

A C-hom-closed query ``q`` is *decomposable* into ``q1 ∧ q2`` when it is
equivalent to that conjunction, both conjuncts have minimal supports with a
constant outside ``C``, and no minimal support of ``q1`` intersects a minimal
support of ``q2``.  Lemma 4.5 shows that, for constant-free hom-closed queries,
decomposability coincides with having a decomposition into conjuncts over
disjoint relation names.

This module provides the syntactic decompositions used by Lemma 4.4 and
Corollary 4.6: splitting CQs / UCQs / CRPQs into parts over disjoint relation
names (or into connected components with pairwise disjoint vocabularies for
cc-disjoint CRPQs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..data.incidence import atom_components
from ..queries.base import BooleanQuery, ConjunctionQuery
from ..queries.cq import ConjunctiveQuery
from ..queries.crpq import ConjunctiveRegularPathQuery
from ..queries.ucq import UnionOfConjunctiveQueries, as_ucq


@dataclass(frozen=True)
class Decomposition:
    """A decomposition ``q ≡ q1 ∧ q2`` into parts over disjoint relation names."""

    first: BooleanQuery
    second: BooleanQuery

    def as_conjunction(self) -> ConjunctionQuery:
        """The decomposition as an explicit conjunction query."""
        return ConjunctionQuery((self.first, self.second))


def connected_components_by_relation(query: "ConjunctiveQuery | UnionOfConjunctiveQueries"
                                     ) -> list[frozenset[str]]:
    """Group the query's relation names into blocks that must stay together.

    Two relation names are linked if they co-occur in some disjunct (for a UCQ)
    or in the same connected component of some disjunct.  Distinct blocks can be
    evaluated independently, which is the basis of the disjoint-vocabulary
    decomposition of Lemma 4.5.
    """
    import networkx as nx

    ucq_view = as_ucq(query)
    graph: nx.Graph = nx.Graph()
    for disjunct in ucq_view.disjuncts:
        core = disjunct.core()
        for component in atom_components(core.atoms):
            names = sorted({a.relation for a in component})
            graph.add_nodes_from(names)
            for left, right in zip(names, names[1:]):
                graph.add_edge(left, right)
    return [frozenset(component) for component in nx.connected_components(graph)]


def decompose_ucq(query: "ConjunctiveQuery | UnionOfConjunctiveQueries"
                  ) -> "Decomposition | None":
    """A disjoint-vocabulary decomposition of a (U)CQ, or ``None`` if there is none.

    Only CQs decompose this way syntactically: a CQ whose connected components
    split into two groups with disjoint relation names is equivalent to the
    conjunction of the two groups.  (A non-trivial *union* never decomposes into
    a conjunction of two queries over disjoint relation names unless some
    disjunct is redundant, so for proper UCQs we return ``None``.)
    """
    ucq_view = as_ucq(query).minimized()
    if len(ucq_view.disjuncts) != 1:
        return None
    disjunct = ucq_view.disjuncts[0]
    components = atom_components(disjunct.atoms)
    if len(components) < 2:
        return None
    blocks = connected_components_by_relation(disjunct)
    if len(blocks) < 2:
        return None
    first_block = sorted(blocks, key=lambda b: sorted(b))[0]
    first_atoms = [a for component in components for a in component
                   if {atom.relation for atom in component} <= first_block]
    second_atoms = [a for a in disjunct.atoms if a not in first_atoms]
    if not first_atoms or not second_atoms:
        return None
    return Decomposition(ConjunctiveQuery(tuple(first_atoms)),
                         ConjunctiveQuery(tuple(second_atoms)))


def is_cc_disjoint_crpq(query: ConjunctiveRegularPathQuery) -> bool:
    """cc-disjoint-CRPQ: connected components are over pairwise disjoint vocabularies."""
    components = _crpq_components(query)
    seen: set[str] = set()
    for component in components:
        names: set[str] = set()
        for atom in component:
            names |= atom.relation_names()
        if names & seen:
            return False
        seen |= names
    return True


def _crpq_components(query: ConjunctiveRegularPathQuery) -> list[list]:
    """Connected components of a CRPQ's path atoms (sharing variables or constants)."""
    import networkx as nx

    graph: nx.Graph = nx.Graph()
    for index, atom in enumerate(query.path_atoms):
        graph.add_node(("atom", index))
        for term in atom.terms():
            graph.add_node(("term", term))
            graph.add_edge(("atom", index), ("term", term))
    components: list[list] = []
    for component in nx.connected_components(graph):
        members = [query.path_atoms[node[1]] for node in sorted(
            (n for n in component if n[0] == "atom"), key=lambda n: n[1])]
        if members:
            components.append(members)
    return components


def decompose_crpq(query: ConjunctiveRegularPathQuery) -> "Decomposition | None":
    """Split a disconnected cc-disjoint CRPQ into two CRPQs over disjoint vocabularies."""
    components = _crpq_components(query)
    if len(components) < 2:
        return None
    if not is_cc_disjoint_crpq(query):
        return None
    first = ConjunctiveRegularPathQuery(tuple(components[0]))
    rest_atoms = tuple(a for component in components[1:] for a in component)
    second = ConjunctiveRegularPathQuery(rest_atoms)
    return Decomposition(first, second)


def decompose(query: BooleanQuery) -> "Decomposition | None":
    """Best-effort decomposition of a query into two parts over disjoint vocabularies.

    Dispatches on the query type; returns ``None`` when no (syntactic)
    decomposition is found.  Per Lemma 4.5, for constant-free hom-closed
    queries this is exactly the decomposability notion of Section 4.2.
    """
    if isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
        return decompose_ucq(query)
    if isinstance(query, ConjunctiveRegularPathQuery):
        return decompose_crpq(query)
    if isinstance(query, ConjunctionQuery) and len(query.parts) >= 2:
        first = query.parts[0]
        second = (query.parts[1] if len(query.parts) == 2
                  else ConjunctionQuery(query.parts[1:]))
        if not (first.relation_names() & second.relation_names()):
            return Decomposition(first, second)
    return None


def is_decomposable(query: BooleanQuery) -> bool:
    """Whether a (syntactic) disjoint-vocabulary decomposition exists."""
    return decompose(query) is not None


def minimal_supports_never_intersect(query_one: BooleanQuery, query_two: BooleanQuery,
                                     sample: "Sequence[frozenset] | None" = None) -> bool:
    """Sanity check of condition (2) of decomposability on canonical supports.

    True decomposability quantifies over all databases; for queries over
    disjoint relation names the condition holds trivially, which is what this
    check verifies (it is used in tests and hypothesis verification, not in the
    reductions themselves).
    """
    return not (query_one.relation_names() & query_two.relation_names())
