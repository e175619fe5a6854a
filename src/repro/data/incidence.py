"""Incidence graphs of atom sets.

The paper defines connectivity of a set of atoms ``S`` via its undirected
incidence graph ``G_S`` whose nodes are ``S ∪ term(S)`` and whose edges connect
each atom to the terms it contains.  Variable-connectivity additionally removes
the constant nodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable

from .atoms import Atom
from .terms import Constant, is_constant

if TYPE_CHECKING:
    import networkx as nx


def incidence_graph(atoms: Iterable[Atom],
                    exclude_constants: "frozenset[Constant] | None" = None) -> nx.Graph:
    """The incidence graph ``G_S`` of a set of atoms.

    Atom nodes are represented as ``("atom", index, atom)`` tuples so that
    repeated identical atoms in a *list* are distinguished; term nodes are
    ``("term", term)``.  If ``exclude_constants`` is given, those constant nodes
    (and their incident edges) are omitted — removing *all* constants yields the
    graph used to define variable-connectivity.
    """
    import networkx as nx

    graph: nx.Graph = nx.Graph()
    excluded = exclude_constants if exclude_constants is not None else frozenset()
    for index, atom in enumerate(atoms):
        atom_node: Hashable = ("atom", index, atom)
        graph.add_node(atom_node)
        for term in atom.terms:
            if is_constant(term) and term in excluded:
                continue
            term_node = ("term", term)
            graph.add_node(term_node)
            graph.add_edge(atom_node, term_node)
    return graph


def is_connected_atom_set(atoms: Iterable[Atom],
                          exclude_constants: "frozenset[Constant] | None" = None) -> bool:
    """``True`` iff the (possibly constant-pruned) incidence graph is connected.

    The empty atom set is treated as connected.
    """
    atoms = list(atoms)
    if not atoms:
        return True
    graph = incidence_graph(atoms, exclude_constants)
    atom_nodes = [n for n in graph.nodes if n[0] == "atom"]
    if len(atom_nodes) <= 1:
        return True
    import networkx as nx

    components = list(nx.connected_components(graph))
    for component in components:
        if any(n[0] == "atom" for n in component):
            return all(node in component for node in atom_nodes)
    return False


def atom_components(atoms: Iterable[Atom],
                    exclude_constants: "frozenset[Constant] | None" = None
                    ) -> list[list[Atom]]:
    """Partition a set of atoms into connected components of the incidence graph.

    With ``exclude_constants`` equal to all constants of the atoms, the result is
    the partition into *variable-connected* components (atoms sharing no variable,
    directly or transitively, end up in different components; atoms with no
    variable at all each form their own component).
    """
    atoms = list(atoms)
    if not atoms:
        return []
    import networkx as nx

    graph = incidence_graph(atoms, exclude_constants)
    components: list[list[Atom]] = []
    for component in nx.connected_components(graph):
        members = [node[2] for node in sorted(
            (n for n in component if n[0] == "atom"), key=lambda n: n[1])]
        if members:
            components.append(members)
    return components
