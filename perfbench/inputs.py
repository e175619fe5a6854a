"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain library objects
(``PartitionedDatabase``), so the program under test only ever sees the
generated inputs, never the seed.  ``op_rng(seed, workload, k)`` derives the
generator for op ``k`` of a run, so the same seed gives the same inputs and
every op of a run gets a database the run has not seen before.
"""

from __future__ import annotations

import random

from repro.data.atoms import fact
from repro.data.database import PartitionedDatabase


def op_rng(seed: int, workload: str, k: int) -> random.Random:
    """The generator of op ``k`` of one run (stable across processes)."""
    return random.Random(f"{workload}/{seed}/{k}")


def _connected(edges: "list[tuple[int, int]]") -> bool:
    """Whether the bipartite graph spanned by ``edges`` is connected."""
    parent: "dict[tuple[str, int], tuple[str, int]]" = {}

    def find(node):
        while parent.setdefault(node, node) != node:
            node = parent[node]
        return node

    for i, j in edges:
        parent[find(("l", i))] = find(("r", j))
    return len({find(node) for node in list(parent)}) == 1


def _rst_facts(edges, prefix: str) -> "set":
    """The R/S/T facts of a bipartite edge set, constants tagged by ``prefix``."""
    facts = set()
    for i, j in edges:
        left, right = f"{prefix}l{i:02d}", f"{prefix}r{j:02d}"
        facts |= {fact("R", left), fact("S", left, right), fact("T", right)}
    return facts


def one_island_db(rng: random.Random, *, width: int = 16, band: int = 3,
                  edge_probability: float = 0.75,
                  facts_range: "tuple[int, int]" = (55, 75)) -> PartitionedDatabase:
    """A sparse banded R/S/T database whose ``q_RST`` lineage is one island.

    Left node ``i`` may link to right nodes ``i .. i + band - 1``, each with
    ``edge_probability``; every fact is endogenous.  Draws are rejected until
    the edge graph is connected (one lineage island) and the fact count lies
    in ``facts_range``.  Both are properties of the input.  The band keeps
    the op cost narrow across draws: unbanded random graphs of the same size
    vary about tenfold in compile and sweep cost.
    """
    low, high = facts_range
    while True:
        edges = [(i, j) for i in range(width)
                 for j in range(i, min(width, i + band))
                 if rng.random() < edge_probability]
        if not edges or not _connected(edges):
            continue
        facts = _rst_facts(edges, f"c{rng.randrange(10 ** 6)}")
        if low <= len(facts) <= high:
            return PartitionedDatabase(facts, ())


def _block_edges(rng: random.Random, max_side: int) -> "list[tuple[int, int]]":
    """A random connected bipartite block of 2..max_side by 2..max_side nodes."""
    while True:
        left, right = rng.randint(2, max_side), rng.randint(2, max_side)
        edges = [(i, j) for i in range(left) for j in range(right)
                 if rng.random() < 0.6]
        touched = ({i for i, _ in edges} == set(range(left))
                   and {j for _, j in edges} == set(range(right)))
        if touched and _connected(edges):
            return edges


def many_islands_db(rng: random.Random, *, islands: "tuple[int, int]" = (16, 24),
                    max_side: int = 4,
                    facts_range: "tuple[int, int]" = (270, 300)) -> PartitionedDatabase:
    """``16..24`` variable-disjoint ``q_RST`` blocks of random shape, all endogenous.

    Draws are rejected until the total fact count lies in ``facts_range``:
    recombination cost grows with the square of the fact count, so an
    unconstrained count would spread op cost threefold.
    """
    low, high = facts_range
    while True:
        count = rng.randint(*islands)
        tag = rng.randrange(10 ** 6)
        facts = set()
        for b in range(count):
            facts |= _rst_facts(_block_edges(rng, max_side), f"c{tag}b{b:02d}")
        if low <= len(facts) <= high:
            return PartitionedDatabase(facts, ())


def negation_db(rng: random.Random, *, endogenous: int = 13,
                side: int = 4) -> PartitionedDatabase:
    """A ``q_negation_hard`` database: exactly ``endogenous`` S/N facts.

    R and T facts over ``side`` left and right constants are exogenous; the
    endogenous part is a random mix of S edges and N facts, where N facts sit
    on S edges so that the negated atom actually blocks witnesses.  Any
    single S edge with its exogenous R and T facts satisfies the query, so
    every op attributes a non-zero game.
    """
    pairs = [(i, j) for i in range(side) for j in range(side)]
    tag = rng.randrange(10 ** 6)
    n_edges = rng.randint(endogenous // 2 + 1, endogenous - 2)
    edges = rng.sample(pairs, n_edges)
    blocked = rng.sample(edges, endogenous - n_edges)
    names = {k: (f"c{tag}l{k[0]}", f"c{tag}r{k[1]}") for k in pairs}
    endo = ({fact("S", *names[e]) for e in edges}
            | {fact("N", *names[e]) for e in blocked})
    exo = ({fact("R", f"c{tag}l{i}") for i in range(side)}
           | {fact("T", f"c{tag}r{j}") for j in range(side)})
    return PartitionedDatabase(endo, exo)


def _fixed_block_edges(rng: random.Random, side: int,
                       n_edges: int) -> "list[tuple[int, int]]":
    """A random connected ``side`` by ``side`` bipartite block with ``n_edges`` edges."""
    pairs = [(i, j) for i in range(side) for j in range(side)]
    while True:
        edges = rng.sample(pairs, n_edges)
        touched = ({i for i, _ in edges} == set(range(side))
                   and {j for _, j in edges} == set(range(side)))
        if touched and _connected(edges):
            return edges


def tenant_db(rng: random.Random, tenant: str, *, islands: int = 12,
              side: int = 3, n_edges: int = 6) -> PartitionedDatabase:
    """One tenant's database: ``islands`` disjoint ``q_RST`` blocks, all endogenous.

    Every block has the same size (``side`` by ``side`` nodes, ``n_edges``
    edges); only its wiring is random.  A tenant database is fixed for a
    whole run, so unequal block sizes would make op cost differ by seed
    rather than average out over the ops.
    """
    facts = set()
    for b in range(islands):
        facts |= _rst_facts(_fixed_block_edges(rng, side, n_edges),
                            f"{tenant}b{b:02d}")
    return PartitionedDatabase(facts, ())
