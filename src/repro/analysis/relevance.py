"""Relevance of facts and relations to a query.

A fact is *relevant* to a query ``q`` if it appears in some minimal support of
``q`` (Section 2).  Relevance is used by Claim 5.1 (irrelevant facts can be
discarded), by the decomposition step of Lemma 4.4 (splitting the database
according to which subquery each fact is relevant to), and by Corollary 4.4.
"""

from __future__ import annotations

from ..data.atoms import Fact, single_atom_c_homomorphisms
from ..queries.base import BooleanQuery
from ..queries.cq import ConjunctiveQuery
from ..queries.crpq import ConjunctiveRegularPathQuery
from ..queries.rpq import RegularPathQuery
from ..queries.ucq import UnionOfConjunctiveQueries, as_ucq


def relevant_relations(query: BooleanQuery) -> frozenset[str]:
    """The relation names that can appear in minimal supports of the query.

    For CQs / UCQs, these are the relations of the cores of the disjuncts; for
    RPQs / CRPQs, the relations on useful transitions of the path automata
    (conservatively, all relation names of the languages).
    """
    if isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
        ucq_view = as_ucq(query)
        names: set[str] = set()
        for disjunct in ucq_view.disjuncts:
            names |= disjunct.core().relation_names()
        return frozenset(names)
    return query.relation_names()


def is_relevant_fact(fact: Fact, query: BooleanQuery) -> bool:
    """Whether the fact appears in some minimal support of the query.

    The test instantiates the query around the fact: for (U)CQs, we look for a
    minimal support containing the fact inside the database obtained by
    freezing a disjunct through a partial homomorphism mapping one atom onto
    the fact.  For RPQs / CRPQs we check whether the fact can lie on a minimal
    support built from canonical paths passing through it.  For other queries,
    a conservative relation-name test is used.
    """
    if fact.relation not in relevant_relations(query):
        return False
    if isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
        return _is_relevant_fact_ucq(fact, as_ucq(query))
    if isinstance(query, RegularPathQuery):
        return _is_relevant_fact_rpq(fact, query)
    if isinstance(query, ConjunctiveRegularPathQuery):
        return any(_is_relevant_fact_rpq_language(fact, atom.nfa)
                   for atom in query.path_atoms
                   if fact.relation in atom.relation_names())
    # Conservative default: same relation name as the query.
    return True


def _is_relevant_fact_ucq(fact: Fact, query: UnionOfConjunctiveQueries) -> bool:
    query_constants = query.constants()
    for disjunct in query.disjuncts:
        core = disjunct.core()
        for atom in core.atoms:
            for mapping in single_atom_c_homomorphisms(atom, fact, query_constants):
                # Freeze the remaining variables of the core to fresh constants,
                # after applying the partial mapping, and look for a minimal
                # support of the *whole UCQ* containing the fact.
                partially_grounded = core.substitute(mapping)
                frozen_facts, _ = partially_grounded.freeze()
                candidate_db = frozen_facts | {fact}
                for support in query.minimal_supports_in(candidate_db):
                    if fact in support:
                        return True
    return False


def _is_relevant_fact_rpq(fact: Fact, query: RegularPathQuery) -> bool:
    return _is_relevant_fact_rpq_language(fact, query.nfa)


def _is_relevant_fact_rpq_language(fact: Fact, nfa) -> bool:
    """A binary fact is relevant to a path language iff its relation labels some
    useful (reachable and co-reachable) transition of the automaton."""
    if fact.arity != 2:
        return False
    useful, edges = nfa._trimmed_symbol_graph()
    for state in useful:
        for label, _target in edges.get(state, ()):
            if label == fact.relation:
                return True
    return False


def split_by_relevance(facts: "frozenset[Fact] | set[Fact]",
                       query_one: BooleanQuery,
                       query_two: BooleanQuery) -> tuple[frozenset[Fact], frozenset[Fact]]:
    """Partition facts into (relevant to ``query_two``, the rest).

    This is the split used in the proof of Lemma 4.4: for a decomposable query
    ``q1 ∧ q2`` no fact is relevant to both, so facts relevant to ``q2`` go to
    the second part and all remaining facts (relevant to ``q1`` or to neither)
    to the first.
    """
    second = frozenset(f for f in facts if is_relevant_fact(f, query_two))
    first = frozenset(facts) - second
    return first, second


def irrelevant_endogenous_facts(pdb, query: BooleanQuery) -> frozenset[Fact]:
    """The endogenous facts of a partitioned database that are irrelevant to the query."""
    return frozenset(f for f in pdb.endogenous if not is_relevant_fact(f, query))


__all__ = [
    "irrelevant_endogenous_facts",
    "is_relevant_fact",
    "relevant_relations",
    "split_by_relevance",
]
