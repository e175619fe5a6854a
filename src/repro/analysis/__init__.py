"""Structural query analysis: hierarchy, connectivity, leaks, islands, safety, dichotomy."""

from .connectivity import (
    connected_components_of_cq,
    is_connected_cq,
    is_connected_fact_set,
    is_connected_query,
    is_variable_connected_atom_set,
    is_variable_connected_cq,
    is_variable_connected_query,
    maximal_variable_connected_subquery,
    variable_connected_components_of_cq,
)
from .decomposition import (
    Decomposition,
    decompose,
    decompose_crpq,
    decompose_ucq,
    is_cc_disjoint_crpq,
    is_decomposable,
)
from .dichotomy import Complexity, DichotomyVerdict, classify_svc
from .hierarchy import (
    NonHierarchicalWitness,
    find_non_hierarchical_witness,
    is_hierarchical,
    is_hierarchical_atoms,
    non_hierarchical_witness,
)
from .islands import (
    IslandWitness,
    find_duplicable_singleton_support,
    find_island_support,
    find_unshared_constant_island,
    is_pseudo_connected,
    pseudo_connectivity_report,
)
from .leaks import (
    find_leak_free_minimal_support,
    has_q_leak,
    is_q_leak,
    leak_witnesses,
    support_atoms_of,
)
from .relevance import (
    irrelevant_endogenous_facts,
    is_relevant_fact,
    relevant_relations,
    split_by_relevance,
)
from .safety import is_safe, is_safe_sjf_cq, is_safe_ucq, safety_verdict

__all__ = [
    "Complexity",
    "Decomposition",
    "DichotomyVerdict",
    "IslandWitness",
    "NonHierarchicalWitness",
    "classify_svc",
    "connected_components_of_cq",
    "decompose",
    "decompose_crpq",
    "decompose_ucq",
    "find_duplicable_singleton_support",
    "find_island_support",
    "find_leak_free_minimal_support",
    "find_non_hierarchical_witness",
    "find_unshared_constant_island",
    "has_q_leak",
    "irrelevant_endogenous_facts",
    "is_cc_disjoint_crpq",
    "is_connected_cq",
    "is_connected_fact_set",
    "is_connected_query",
    "is_decomposable",
    "is_hierarchical",
    "is_hierarchical_atoms",
    "is_pseudo_connected",
    "is_q_leak",
    "is_relevant_fact",
    "is_safe",
    "is_safe_sjf_cq",
    "is_safe_ucq",
    "is_variable_connected_atom_set",
    "is_variable_connected_cq",
    "is_variable_connected_query",
    "leak_witnesses",
    "maximal_variable_connected_subquery",
    "non_hierarchical_witness",
    "pseudo_connectivity_report",
    "relevant_relations",
    "safety_verdict",
    "split_by_relevance",
    "support_atoms_of",
    "variable_connected_components_of_cq",
]
