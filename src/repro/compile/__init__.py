"""Knowledge compilation of query lineages (the circuit subsystem).

Compile the lineage's monotone DNF once into a smoothed, decomposable decision
circuit, then read the FGMC vector *and* every per-fact conditioned vector
pair off the circuit — one bottom-up sweep plus one top-down derivative sweep
instead of one counting pass per fact.  See :mod:`repro.compile.compiler` for
the design notes and :mod:`repro.compile.circuit` for the node algebra.
"""

from .circuit import Circuit, CircuitInvariantError
from .compiler import (
    DEFAULT_NODE_BUDGET,
    ORDERINGS,
    CircuitBudgetError,
    CompileSeed,
    CompiledDNF,
    CompiledLineage,
    ConditioningPlan,
    compile_dnf,
    compile_lineage,
    first_variable,
    max_occurrence,
    min_occurrence,
)

__all__ = [
    "Circuit",
    "CircuitBudgetError",
    "CircuitInvariantError",
    "CompileSeed",
    "CompiledDNF",
    "CompiledLineage",
    "ConditioningPlan",
    "DEFAULT_NODE_BUDGET",
    "ORDERINGS",
    "compile_dnf",
    "compile_lineage",
    "first_variable",
    "max_occurrence",
    "min_occurrence",
]
