"""The paper's primary contribution: Shapley value computation and its variants."""

from .approximate import (
    ApproximationResult,
    approximate_shapley_value,
    approximate_shapley_value_of_fact,
    samples_for_guarantee,
)
from .constants import (
    fgmc_constants_vector,
    fmc_constants_vector,
    shapley_value_of_constant,
    shapley_values_of_constants,
)
from .endogenous import (
    shapley_value_endogenous,
    shapley_value_endogenous_via_fmc,
    shapley_values_endogenous,
)
from .games import ConstantQueryGame, CooperativeGame, ExplicitGame, QueryGame
from .max_svc import (
    max_shapley_value_with_shortcut,
    singleton_support_facts,
)
from .shapley import efficiency_total, shapley_value, shapley_values
from .svc import (
    shapley_value_from_fgmc_vectors,
    shapley_value_safe_pipeline,
    shapley_value_via_fgmc,
)

__all__ = [
    "ApproximationResult",
    "ConstantQueryGame",
    "approximate_shapley_value",
    "approximate_shapley_value_of_fact",
    "samples_for_guarantee",
    "CooperativeGame",
    "ExplicitGame",
    "QueryGame",
    "efficiency_total",
    "fgmc_constants_vector",
    "fmc_constants_vector",
    "max_shapley_value_with_shortcut",
    "shapley_value",
    "shapley_value_endogenous",
    "shapley_value_endogenous_via_fmc",
    "shapley_value_from_fgmc_vectors",
    "shapley_value_of_constant",
    "shapley_value_safe_pipeline",
    "shapley_value_via_fgmc",
    "shapley_values",
    "shapley_values_endogenous",
    "shapley_values_of_constants",
    "singleton_support_facts",
]
