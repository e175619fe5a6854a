"""Approximate Shapley values by permutation sampling.

The exact solvers are exponential for #P-hard queries; the standard practical
fallback (also used in the SVC literature, e.g. [6, 11]) is the unbiased
permutation-sampling estimator: draw random arrival orders, average the
marginal contribution of the target fact.  For monotone binary query games the
marginal contribution is a Bernoulli variable, so Hoeffding's inequality gives
an explicit sample size for an (ε, δ) additive guarantee.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, TypeVar

from ..data.atoms import Fact
from ..data.database import PartitionedDatabase
from ..errors import ConfigError
from ..queries.base import BooleanQuery
from .games import CooperativeGame, QueryGame

Player = TypeVar("Player", bound=Hashable)


@dataclass(frozen=True)
class ApproximationResult:
    """The outcome of a sampling run: the estimate and its parameters."""

    estimate: Fraction
    samples: int
    epsilon: float
    delta: float

    def as_float(self) -> float:
        """The estimate as a float (convenience for reporting)."""
        return float(self.estimate)


def samples_for_guarantee(epsilon: float, delta: float) -> int:
    """The Hoeffding sample size for an additive (ε, δ) guarantee on a [0, 1] variable."""
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise ConfigError("epsilon and delta must lie strictly between 0 and 1")
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))


def approximate_shapley_value(game: CooperativeGame[Player], player: Player,
                              n_samples: "int | None" = None,
                              epsilon: float = 0.05, delta: float = 0.05,
                              seed: "int | random.Random | None" = 0) -> ApproximationResult:
    """Estimate a Shapley value by sampling random permutations.

    Either pass ``n_samples`` directly or let it be derived from the (ε, δ)
    guarantee via Hoeffding's bound.  The estimator is unbiased for any
    cooperative game.
    """
    if player not in game.players:
        raise ValueError(f"{player!r} is not a player of the game")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if n_samples is None:
        n_samples = samples_for_guarantee(epsilon, delta)
    # The players' own total order, NOT their string rendering: the package's
    # tie-break contract (repro.engine.svc_engine._ranking_key) promises that
    # deterministic orderings never depend on how a fact prints, so a seeded
    # run must survive any order-preserving renaming of the facts.  Generic
    # games may have players with no common total order (the Player bound is
    # only Hashable); for those the repr order keeps seeded runs deterministic
    # — renaming-invariance is a fact-level contract only.
    remaining = game.players - {player}
    try:
        others = sorted(remaining)
    except TypeError:
        others = sorted(remaining, key=repr)
    total = 0
    for _ in range(n_samples):
        position = rng.randint(0, len(others))
        rng.shuffle(others)
        coalition = frozenset(others[:position])
        total += game.value(coalition | {player}) - game.value(coalition)
    return ApproximationResult(Fraction(total, n_samples), n_samples, epsilon, delta)


def approximate_shapley_value_of_fact(query: BooleanQuery, pdb: PartitionedDatabase, fact: Fact,
                                      n_samples: "int | None" = None,
                                      epsilon: float = 0.05, delta: float = 0.05,
                                      seed: "int | random.Random | None" = 0
                                      ) -> ApproximationResult:
    """Sampling-based ``SVC_q`` estimate for a fact (any Boolean query, any database)."""
    if fact not in pdb.endogenous:
        raise ValueError(f"{fact} is not an endogenous fact of the database")
    return approximate_shapley_value(QueryGame(query, pdb), fact, n_samples, epsilon, delta, seed)


def _approximate_values_of_facts(query: BooleanQuery, pdb: PartitionedDatabase,
                                 n_samples: "int | None" = 2000,
                                 seed: "int | random.Random | None" = 0,
                                 epsilon: float = 0.05, delta: float = 0.05
                                 ) -> dict[Fact, ApproximationResult]:
    """Sampling-based estimates for every endogenous fact (single shared RNG).

    Pass ``n_samples=None`` to derive the sample count from the ``(epsilon,
    delta)`` guarantee via Hoeffding's bound; the guarantee is *per fact*
    (union-bound ``delta`` by ``|Dn|`` for a simultaneous one).  This is the
    Monte-Carlo backend of :class:`repro.api.AttributionSession`.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if n_samples is None:
        n_samples = samples_for_guarantee(epsilon, delta)
    return {f: approximate_shapley_value_of_fact(query, pdb, f, n_samples=n_samples,
                                                 epsilon=epsilon, delta=delta, seed=rng)
            for f in sorted(pdb.endogenous)}
