"""Oracle interfaces for the polynomial-time Turing reductions.

The paper's reductions are oracle algorithms: they make unit-cost calls to a
solver for the target problem.  Here an oracle is simply a callable; this
module provides concrete oracles backed by the library's exact solvers, plus a
call-counting wrapper used by the benchmarks to report how many oracle calls a
reduction makes (the paper's reductions use ``|Dn| + 1`` calls).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Protocol

from ..counting.problems import CountingMethod, fgmc_vector
from ..data.atoms import Fact
from ..data.database import PartitionedDatabase
from ..engine.svc_engine import EngineBackend as SVCMethod
from ..engine.svc_engine import get_engine
from ..queries.base import BooleanQuery


class SVCOracle(Protocol):
    """An oracle for ``SVC_q``: returns the Shapley value of a fact."""

    def __call__(self, query: BooleanQuery, pdb: PartitionedDatabase,
                 fact: Fact) -> Fraction: ...


class MaxSVCOracle(Protocol):
    """An oracle for ``max-SVC_q``: returns a maximising fact and its Shapley value."""

    def __call__(self, query: BooleanQuery, pdb: PartitionedDatabase
                 ) -> tuple[Fact, Fraction]: ...


class FGMCOracle(Protocol):
    """An oracle for ``FGMC_q``: returns the whole vector of counts by size."""

    def __call__(self, query: BooleanQuery, pdb: PartitionedDatabase) -> list[int]: ...


def exact_svc_oracle(method: SVCMethod = "auto") -> SVCOracle:
    """An SVC oracle backed by the batched :class:`repro.engine.SVCEngine`.

    Reductions require a *specific* solver, so the oracle addresses the engine
    layer directly rather than the dichotomy-dispatching
    :class:`repro.api.AttributionSession`.
    """

    def oracle(query: BooleanQuery, pdb: PartitionedDatabase, fact: Fact) -> Fraction:
        return get_engine(query, pdb, method).value_of(fact)

    return oracle


def exact_max_svc_oracle(method: SVCMethod = "auto") -> MaxSVCOracle:
    """A max-SVC oracle backed by the batched :class:`repro.engine.SVCEngine`."""

    def oracle(query: BooleanQuery, pdb: PartitionedDatabase) -> tuple[Fact, Fraction]:
        return get_engine(query, pdb, method).max_value()

    return oracle


def exact_fgmc_oracle(method: CountingMethod = "auto") -> FGMCOracle:
    """An FGMC oracle backed by the library's counters."""

    def oracle(query: BooleanQuery, pdb: PartitionedDatabase) -> list[int]:
        return fgmc_vector(query, pdb, method=method)

    return oracle


@dataclass
class CallCounter:
    """Wrap any callable oracle and count its invocations.

    ``counter = CallCounter(exact_svc_oracle())`` behaves like the wrapped
    oracle; ``counter.calls`` reports how many times it was consulted and
    ``counter.log`` keeps a small trace (sizes of the databases it was called
    on) for the benchmark tables.
    """

    oracle: Callable
    calls: int = 0
    log: list[dict] = field(default_factory=list)

    def __call__(self, *args, **kwargs):
        self.calls += 1
        entry: dict = {}
        for argument in args:
            if isinstance(argument, PartitionedDatabase):
                entry["endogenous"] = len(argument.endogenous)
                entry["exogenous"] = len(argument.exogenous)
        self.log.append(entry)
        return self.oracle(*args, **kwargs)

    def reset(self) -> None:
        """Reset the call counter and trace."""
        self.calls = 0
        self.log.clear()
