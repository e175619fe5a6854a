"""``repro.api`` — the stable programmatic surface of the package.

One entry point replaces the ~40 free functions of the historical API:
:class:`AttributionSession` wraps the batched :class:`repro.engine.SVCEngine`
and the Figure 1b dichotomy classifier, dispatches to the admissible backend
(compiled circuit / brute force / Monte-Carlo sampling) and returns
typed, frozen, JSON-serialisable results.  The legacy free functions that
once wrapped it were removed; ``CHANGES.md`` maps each to its session call.

Quick start::

    from repro.api import AttributionSession, EngineConfig

    session = AttributionSession(query, pdb)          # dichotomy-aware dispatch
    session.ranking()                                  # who is responsible?
    session.explanation()                              # why this backend?
    report = session.report()                          # frozen + JSON-ready
    report.to_json()
"""

from ..errors import ConfigError, IntractableQueryError, ReproError, UnsafeQueryError
from .config import EngineConfig
from .results import AttributionReport, AttributionResult, EfficiencyCheck, Explanation
from .session import AttributionSession, attribute

__all__ = [
    "AttributionReport",
    "AttributionResult",
    "AttributionSession",
    "ConfigError",
    "EfficiencyCheck",
    "EngineConfig",
    "Explanation",
    "IntractableQueryError",
    "ReproError",
    "UnsafeQueryError",
    "attribute",
]
