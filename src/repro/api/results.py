"""Typed, frozen result objects of the attribution session.

These replace the bare ``dict`` / ``list`` / ``tuple`` returns of the legacy
free functions.  Every object is immutable, keeps Shapley values as exact
:class:`fractions.Fraction` (floats are derived, never stored), and renders to
plain JSON-serialisable dictionaries for the CLI and future service layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from ..analysis.dichotomy import Complexity, DichotomyVerdict
from ..data.atoms import Fact
from .config import EngineConfig


def _fraction_json(value: Fraction) -> dict:
    """Render an exact rational losslessly, with a float convenience field."""
    return {"fraction": str(value), "float": float(value)}


def _fraction_from_json(payload: dict) -> Fraction:
    """Invert :func:`_fraction_json` exactly (the float field is ignored)."""
    return Fraction(payload["fraction"])


def _fact_json(f: Fact) -> dict:
    """Render a fact with both a display string and a lossless structure.

    ``str(Fact)`` joins arguments with ``", "``, which is ambiguous for
    constants that themselves contain commas (CSV fields do); ``args`` keeps
    the exact argument list so deserialisation never has to re-parse it.
    """
    return {"fact": str(f), "relation": f.relation,
            "args": [t.name for t in f.terms]}


def _fact_from_json(entry: dict) -> Fact:
    """Rebuild a fact, preferring the lossless structure over the string."""
    from ..data.terms import Constant

    if "relation" in entry:
        return Fact(entry["relation"], tuple(Constant(a) for a in entry["args"]))
    # Documents written before the structured fields: best-effort re-parse.
    from ..io.query_text import parse_fact

    return parse_fact(entry["fact"])


@dataclass(frozen=True)
class Explanation:
    """Why the session chose its backend (the dispatch decision, made auditable).

    ``backend`` is what will run (``safe`` / ``circuit`` / ``counting`` /
    ``brute`` / ``sampled``); ``verdict`` is the Figure 1b classifier outcome the decision
    consulted; ``overridden`` records whether the caller forced the backend via
    :attr:`EngineConfig.method` instead of letting the dichotomy decide.
    """

    backend: str
    verdict: DichotomyVerdict
    overridden: bool
    reason: str

    def __str__(self) -> str:
        return f"backend={self.backend} ({self.reason}) | classifier: {self.verdict}"

    def to_json_dict(self) -> dict:
        return {
            "backend": self.backend,
            "overridden": self.overridden,
            "reason": self.reason,
            "verdict": {
                "complexity": self.verdict.complexity.value,
                "reason": self.verdict.reason,
                "query_class": self.verdict.query_class,
            },
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Explanation":
        """Rebuild an explanation from its :meth:`to_json_dict` rendering."""
        verdict = payload["verdict"]
        return cls(
            backend=payload["backend"],
            verdict=DichotomyVerdict(Complexity(verdict["complexity"]),
                                     verdict["reason"], verdict["query_class"]),
            overridden=payload["overridden"],
            reason=payload["reason"],
        )


@dataclass(frozen=True)
class AttributionResult:
    """The attribution of one fact: its (exact or estimated) Shapley value.

    ``exact`` distinguishes engine values from Monte-Carlo estimates; for the
    latter, ``samples`` / ``epsilon`` / ``delta`` record the estimator's
    parameters (``None`` on exact results).
    """

    fact: Fact
    value: Fraction
    exact: bool
    backend: str
    samples: "int | None" = None
    epsilon: "float | None" = None
    delta: "float | None" = None

    def as_float(self) -> float:
        return float(self.value)

    def to_json_dict(self) -> dict:
        payload = {"fact": str(self.fact), "value": _fraction_json(self.value),
                   "exact": self.exact, "backend": self.backend}
        if not self.exact:
            payload.update(samples=self.samples, epsilon=self.epsilon, delta=self.delta)
        return payload


@dataclass(frozen=True)
class EfficiencyCheck:
    """The efficiency-axiom check: Σ values against the grand-coalition value.

    For exact backends ``ok`` means exact equality; for the sampled backend it
    means the deviation is within the union-bounded per-fact error
    ``|Dn| · epsilon``.
    """

    total: Fraction
    grand_coalition_value: int
    ok: bool

    def to_json_dict(self) -> dict:
        return {"total": _fraction_json(self.total),
                "grand_coalition_value": self.grand_coalition_value, "ok": self.ok}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "EfficiencyCheck":
        """Rebuild a check from its :meth:`to_json_dict` rendering (exact total)."""
        return cls(total=_fraction_from_json(payload["total"]),
                   grand_coalition_value=payload["grand_coalition_value"],
                   ok=payload["ok"])


@dataclass(frozen=True)
class AttributionReport:
    """The full outcome of a whole-database attribution run.

    The ranking is stored (facts in decreasing Shapley value, ties broken by
    the library's total order on facts — see
    :func:`repro.engine.svc_engine._ranking_key`); ``values`` is a derived
    mapping view.  ``lineage_size`` is ``None`` when the chosen backend never
    built a lineage; ``cache`` holds the engine-LRU counters at report time.
    """

    query: str
    ranking: "tuple[tuple[Fact, Fraction], ...]"
    explanation: Explanation
    config: EngineConfig
    n_endogenous: int
    n_exogenous: int
    lineage_size: "int | None"
    #: Node count of the compiled lineage circuit and its compile wall time
    #: (``None`` unless the ``circuit`` backend compiled one; a compilation
    #: aborted by the node budget leaves no circuit and reports ``None``).
    circuit_size: "int | None"
    circuit_compile_time_s: "float | None"
    wall_time_s: float
    exact: bool
    #: Actual per-fact sample count of the Monte-Carlo run (``None`` on exact
    #: backends) — the Hoeffding-derived count, not the configured request.
    n_samples_used: "int | None"
    #: How many worker processes the engine actually used (``1`` for the
    #: serial path and for every parallel fallback — small instance,
    #: unpicklable artefact, pool failure — as well as the sampled backend).
    workers_used: int
    efficiency: "EfficiencyCheck | None"
    cache: Mapping[str, int]
    #: Which sharding axis the exact engine resolved to: ``"component"`` when
    #: per-fact work was recombined from variable-disjoint lineage islands,
    #: ``"fact"`` for the striped axis, ``None`` when no exact engine ran
    #: (sampled backend) or the engine predates the field.
    shard_axis: "str | None" = None
    #: Island count of the lineage decomposition and the variable count of
    #: its largest island (``None`` unless the component pre-pass ran).
    n_components: "int | None" = None
    largest_component: "int | None" = None
    #: The degradation ladder's audit trail: one human-readable entry per rung
    #: this run descended (``"circuit→counting: ..."``,
    #: ``"pool→in-process: ..."``, ``"exact→sampled: ..."``, breaker
    #: reroutes).  Empty on a run that took its first-choice path everywhere —
    #: a non-empty trail means the values are still trustworthy (exact rungs)
    #: or explicitly flagged estimates, never silently degraded.
    degradation_reason: "tuple[str, ...]" = ()

    @property
    def values(self) -> dict[Fact, Fraction]:
        """The per-fact values as a mapping (insertion order = ranking order)."""
        return dict(self.ranking)

    @property
    def backend(self) -> str:
        """The backend that produced the values (from the explanation)."""
        return self.explanation.backend

    @property
    def index(self) -> str:
        """The value index the ranking carries (from the config).

        Reports serialised before the pluggable index layer load as
        ``"shapley"`` — the only index that existed then — because
        :meth:`from_json_dict` rebuilds the config through
        :class:`~repro.api.EngineConfig`, whose ``index`` field defaults.
        """
        return self.config.index

    def __iter__(self) -> Iterator[tuple[Fact, Fraction]]:
        return iter(self.ranking)

    def to_json_dict(self) -> dict:
        return {
            "query": self.query,
            "explanation": self.explanation.to_json_dict(),
            "config": self.config.to_json_dict(),
            "n_endogenous": self.n_endogenous,
            "n_exogenous": self.n_exogenous,
            "lineage_size": self.lineage_size,
            "circuit_size": self.circuit_size,
            "circuit_compile_time_s": self.circuit_compile_time_s,
            "wall_time_s": self.wall_time_s,
            "exact": self.exact,
            "n_samples_used": self.n_samples_used,
            "workers_used": self.workers_used,
            "shard_axis": self.shard_axis,
            "n_components": self.n_components,
            "largest_component": self.largest_component,
            "degradation_reason": list(self.degradation_reason),
            "efficiency": None if self.efficiency is None else self.efficiency.to_json_dict(),
            "engine_cache": dict(self.cache),
            "ranking": [{**_fact_json(f), "value": _fraction_json(v)}
                        for f, v in self.ranking],
        }

    def to_json(self, indent: "int | None" = 2) -> str:
        import json

        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "AttributionReport":
        """Rebuild a report from its :meth:`to_json_dict` rendering.

        The round trip is exact: facts are rebuilt from the report's lossless
        ``relation``/``args`` structure (not re-parsed from display strings),
        and every Shapley value (and the efficiency total) is reconstructed
        from its lossless ``fraction`` string — so
        ``from_json_dict(r.to_json_dict())`` equals ``r`` with a bitwise-
        identical ``Fraction`` map, the contract that lets stored workspace
        reports be reloaded and diffed against fresh runs.  The query survives
        as the string the report already carried.
        """
        efficiency = payload.get("efficiency")
        return cls(
            query=payload["query"],
            ranking=tuple((_fact_from_json(entry),
                           _fraction_from_json(entry["value"]))
                          for entry in payload["ranking"]),
            explanation=Explanation.from_json_dict(payload["explanation"]),
            # Documents written before the counting_method knob was removed
            # carry it in their config: drop it.
            config=EngineConfig(**{k: v for k, v in payload["config"].items()
                                   if k != "counting_method"}),
            n_endogenous=payload["n_endogenous"],
            n_exogenous=payload["n_exogenous"],
            lineage_size=payload["lineage_size"],
            circuit_size=payload["circuit_size"],
            circuit_compile_time_s=payload["circuit_compile_time_s"],
            wall_time_s=payload["wall_time_s"],
            exact=payload["exact"],
            n_samples_used=payload["n_samples_used"],
            workers_used=payload["workers_used"],
            efficiency=(None if efficiency is None
                        else EfficiencyCheck.from_json_dict(efficiency)),
            cache=dict(payload["engine_cache"]),
            # Documents written before the component shard axis: default None.
            shard_axis=payload.get("shard_axis"),
            n_components=payload.get("n_components"),
            largest_component=payload.get("largest_component"),
            # Documents written before the degradation audit trail: empty.
            degradation_reason=tuple(payload.get("degradation_reason", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "AttributionReport":
        """Rebuild a report from a :meth:`to_json` string (exact ``Fraction``s)."""
        import json

        return cls.from_json_dict(json.loads(text))


__all__ = ["AttributionReport", "AttributionResult", "EfficiencyCheck", "Explanation"]
