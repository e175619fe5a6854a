"""The attribution session: the package's stable programmatic entry point.

The paper's central message is that *which* algorithm is admissible for SVC is
decided by the query's position in the Figure 1b dichotomy.
:class:`AttributionSession` encodes that message as API: it consults
:func:`repro.analysis.dichotomy.classify_svc` once per session and routes to

* the compiled-lineage circuit when the verdict is FP — polynomial-size on
  these queries in practice, and far faster than the safe plan's per-fact
  interpolation; if the circuit ever blows its node budget, a query with a
  safe plan falls back to that plan, so the work stays polynomial,
* an exact exponential backend (circuit / counting / brute) when the query is
  hard or unclassified but the instance is small enough that exponential is
  fine — preferring the circuit, whose node budget caps the compilation work,
* the Monte-Carlo permutation-sampling estimator — with the ``(epsilon,
  delta)`` guarantee of :mod:`repro.core.approximate` — when the query is hard
  and the instance is large, without the caller ever naming a method.

Every decision is recorded in a structured :class:`repro.api.Explanation`, and
an explicit :attr:`EngineConfig.method` override is always honoured.  The
session is the designated seam for the ROADMAP's future backends (sharded,
async, incremental): they land behind this façade, not as new call sites.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import TYPE_CHECKING

from ..analysis.dichotomy import Complexity, DichotomyVerdict, classify_svc
from ..core.approximate import ApproximationResult, _approximate_values_of_facts
from ..data.atoms import Fact
from ..data.database import PartitionedDatabase
from ..engine.svc_engine import SVCEngine, _ranking_key, engine_cache_stats, get_engine
from ..errors import ConfigError, IntractableQueryError
from ..queries.base import BooleanQuery
from .config import EngineConfig
from .results import AttributionReport, AttributionResult, EfficiencyCheck, Explanation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workspace.store import ArtifactStore


class AttributionSession:
    """Fact attribution for one ``(query, database)`` pair.

    Values are Shapley by default; ``EngineConfig(index="banzhaf")`` or
    ``index="responsibility"`` swaps the final combination step while every
    compiled artefact (plan, lineage, circuit) stays shared across indices.

    Construction is free: classification, backend resolution and the first
    value computation all happen lazily and are memoised on the session.
    Methods::

        session = AttributionSession(query, pdb, config=EngineConfig(...))
        session.values()        # {fact: Fraction} — every endogenous fact
        session.ranking()       # [(fact, value)] decreasing, deterministic ties
        session.top(3)          # the k most responsible facts
        session.max()           # max-SVC: one fact of maximum value
        session.of(fact)        # a typed per-fact AttributionResult
        session.null_players()  # facts with (estimated) value 0
        session.explanation()   # why this backend — the dispatch, auditable
        session.report()        # frozen, JSON-serialisable AttributionReport
    """

    def __init__(self, query: BooleanQuery, pdb: PartitionedDatabase,
                 config: "EngineConfig | None" = None,
                 store: "ArtifactStore | None" = None):
        if not isinstance(pdb, PartitionedDatabase):
            raise ConfigError(
                f"AttributionSession needs a PartitionedDatabase, got {type(pdb).__name__} "
                "(wrap plain databases with repro.data.purely_endogenous or partition_by_relation)")
        self.query = query
        self.pdb = pdb
        self.config = config if config is not None else EngineConfig()
        #: Optional :class:`repro.workspace.ArtifactStore`: the engine reuses
        #: stored plans / lineages / circuits and stores fresh ones, so
        #: sessions sharing a store (or a store directory, for
        #: :class:`repro.workspace.DiskStore`) share their artefacts.
        self.store = store
        self._verdict: "DichotomyVerdict | None" = None
        self._explanation: "Explanation | None" = None
        self._engine: "SVCEngine | None" = None
        self._estimates: "dict[Fact, ApproximationResult] | None" = None
        self._values: "dict[Fact, Fraction] | None" = None
        self._wall_time_s: float = 0.0

    # -- classification & dispatch ---------------------------------------------
    def classify(self) -> DichotomyVerdict:
        """The Figure 1b verdict for the session's query (memoised)."""
        if self._verdict is None:
            self._verdict = classify_svc(self.query)
        return self._verdict

    def explanation(self) -> Explanation:
        """The dispatch decision: which backend runs, and why.

        Dispatch is real work — classification, and on the circuit backend
        the lineage build plus circuit compilation (plus the safe plan, if
        the circuit blows its node budget) — so its (first, memoised) run is
        charged to the session's wall time like every other value-producing
        step.
        """
        if self._explanation is None:
            start = time.perf_counter()
            self._explanation = self._dispatch()
            self._wall_time_s += time.perf_counter() - start
        return self._explanation

    def backend(self) -> str:
        """The resolved backend name (``circuit`` / ``safe`` / ``counting`` /
        ``brute`` / ``sampled``)."""
        return self.explanation().backend

    def _engine_for(self, method: str) -> SVCEngine:
        if self._engine is None:
            self._engine = get_engine(self.query, self.pdb, method,
                                      self.config.workers,
                                      self.config.parallel_threshold,
                                      self.config.circuit_node_budget,
                                      self.store,
                                      self.config.shard,
                                      self.config.index)
        return self._engine

    def _dispatch(self) -> Explanation:
        """Resolve the backend from the config override or the dichotomy."""
        config = self.config
        verdict = self.classify()
        if config.method != "auto":
            backend = ("sampled" if config.method == "sampled"
                       else self._engine_for(config.method).backend())
            return Explanation(
                backend=backend, verdict=verdict, overridden=True,
                reason=f"explicit EngineConfig.method={config.method!r} override")
        if verdict.complexity is Complexity.FP:
            # FP side: the engine's auto rule picks the compiled-lineage
            # circuit for every hom-closed query; the safe plan is its
            # node-budget fallback, so the work stays polynomial.
            backend = self._engine_for("auto").backend()
            return Explanation(
                backend=backend, verdict=verdict, overridden=False,
                reason=f"classifier says FP ({verdict.reason}); "
                       f"exact {backend} backend admissible")
        hardness = ("#P-hard" if verdict.complexity is Complexity.SHARP_P_HARD
                    else "unclassified")
        n = len(self.pdb.endogenous)
        if n <= config.exact_size_limit:
            backend = self._engine_for("auto").backend()
            return Explanation(
                backend=backend, verdict=verdict, overridden=False,
                reason=f"query is {hardness} but |Dn| = {n} ≤ exact_size_limit = "
                       f"{config.exact_size_limit}: exponential exact {backend} backend is fine")
        if config.on_hard == "exact":
            backend = self._engine_for("auto").backend()
            return Explanation(
                backend=backend, verdict=verdict, overridden=False,
                reason=f"query is {hardness} and |Dn| = {n} > exact_size_limit, "
                       f"but on_hard='exact' keeps the exact {backend} backend")
        if config.on_hard == "raise":
            raise IntractableQueryError(
                f"query is {hardness} ({verdict.reason}) and |Dn| = {n} exceeds "
                f"exact_size_limit = {config.exact_size_limit}; "
                "set on_hard='sample' or 'exact', or raise exact_size_limit",
                verdict=verdict)
        if config.index != "shapley":
            # The Monte-Carlo fallback samples Shapley permutations only;
            # other indices have no estimator here, so refusing beats
            # silently estimating the wrong index.
            raise IntractableQueryError(
                f"query is {hardness} and |Dn| = {n} > exact_size_limit = "
                f"{config.exact_size_limit}, but the Monte-Carlo fallback "
                f"estimates Shapley values only; index={config.index!r} needs "
                "on_hard='exact' or a larger exact_size_limit",
                verdict=verdict)
        return Explanation(
            backend="sampled", verdict=verdict, overridden=False,
            reason=f"query is {hardness} and |Dn| = {n} > exact_size_limit = "
                   f"{config.exact_size_limit}: Monte-Carlo sampling with the "
                   f"(ε={config.epsilon}, δ={config.delta}) Hoeffding guarantee")

    # -- values -------------------------------------------------------------------
    def _compute_values(self) -> dict[Fact, Fraction]:
        if self._values is None:
            explanation = self.explanation()
            # Accumulate (don't overwrite): per-fact of() calls may already
            # have charged time to this session.
            start = time.perf_counter()
            if explanation.backend == "sampled":
                self._estimates = _approximate_values_of_facts(
                    self.query, self.pdb, n_samples=self.config.n_samples,
                    seed=self.config.seed, epsilon=self.config.epsilon,
                    delta=self.config.delta)
                self._values = {f: r.estimate for f, r in self._estimates.items()}
            else:
                self._values = self._engine_for("auto").all_values()
            self._wall_time_s += time.perf_counter() - start
        return self._values

    def values(self) -> dict[Fact, Fraction]:
        """The configured index's value of every endogenous fact (exact, or
        ``(ε, δ)`` estimates on the Shapley-only sampled backend)."""
        return dict(self._compute_values())

    def ranking(self) -> list[tuple[Fact, Fraction]]:
        """Facts by decreasing value; equal values follow the fact total order."""
        return sorted(self._compute_values().items(), key=_ranking_key)

    def top(self, k: int) -> list[tuple[Fact, Fraction]]:
        """The ``k`` most responsible facts (a prefix of :meth:`ranking`)."""
        if k < 0:
            raise ConfigError(f"top(k) needs k >= 0, got {k}")
        return self.ranking()[:k]

    def max(self) -> tuple[Fact, Fraction]:
        """``max-SVC``: a fact of maximum value and that value."""
        if not self.pdb.endogenous:
            raise ConfigError("the database has no endogenous fact")
        return self.ranking()[0]

    def of(self, fact: Fact) -> AttributionResult:
        """The typed attribution of one endogenous fact.

        On exact backends only this fact's value is computed (the engine still
        shares its lineage / plan across calls); the sampled backend estimates
        the whole database in one pass and reads the fact off it.
        """
        if fact not in self.pdb.endogenous:
            raise ConfigError(f"{fact} is not an endogenous fact of the database")
        if self.backend() == "sampled":
            self._compute_values()
            estimate = self._estimates[fact]
            return AttributionResult(fact=fact, value=estimate.estimate, exact=False,
                                     backend="sampled", samples=estimate.samples,
                                     epsilon=estimate.epsilon, delta=estimate.delta)
        if self._values is not None:
            value = self._values[fact]
        else:
            # Per-fact exact work is wall-time too: sessions used only through
            # of() must not report 0.0 (the engine still shares its artefacts,
            # so only the first call per fact pays real time).
            start = time.perf_counter()
            value = self._engine_for("auto").value_of(fact)
            self._wall_time_s += time.perf_counter() - start
        return AttributionResult(fact=fact, value=value, exact=True,
                                 backend=self.backend())

    def null_players(self) -> frozenset[Fact]:
        """Endogenous facts whose (estimated) value is zero.

        On exact backends this is the instance-level null-player set of
        Claim 5.1; on the sampled backend a zero estimate only certifies a
        value below the ``epsilon`` guarantee.
        """
        return frozenset(f for f, v in self._compute_values().items() if v == 0)

    # -- reporting -----------------------------------------------------------------
    def _grand_coalition_value(self) -> int:
        if self._engine is not None:
            return self._engine.grand_coalition_value()
        # Sampled backend: read v(Dn) off the same game the sampler played.
        from ..core.games import QueryGame

        return QueryGame(self.query, self.pdb).value(self.pdb.endogenous)

    def _efficiency_check(self) -> EfficiencyCheck:
        total = sum(self._compute_values().values(), Fraction(0))
        grand = self._grand_coalition_value()
        if not self._estimates:
            # Exact backends — and the sampled backend on an empty Dn, whose
            # estimate map is {} (there is no per-fact sample count to invert
            # Hoeffding for, and Σ over no facts is exactly v(Dn) = 0).
            ok = total == grand
        else:
            # Union bound over the per-fact guarantees, at the accuracy the run
            # actually had: invert Hoeffding for the sample count used (an
            # explicit n_samples override changes epsilon, not the bound).
            samples = next(iter(self._estimates.values())).samples
            effective_epsilon = math.sqrt(math.log(2.0 / self.config.delta)
                                          / (2.0 * samples))
            tolerance = Fraction(effective_epsilon).limit_denominator(10**9) \
                * len(self.pdb.endogenous)
            ok = abs(total - grand) <= tolerance
        return EfficiencyCheck(total=total, grand_coalition_value=grand, ok=ok)

    def report(self) -> AttributionReport:
        """The frozen, JSON-serialisable record of the whole attribution run."""
        ranking = tuple(self.ranking())
        # A sampled run over zero endogenous facts draws no samples, so its
        # (empty) value map is trivially exact.
        exact = not self._estimates
        samples_used = None
        if self._estimates:
            # One shared RNG, one count: every per-fact estimator uses it.
            samples_used = next(iter(self._estimates.values())).samples
        explanation = self.explanation()
        degradation: "list[str]" = []
        if self._engine is not None:
            degradation.extend(self._engine.degradation_reasons())
        if explanation.backend == "sampled" and not explanation.overridden:
            # The dispatch itself descended a rung: exact work was refused by
            # the budgets, so the run carries (ε, δ) estimates instead.
            degradation.append(f"exact→sampled: {explanation.reason}")
        return AttributionReport(
            query=str(self.query),
            ranking=ranking,
            explanation=explanation,
            config=self.config,
            n_endogenous=len(self.pdb.endogenous),
            n_exogenous=len(self.pdb.exogenous),
            lineage_size=None if self._engine is None else self._engine.lineage_size(),
            circuit_size=None if self._engine is None else self._engine.circuit_size(),
            circuit_compile_time_s=(
                None if self._engine is None else self._engine.circuit_compile_time_s()),
            wall_time_s=self._wall_time_s,
            exact=exact,
            n_samples_used=samples_used,
            workers_used=1 if self._engine is None else self._engine.workers_used,
            # The efficiency axiom (Σ values = v(Dn)) is Shapley-specific:
            # Banzhaf is not efficient and responsibility is not even additive.
            efficiency=(self._efficiency_check()
                        if self.config.check_efficiency
                        and self.config.index == "shapley" else None),
            cache=engine_cache_stats(),
            shard_axis=None if self._engine is None else self._engine.shard_axis(),
            n_components=None if self._engine is None else self._engine.n_components(),
            largest_component=(
                None if self._engine is None else self._engine.largest_component_size()),
            degradation_reason=tuple(degradation),
        )


def attribute(query: BooleanQuery, pdb: PartitionedDatabase,
              config: "EngineConfig | None" = None) -> AttributionReport:
    """One-shot convenience: run a session and return its report."""
    return AttributionSession(query, pdb, config).report()


__all__ = ["AttributionSession", "attribute"]
