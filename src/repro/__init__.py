"""repro — Shapley value computation in databases as a matter of counting.

A from-scratch reproduction of

    Meghyn Bienvenu, Diego Figueira, Pierre Lafourcade.
    *When is Shapley Value Computation a Matter of Counting?*  PODS 2024.

The package is organised as follows:

* :mod:`repro.data` — the relational substrate (terms, facts, databases,
  partitioned databases, schemas, generators);
* :mod:`repro.queries` — Boolean query languages (CQ, UCQ, RPQ, CRPQ, UCRPQ,
  sjf-CQ¬);
* :mod:`repro.analysis` — structural analysis (hierarchy, connectivity,
  q-leaks, island supports, decomposability, safety, the SVC dichotomy
  classifier of Figure 1b);
* :mod:`repro.counting` — the model counting problems MC / GMC / FMC / FGMC and
  the size-stratified lineage counter;
* :mod:`repro.compile` — knowledge compilation: the lineage DNF compiled once
  into a smoothed, decomposable decision circuit, all per-fact conditioned
  count vectors from one top-down derivative sweep;
* :mod:`repro.probability` — tuple-independent databases, PQE and its
  restrictions, lifted inference for safe queries;
* :mod:`repro.core` — Shapley value computation (SVC, SVCn, max-SVC, Shapley
  value of constants);
* :mod:`repro.engine` — the batched SVC engine: all Shapley values of a
  database from one shared lineage / safe plan, with pluggable backends;
* :mod:`repro.api` — the stable programmatic surface: a dichotomy-aware
  :class:`AttributionSession` façade with typed results, structured
  explanations and a validated :class:`EngineConfig`;
* :mod:`repro.workspace` — incremental attribution above the session: a
  long-lived :class:`AttributionWorkspace` over a changing database, with
  lineage-support-aware delta invalidation and a pluggable
  :class:`~repro.workspace.ArtifactStore` (in-memory LRU or on-disk pickles
  keyed by content hashes) so plans, lineages and compiled circuits survive
  updates and process restarts;
* :mod:`repro.incremental` — delta maintenance under the workspace: the
  minimal support family as a materialised view advanced clause-by-clause
  per delta, and circuit patching that re-prices only the lineage islands a
  delta actually reaches, seeding recompiles from the previous circuit;
* :mod:`repro.serve` — the serving tier above workspaces: an asyncio
  :class:`~repro.serve.AttributionService` with request coalescing,
  dichotomy-driven admission control, per-tenant workspaces over one shared
  artifact store, a stdlib HTTP/JSON API (``repro serve``) and a live
  ``/stats`` metrics surface;
* :mod:`repro.reliability` — fault injection and resilience: the seeded,
  deterministic :class:`FaultPlan` / :class:`FaultInjector` harness whose
  named injection points are threaded through the store, the pools, the
  compiler and the serving executor; bounded :class:`RetryPolicy` backoff;
  the per-tenant/lane :class:`CircuitBreaker` behind the serving tier's
  degradation ladder;
* :mod:`repro.reductions` — the paper's reductions (Proposition 3.3,
  Lemmas 4.1 / 4.3 / 4.4, Section 6 variants), implemented as oracle
  algorithms over exact rational arithmetic;
* :mod:`repro.experiments` — drivers regenerating the paper's figures as
  verified tables.

Quick start — one entry point, the dichotomy picks the algorithm::

    from repro import *

    x, y = var("x"), var("y")
    q = cq(atom("R", x), atom("S", x, y), atom("T", y))      # q_RST
    db = bipartite_rst_database(3, 3, 0.5, seed=0)
    pdb = partition_by_relation(db, exogenous_relations=("R", "T"))

    session = AttributionSession(q, pdb)   # consults the Figure 1b classifier
    session.ranking()                      # facts by responsibility, exact Fractions
    session.max()                          # max-SVC: the most responsible fact
    print(session.explanation())           # which backend ran, and why
    report = session.report()              # frozen, JSON-serialisable record
    report.to_json()

Tune the dispatch with :class:`EngineConfig` (explicit backend override,
Monte-Carlo ``epsilon`` / ``delta``, policy for #P-hard queries)::

    session = AttributionSession(q, pdb, EngineConfig(epsilon=0.01, on_hard="sample"))

Backend-selection matrix — what ``method="auto"`` runs, and when to override:

==========  ===========================  =======================================
backend     auto picks it when           cost / knobs
==========  ===========================  =======================================
 circuit    query is (C-)hom-closed,     one lineage compilation (bounded by
            FP side of Figure 1b         ``EngineConfig.circuit_node_budget``,
            included                     default 100 000 nodes) + one
                                         derivative sweep for *all* facts;
                                         polynomial-size on the FP queries
                                         measured, worst-case exponential
 safe       the circuit blew its node    polynomial; lifted inference + the
            budget and a safe plan       partition identity, one plan per query,
            compiles (FP stays FP)       compiled only when this fallback fires
 counting   the circuit blew its node    one lineage, ``n`` conditioned
            budget and the query has     counting passes; an explicit
            no safe plan                 request on a non-hom-closed query
                                         runs ``brute``
 brute      query is not hom-closed      one ``2^n`` coalition enumeration
                                         into every fact's pair strata (no
                                         table); ground truth
 sampled    query is #P-hard/unknown     Monte-Carlo permutation sampling with
            and ``|Dn|`` exceeds         the ``(epsilon, delta)`` Hoeffding
            ``exact_size_limit`` (with   guarantee
            ``on_hard="sample"``)
==========  ===========================  =======================================

Every exact backend returns bitwise-identical ``Fraction`` values; the choice
only moves wall-clock time.  Reports record the evidence: ``lineage_size``,
``circuit_size``, ``circuit_compile_time_s``, ``workers_used``,
``shard_axis`` / ``n_components`` / ``largest_component``.

Index-selection matrix — every backend produces the same *conditioned
coalition-count vectors*; ``EngineConfig(index=...)`` picks the
:mod:`repro.values` combiner applied to them, so switching index reuses every
compiled artefact (plans, lineages, circuits):

===============  ==============================  ===========================
index            the question it answers         properties
===============  ==============================  ===========================
 shapley         fair division of the query's    efficient (values sum to
 (default)       truth over the endogenous       v(Dn)), symmetric, the
                 facts — order-weighted          paper's SVC; the only index
                 marginal contributions          the Monte-Carlo sampler
                                                 estimates
 banzhaf         raw swing power: in how many    not efficient (no
                 coalitions is the fact          sum identity); semivalue,
                 decisive, uniformly over        uniform coalition weights
                 subsets
 responsibility  Chockler–Halpern degree of      not additive, not a
                 responsibility 1/(1+k): how     semivalue; piecewise
                 far from decisive is the        1/(1+k) scale, good for
                 fact (k = minimal side moves)   ranked blame, coarser ties
===============  ==============================  ===========================

All three agree on *null players* (a fact has zero value under one index iff
under all — the conditioned vectors coincide), so ``null_players()`` and
support-based invalidation are index-independent.  Probability workloads
(``sppqe(..., method="circuit")``) and ``workspace.what_if`` batches evaluate
the *same* compiled circuit with a weighted bottom-up sweep — one compilation
serves attribution under every index, PQE, and what-if analysis.

Sharding-selection matrix — how ``EngineConfig.shard`` splits the work when
``workers > 1`` (and, for ``"component"``, even at one worker):

===========  ==============================  ===============================
shard        auto picks it when              what a worker holds
===========  ==============================  ===============================
 component   the lineage splits into >= 2    ONE island's sub-lineage —
             variable-disjoint islands and   compiled/counted locally, so the
             the backend is circuit or       sharded plan is *less total
             counting                        work*; per-fact vectors merge by
                                             the counter's convolution
                                             identity (faster than serial
                                             even at ``workers=1``)
 fact        one island only, or the         the WHOLE shared artefact; the
             brute / safe / sampled          pair kernel runs on a stripe of
             backend                         facts (brute: coalition sizes)
===========  ==============================  ===============================

On island-rich databases (many small disjoint lineage components — the
million-user shape) ``shard="component"`` measures 3.8–6.4x over serial at
one worker and beats fact striping 1.1–2.8x at four workers even on one
core (``BENCH_parallel.json``); per-island circuits are store-keyed by
``(query, sub-lineage)`` content hashes, so an in-support delta recompiles
only the touched island.

Session, workspace, or service?

===========  =============================  ==================================
layer        the workload it owns           what it adds
===========  =============================  ==================================
 session     one immutable ``(query,        dichotomy-aware dispatch, typed
             database)`` pair, one          report, structured explanation
             attribution (ad-hoc
             questions, reproducible
             reports)
 workspace   standing queries over a        delta ops on immutable snapshots,
             *changing* database, one       lineage-support invalidation
             caller                         (recompute only what a delta can
                                            reach), persistent artifact store
 service     *many concurrent callers*,     request coalescing (N identical
             many tenants, one process      concurrent requests, 1 compile),
                                            admission control (Figure 1b as a
                                            load shedder: fast / pooled /
                                            degraded / rejected lanes,
                                            deadlines that free the pool),
                                            per-tenant workspaces over one
                                            shared store, HTTP API + /stats
===========  =============================  ==================================

A session is one-shot: one immutable ``(query, database)`` pair, one
attribution — use it for ad-hoc questions and reproducible reports.  When the
*database changes* and the *queries stand*, hold an
:class:`AttributionWorkspace` instead: delta operations produce new immutable
snapshots, ``refresh()`` re-attributes only the queries a delta actually
invalidates (a delta fact outside a query's lineage support provably moves no
value), and a :class:`~repro.workspace.DiskStore` keeps the expensive
artifacts across process restarts::

    from repro.workspace import AttributionWorkspace, DiskStore

    ws = AttributionWorkspace(pdb, store=DiskStore("artifacts/"))
    ws.register("suspects", q)
    ws.refresh()                        # cold attribution, artifacts stored
    ws.insert(fact("S", "a", "b"))      # a new immutable snapshot
    result = ws.refresh()               # recomputes only what the delta reaches
    result["suspects"].rank_moves       # typed delta: what actually changed

    batch = ws.what_if(["-S(a, b)",     # hypotheticals: snapshot NOT modified
                        [">R(a)", "-S(a, b)"]])
    batch[0].probability                # Pr(q) under the scenario, exact
    batch[0].values                     # per-fact values by conditioning the
    batch.recompiled                    # standing circuit (() = no recompiles)

Incremental maintenance — when a delta *does* reach a query's support, the
workspace no longer recomputes from scratch by default.  The query's minimal
support family is kept as a delta-maintained view (:mod:`repro.incremental`):
an insert grounds only the clauses passing through the new fact, a removal
drops exactly the touched clauses, and a repartition rewrites them in place.
The refreshed lineage then re-prices **island by island** against the
artifact store — untouched islands are store hits, and the one island the
delta reached recompiles seeded from its previous circuit — so a single-fact
update costs one island, not the database (>= 5x over the cold path on the
island-rich shapes in ``BENCH_workspace.json``).  The route is audited per
query in :attr:`~repro.workspace.AttributionDelta.refresh_reason`
(``"incremental-patch"`` / ``"conservative-recompute"`` /
``"patch-fallback"`` / ``"out-of-support-reuse"``) with per-island counters
in ``patch_stats``; any surprise falls back to the cold recompute, which
doubles as the parity oracle — both paths produce bitwise-identical
``Fraction`` values (``examples/streaming_deltas.py`` walks through it)::

    ws.insert(fact("S", "c", "d"))      # reaches one island's support
    result = ws.refresh()
    result["suspects"].refresh_reason   # "incremental-patch"
    result["suspects"].patch_stats      # islands, store hits, seeded compiles
    ws.store_stats()["patched"]         # patches vs "patch_fallbacks"

When many callers hit the same process — the serving shape — wrap the
workspaces in an :class:`~repro.serve.AttributionService` (or run
``repro serve`` for the HTTP front; ``examples/serve_quickstart.py`` walks
through the whole surface)::

    from repro.serve import AttributionService

    service = AttributionService(store=DiskStore("artifacts/"))
    service.register_tenant("acme", pdb)
    served = await service.attribute("acme", q)     # coalesces duplicates
    served.report.ranking                           # exact values, provenance
    await service.refresh_tenant("acme", ["+S(a, b)"])
    service.stats()                                 # the live metrics surface

Reliability — the paper's promise is *exactness*, so the failure contract is
**no silent corruption**: every fault anywhere in the stack resolves to either
a bitwise-correct answer or a typed error, never a silently wrong ``Fraction``.
The moving parts (all in :mod:`repro.reliability`):

* **checksummed store** — :class:`~repro.workspace.DiskStore` entries are
  SHA-256-checksummed envelopes verified *before* unpickling; a corrupted or
  truncated entry is moved to ``quarantine/`` exactly once and reads as a
  plain miss (``store_stats()`` counts ``quarantined`` / ``put_failures`` /
  ``tmp_swept``); writes retry transient ``OSError`` with bounded backoff;
* **per-island retry-then-degrade** — a crashed pool worker's island is
  resubmitted to a fresh pool, and an island that keeps failing is solved
  in-process (bitwise-identical either way, audited as ``pool→in-process``);
* **circuit breakers** — repeated failures on one tenant/lane trip a
  breaker: Shapley requests reroute to the sampled lane (audited as
  ``breaker→sampled``), exactness-insisting requests get a structured 503
  with ``retry_after_s`` (a real ``Retry-After`` header over HTTP), and a
  half-open probe recovers the lane; ``GET /healthz`` rolls breaker states,
  pool saturation and store error rates into ok / degraded / unhealthy;
* **audit trail** — every rung a request descends is recorded in
  ``AttributionReport.degradation_reason``;
* **fault harness** — the same machinery is testable on a reproducible
  schedule (free when disabled — see ``BENCH_resilience.json``)::

    from repro.reliability import FaultPlan, FaultRule, injected

    plan = FaultPlan(seed=7, rules=(
        FaultRule(point="store.put.write", kind="oserror", times=2),
        FaultRule(point="parallel.worker", kind="crash", after=2, times=1)))
    with injected(plan):                   # deterministic: same plan, same faults
        session = AttributionSession(q, pdb, store=DiskStore("artifacts/"))
        session.values()                   # exact despite the injected faults

The legacy free functions that wrapped the session were removed; the
migration table in ``CHANGES.md`` maps each to its session call.
"""

from .analysis import (
    Complexity,
    DichotomyVerdict,
    classify_svc,
    is_hierarchical,
    is_pseudo_connected,
    is_safe_ucq,
)
from .compile import (
    CircuitBudgetError,
    CompiledDNF,
    CompiledLineage,
    compile_dnf,
    compile_lineage,
)
from .api import (
    AttributionReport,
    AttributionResult,
    AttributionSession,
    EngineConfig,
    Explanation,
    attribute,
)
from .core import (
    QueryGame,
    shapley_value,
    shapley_value_of_constant,
    shapley_values,
    shapley_values_of_constants,
)
from .counting import (
    fgmc_vector,
    fixed_size_generalized_model_count,
    fixed_size_model_count,
    generalized_model_count,
    model_count,
)
from .data import (
    Atom,
    Constant,
    Database,
    Fact,
    PartitionedDatabase,
    Schema,
    Variable,
    atom,
    bipartite_rst_database,
    const,
    fact,
    partition_by_relation,
    partition_randomly,
    partitioned,
    publication_keyword_database,
    purely_endogenous,
    random_graph_database,
    var,
)
from .engine import SVCEngine, clear_engine_cache, engine_cache_stats, get_engine
from .errors import (
    CircuitOpenError,
    ConfigError,
    DeadlineExceededError,
    IntractableQueryError,
    ReproError,
    ServiceError,
    ServiceOverloadError,
    UnknownTenantError,
    UnsafeQueryError,
)
from .reliability import (
    BreakerRegistry,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedFault,
    RetryPolicy,
    call_with_retry,
    injected,
)
from .probability import (
    TupleIndependentDatabase,
    probability_of_query,
    spqe,
    sppqe,
    uniform_probability,
)
from .values import (
    BANZHAF,
    INDICES,
    RESPONSIBILITY,
    SHAPLEY,
    BanzhafIndex,
    ResponsibilityIndex,
    ShapleyIndex,
    ValueIndex,
    get_index,
)
from .queries import (
    BooleanQuery,
    ConjunctiveQuery,
    ConjunctiveQueryWithNegation,
    ConjunctiveRegularPathQuery,
    RegularPathQuery,
    UnionOfConjunctiveQueries,
    cq,
    cq_with_negation,
    crpq,
    path_atom,
    rpq,
    ucq,
)
from .reductions import (
    fgmc_via_svc_lemma_4_1,
    fgmc_via_svc_lemma_4_3,
    fgmc_via_svc_lemma_4_4,
    svc_via_fgmc,
)
from .serve import (
    AdmissionDecision,
    AdmissionPolicy,
    AttributionService,
    ServedAttribution,
)
from .workspace import (
    AttributionDelta,
    AttributionWorkspace,
    DiskStore,
    MemoryStore,
    WorkspaceRefresh,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "Atom",
    "BANZHAF",
    "BanzhafIndex",
    "INDICES",
    "RESPONSIBILITY",
    "ResponsibilityIndex",
    "SHAPLEY",
    "ShapleyIndex",
    "ValueIndex",
    "AttributionDelta",
    "AttributionReport",
    "AttributionResult",
    "AttributionService",
    "AttributionSession",
    "AttributionWorkspace",
    "BooleanQuery",
    "BreakerRegistry",
    "CircuitBreaker",
    "CircuitBudgetError",
    "CircuitOpenError",
    "Complexity",
    "CompiledDNF",
    "CompiledLineage",
    "ConfigError",
    "DeadlineExceededError",
    "EngineConfig",
    "Explanation",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "IntractableQueryError",
    "ReproError",
    "RetryPolicy",
    "ServedAttribution",
    "ServiceError",
    "ServiceOverloadError",
    "UnknownTenantError",
    "UnsafeQueryError",
    "ConjunctiveQuery",
    "ConjunctiveQueryWithNegation",
    "ConjunctiveRegularPathQuery",
    "Constant",
    "Database",
    "DichotomyVerdict",
    "DiskStore",
    "Fact",
    "MemoryStore",
    "PartitionedDatabase",
    "QueryGame",
    "RegularPathQuery",
    "SVCEngine",
    "Schema",
    "TupleIndependentDatabase",
    "UnionOfConjunctiveQueries",
    "Variable",
    "WorkspaceRefresh",
    "atom",
    "attribute",
    "bipartite_rst_database",
    "call_with_retry",
    "classify_svc",
    "clear_engine_cache",
    "compile_dnf",
    "compile_lineage",
    "const",
    "engine_cache_stats",
    "cq",
    "cq_with_negation",
    "crpq",
    "fact",
    "fgmc_vector",
    "fgmc_via_svc_lemma_4_1",
    "fgmc_via_svc_lemma_4_3",
    "fgmc_via_svc_lemma_4_4",
    "fixed_size_generalized_model_count",
    "fixed_size_model_count",
    "generalized_model_count",
    "get_engine",
    "get_index",
    "injected",
    "is_hierarchical",
    "is_pseudo_connected",
    "is_safe_ucq",
    "model_count",
    "partition_by_relation",
    "partition_randomly",
    "partitioned",
    "path_atom",
    "probability_of_query",
    "publication_keyword_database",
    "purely_endogenous",
    "random_graph_database",
    "rpq",
    "shapley_value",
    "shapley_value_of_constant",
    "shapley_values",
    "shapley_values_of_constants",
    "spqe",
    "sppqe",
    "svc_via_fgmc",
    "ucq",
    "uniform_probability",
    "var",
]
