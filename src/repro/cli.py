"""Command-line interface.

The CLI exposes the library's main entry points on files, so that instances can
be inspected without writing Python:

* ``repro attribute`` — the stable entry point: a dichotomy-aware
  :class:`repro.api.AttributionSession` that classifies the query, routes to
  the admissible backend (circuit / counting / brute / Monte-Carlo) and emits a
  typed, JSON-serialisable :class:`repro.api.AttributionReport`,
* ``repro shapley``   — Shapley values of the endogenous facts of a database,
* ``repro svc-all``   — the batched whole-database workload: every Shapley
  value from one shared lineage / safe plan (the :class:`repro.engine.SVCEngine`),
  with an efficiency-axiom check,
* ``repro workspace`` — incremental attribution: register the query in an
  :class:`repro.workspace.AttributionWorkspace`, apply a sequence of deltas
  (insert / remove / repartition facts) and refresh, re-attributing only when
  a delta actually invalidates the cached values; ``--store-dir`` persists
  safe plans, lineages and compiled circuits across invocations,
* ``repro serve``     — the async multi-tenant attribution service over HTTP:
  request coalescing, dichotomy-driven admission control, per-tenant
  workspaces over one shared artifact store, and a live ``/stats`` surface
  (see :mod:`repro.serve`),
* ``repro what-if``   — evaluate batches of hypothetical scenarios (remove a
  fact, make it exogenous, insert one, ...) against a standing query by
  conditioning the compiled circuit — the snapshot itself is never modified,
* ``repro count``     — the FGMC vector / GMC total of a query on a database,
* ``repro classify``  — the Figure 1b dichotomy verdict for a query,
* ``repro probability`` — SPPQE: the query probability at a uniform fact probability,
* ``repro reduce``    — run the Lemma 4.1 reduction (FGMC from an SVC oracle)
  and report the oracle calls, as a demonstration of the paper's construction.

Value-producing commands (``attribute``, ``svc-all``, ``workspace``,
``what-if``, ``serve``) accept ``--index {shapley,banzhaf,responsibility}``:
every index is computed from the same conditioned coalition-count vectors, so
switching index reuses all compiled artifacts.

Databases are read either from a directory of ``<relation>.csv`` files (see
:mod:`repro.io.tables`) or from a text file with one fact per line (see
:mod:`repro.io.query_text`); queries use the text syntax of
:mod:`repro.io.query_text`.

Invoke as ``python -m repro.cli ...`` (or through the ``repro`` console script
when the package is installed with entry points enabled).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from dataclasses import fields as dataclass_fields

from .analysis.dichotomy import classify_svc
from .api import AttributionReport, AttributionSession, EngineConfig
from .api.config import (
    ENGINE_BACKENDS,
    INDICES,
    METHODS,
    ON_HARD_POLICIES,
    SHARD_POLICIES,
)
from .counting.problems import fgmc_vector
from .data.database import PartitionedDatabase
from .errors import ReproError, UnsafeQueryError
from .experiments.tables import format_table
from .io.query_text import parse_database, parse_query
from .io.tables import load_partitioned_csv
from .serve import AdmissionPolicy, AttributionService
from .serve import serve as serve_http
from .serve.service import DELTA_PREFIXES, apply_delta_spec
from .workspace import AttributionWorkspace, DiskStore, MemoryStore
from .workspace.results import AttributionDelta
from .probability.spqe import sppqe
from .reductions.island import fgmc_via_svc_lemma_4_1
from .reductions.oracles import CallCounter, exact_svc_oracle


def _load_database(path_text: str, exogenous_relations: Sequence[str]) -> PartitionedDatabase:
    path = Path(path_text)
    if path.is_dir():
        return load_partitioned_csv(path, exogenous_relations=exogenous_relations)
    if not path.exists():
        raise FileNotFoundError(f"database path {path} does not exist")
    db = parse_database(path.read_text(encoding="utf-8"))
    exo = frozenset(exogenous_relations)
    return PartitionedDatabase(
        (f for f in db.facts if f.relation not in exo),
        (f for f in db.facts if f.relation in exo))


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--query", "-q", required=True,
                        help="query in text syntax, e.g. 'R(x), S(x,y), T(y)' or '[A B C](a, b)'")
    parser.add_argument("--database", "-d", required=True,
                        help="path to a facts file (one fact per line) or a CSV directory")
    parser.add_argument("--exogenous", "-x", nargs="*", default=[],
                        help="relation names whose facts are exogenous")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Shapley value computation in databases as a matter of counting "
                    "(reproduction of Bienvenu, Figueira, Lafourcade, PODS 2024)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Single source of truth: the CLI defaults ARE the EngineConfig defaults.
    config_defaults = {f.name: f.default for f in dataclass_fields(EngineConfig)}

    attribute = subparsers.add_parser(
        "attribute",
        help="dichotomy-aware attribution: classify the query, route to the admissible "
             "backend, report typed results")
    _add_common_arguments(attribute)
    attribute.add_argument("--method", choices=list(METHODS),
                           default=config_defaults["method"],
                           help="backend override; auto consults the Figure 1b classifier")
    attribute.add_argument("--epsilon", type=float, default=config_defaults["epsilon"],
                           help="additive error of the Monte-Carlo estimator")
    attribute.add_argument("--delta", type=float, default=config_defaults["delta"],
                           help="failure probability of the Monte-Carlo estimator")
    attribute.add_argument("--samples", type=int, default=config_defaults["n_samples"],
                           help="explicit sample count (overrides epsilon/delta)")
    attribute.add_argument("--seed", type=int, default=config_defaults["seed"],
                           help="Monte-Carlo RNG seed")
    attribute.add_argument("--on-hard", dest="on_hard", choices=list(ON_HARD_POLICIES),
                           default=config_defaults["on_hard"],
                           help="policy for hard queries on large instances")
    attribute.add_argument("--exact-size-limit", dest="exact_size_limit", type=int,
                           default=config_defaults["exact_size_limit"],
                           help="largest |Dn| still solved exactly when the query is hard")
    attribute.add_argument("--workers", type=int, default=config_defaults["workers"],
                           help="worker processes for the exact engine backends "
                                "(1 = serial)")
    attribute.add_argument("--parallel-threshold", dest="parallel_threshold", type=int,
                           default=config_defaults["parallel_threshold"],
                           help="smallest |Dn| for which the pool is actually spawned")
    attribute.add_argument("--circuit-node-budget", dest="circuit_node_budget", type=int,
                           default=config_defaults["circuit_node_budget"],
                           help="node ceiling of the circuit backend's compiled lineage "
                                "(past it the engine falls back to counting)")
    attribute.add_argument("--shard", choices=list(SHARD_POLICIES),
                           default=config_defaults["shard"],
                           help="sharding axis of the exact engine: component = one "
                                "variable-disjoint lineage island per task, fact = "
                                "stripe the fact list, auto = component when the "
                                "lineage has at least two islands")
    attribute.add_argument("--index", choices=list(INDICES),
                           default=config_defaults["index"],
                           help="value index computed from the conditioned counts: "
                                "shapley (order-weighted), banzhaf (uniform over "
                                "coalitions), responsibility (1/(1+k) criticality)")
    attribute.add_argument("--top", type=int, default=None,
                           help="print only the k most responsible facts")
    attribute.add_argument("--json", action="store_true",
                           help="emit the full AttributionReport as JSON")
    attribute.set_defaults(handler=_command_attribute)

    shapley = subparsers.add_parser("shapley", help="Shapley values of the endogenous facts")
    _add_common_arguments(shapley)
    shapley.add_argument("--method", choices=list(METHODS),
                         default="auto", help="solver to use (default: auto)")
    shapley.add_argument("--samples", type=int, default=2000,
                         help="number of permutation samples for --method sampled")
    shapley.set_defaults(handler=_command_shapley)

    svc_all = subparsers.add_parser(
        "svc-all", help="batched Shapley values of every endogenous fact (SVCEngine)")
    _add_common_arguments(svc_all)
    svc_all.add_argument("--method", choices=list(ENGINE_BACKENDS),
                         default="auto", help="engine backend (default: auto)")
    svc_all.add_argument("--workers", type=int, default=config_defaults["workers"],
                         help="worker processes for the engine (1 = serial)")
    svc_all.add_argument("--parallel-threshold", dest="parallel_threshold", type=int,
                         default=config_defaults["parallel_threshold"],
                         help="smallest |Dn| for which the pool is actually spawned")
    svc_all.add_argument("--circuit-node-budget", dest="circuit_node_budget", type=int,
                         default=config_defaults["circuit_node_budget"],
                         help="node ceiling of the circuit backend's compiled lineage")
    svc_all.add_argument("--shard", choices=list(SHARD_POLICIES),
                         default=config_defaults["shard"],
                         help="sharding axis of the engine's parallelism "
                              "(component / fact / auto)")
    svc_all.add_argument("--index", choices=list(INDICES),
                         default=config_defaults["index"],
                         help="value index to combine the conditioned counts with")
    svc_all.set_defaults(handler=_command_svc_all)

    workspace = subparsers.add_parser(
        "workspace",
        help="incremental attribution: apply deltas and refresh, recomputing only "
             "queries the deltas actually invalidate")
    _add_common_arguments(workspace)
    workspace.add_argument("--store-dir", dest="store_dir", default=None,
                           help="directory of the persistent artifact store (safe "
                                "plans, lineages, circuits survive across runs); "
                                "omitted = in-memory store")
    workspace.add_argument("--delta", action="append", default=[], metavar="SPEC",
                           help="a delta applied (in order) before the refresh: "
                                "'+R(a)' insert endogenous, '+x:R(a)' insert "
                                "exogenous, '-R(a)' remove, '>R(a)' make exogenous, "
                                "'<R(a)' make endogenous (repeatable; write "
                                "removals as --delta='-R(a)' so the leading '-' "
                                "is not read as an option)")
    workspace.add_argument("--method", choices=list(ENGINE_BACKENDS),
                           default=config_defaults["method"],
                           help="engine backend for the attributions (default: auto)")
    workspace.add_argument("--index", choices=list(INDICES),
                           default=config_defaults["index"],
                           help="value index to combine the conditioned counts with")
    workspace.add_argument("--json", action="store_true",
                           help="emit the refresh results as JSON")
    workspace.set_defaults(handler=_command_workspace)

    what_if = subparsers.add_parser(
        "what-if",
        help="evaluate hypothetical scenarios against a standing query by "
             "conditioning the compiled circuit (the database is never modified)")
    _add_common_arguments(what_if)
    what_if.add_argument("--scenario", action="append", default=[], metavar="SPEC",
                         help="one hypothetical scenario: delta specs joined by "
                              "';' — '-R(a)' remove, '>R(a)' make exogenous, "
                              "'+R(a)' insert, '+x:R(a)' insert exogenous, "
                              "'<R(a)' make endogenous (repeatable; e.g. "
                              "--scenario='-S(a, b); >R(a)')")
    what_if.add_argument("--p", default="1/2",
                         help="uniform probability of each surviving endogenous "
                              "fact in the scenario probabilities (default 1/2)")
    what_if.add_argument("--index", choices=list(INDICES),
                         default=config_defaults["index"],
                         help="value index to combine the conditioned counts with")
    what_if.add_argument("--method", choices=list(ENGINE_BACKENDS),
                         default=config_defaults["method"],
                         help="engine backend of the standing attribution")
    what_if.add_argument("--store-dir", dest="store_dir", default=None,
                         help="directory of the persistent artifact store "
                              "(omitted = in-memory store)")
    what_if.add_argument("--json", action="store_true",
                         help="emit the what-if batch as JSON")
    what_if.set_defaults(handler=_command_what_if)

    serve = subparsers.add_parser(
        "serve",
        help="run the async multi-tenant attribution service over HTTP "
             "(request coalescing, admission control, /stats)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8480,
                       help="port to bind (0 = ephemeral; default: 8480)")
    serve.add_argument("--tenant", default=None,
                       help="pre-register one tenant under this name from "
                            "--database / --exogenous (more tenants via "
                            "POST /v1/tenants)")
    serve.add_argument("--database", "-d", default=None,
                       help="database of the pre-registered tenant (facts file "
                            "or CSV directory)")
    serve.add_argument("--exogenous", "-x", nargs="*", default=[],
                       help="relation names whose facts are exogenous")
    serve.add_argument("--store-dir", dest="store_dir", default=None,
                       help="directory of the shared persistent artifact store "
                            "(omitted = in-memory store)")
    serve.add_argument("--max-inflight", dest="max_inflight", type=int, default=4,
                       help="concurrently running pooled/degraded requests")
    serve.add_argument("--max-queued", dest="max_queued", type=int, default=64,
                       help="pooled requests allowed to wait for a slot before "
                            "capacity 503s start")
    serve.add_argument("--exact-size-limit", dest="exact_size_limit", type=int,
                       default=config_defaults["exact_size_limit"],
                       help="largest |Dn| admitted to exact exponential work "
                            "on hard queries")
    serve.add_argument("--circuit-node-budget", dest="circuit_node_budget",
                       type=int, default=config_defaults["circuit_node_budget"],
                       help="worst-case circuit size still admitted to the "
                            "pooled lane (and enforced at compile time)")
    serve.add_argument("--deadline", dest="default_deadline_s", type=float,
                       default=None,
                       help="default per-request deadline in seconds "
                            "(omitted = none)")
    serve.add_argument("--breaker-failures", dest="breaker_failure_threshold",
                       type=int, default=5,
                       help="consecutive failures on one tenant/lane before "
                            "its circuit breaker opens")
    serve.add_argument("--breaker-reset", dest="breaker_reset_s", type=float,
                       default=30.0,
                       help="seconds an open breaker waits before letting a "
                            "half-open probe through (also the Retry-After "
                            "hint on its 503s)")
    serve.add_argument("--workers", type=int, default=config_defaults["workers"],
                       help="worker processes per exact attribution (1 = serial)")
    serve.add_argument("--index", choices=list(INDICES),
                       default=config_defaults["index"],
                       help="default value index of served attributions "
                            "(requests may override per call)")
    serve.set_defaults(handler=_command_serve)

    count = subparsers.add_parser("count", help="FGMC vector and GMC total of the query")
    _add_common_arguments(count)
    count.add_argument("--method", choices=["auto", "brute", "lineage"], default="auto")
    count.set_defaults(handler=_command_count)

    classify = subparsers.add_parser("classify", help="the Figure 1b dichotomy verdict")
    classify.add_argument("--query", "-q", required=True)
    classify.set_defaults(handler=_command_classify)

    probability = subparsers.add_parser("probability",
                                        help="SPPQE: query probability at a uniform fact probability")
    _add_common_arguments(probability)
    probability.add_argument("--p", default="1/2",
                             help="probability of each endogenous fact (a fraction, default 1/2)")
    probability.add_argument("--method",
                             choices=["auto", "brute", "lineage", "lifted", "circuit"],
                             default="auto",
                             help="PQE backend: circuit evaluates the weighted "
                                  "bottom-up sweep of the compiled lineage "
                                  "(shares artefacts with attribution)")
    probability.set_defaults(handler=_command_probability)

    reduce_parser = subparsers.add_parser(
        "reduce", help="run the Lemma 4.1 reduction: FGMC recovered from an SVC oracle")
    _add_common_arguments(reduce_parser)
    reduce_parser.set_defaults(handler=_command_reduce)

    return parser


def _value_label(index: str) -> str:
    """Column label of a value index ('shapley' keeps the historical name)."""
    return f"{index.capitalize()} value"


def _report_rows(report: AttributionReport, top: "int | None" = None) -> list[dict]:
    ranking = report.ranking if top is None else report.ranking[:top]
    if report.exact:
        label = _value_label(report.index)
        return [{"fact": str(f), label: str(v), "≈": f"{float(v):.4f}"}
                for f, v in ranking]
    return [{"fact": str(f), "estimate": f"{float(v):.4f}",
             "samples": report.n_samples_used}
            for f, v in ranking]


def _print_efficiency(report: AttributionReport) -> None:
    check = report.efficiency
    if check is None:
        return
    print(f"efficiency check: Σ values = {check.total}, "
          f"v(Dn) = {check.grand_coalition_value}, "
          f"{'OK' if check.ok else 'MISMATCH'}")


def _command_attribute(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    pdb = _load_database(args.database, args.exogenous)
    config = EngineConfig(method=args.method, epsilon=args.epsilon, delta=args.delta,
                          n_samples=args.samples, seed=args.seed,
                          on_hard=args.on_hard, exact_size_limit=args.exact_size_limit,
                          workers=args.workers,
                          parallel_threshold=args.parallel_threshold,
                          circuit_node_budget=args.circuit_node_budget,
                          shard=args.shard, index=args.index)
    session = AttributionSession(query, pdb, config)
    report = session.report()
    if args.json:
        print(report.to_json())
        return 0
    print(f"classifier: {report.explanation.verdict}")
    print(f"backend: {report.backend} — {report.explanation.reason}")
    if report.circuit_size is not None:
        print(f"circuit: {report.circuit_size} nodes "
              f"(compiled in {report.circuit_compile_time_s:.4f}s)")
    print(format_table(_report_rows(report, args.top),
                       title=f"Attribution for {query}"))
    _print_efficiency(report)
    null_players = session.null_players()
    if null_players:
        print(f"null players: {', '.join(str(f) for f in sorted(null_players))}")
    shard = ""
    if report.shard_axis is not None:
        shard = f"shard: {report.shard_axis}"
        if report.n_components is not None:
            shard += (f" ({report.n_components} islands, "
                      f"largest {report.largest_component})")
        shard += "   "
    print(f"wall time: {report.wall_time_s:.4f}s   workers: {report.workers_used}   "
          f"{shard}engine cache: {dict(report.cache)}")
    return 0


def _command_shapley(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    pdb = _load_database(args.database, args.exogenous)
    if args.method == "sampled":
        config = EngineConfig(method="sampled", n_samples=args.samples)
    else:
        # Legacy command, legacy semantics: "auto" means the engine's exact
        # rule (circuit, or brute for a query that is not hom-closed), never
        # a Monte-Carlo fallback (dichotomy-aware dispatch lives in
        # `repro attribute`).
        config = EngineConfig(method=args.method, on_hard="exact")
    report = AttributionSession(query, pdb, config).report()
    print(format_table(_report_rows(report), title=f"Shapley values for {query}"))
    return 0


def _command_svc_all(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    pdb = _load_database(args.database, args.exogenous)
    config = EngineConfig(method=args.method, on_hard="exact", workers=args.workers,
                          parallel_threshold=args.parallel_threshold,
                          circuit_node_budget=args.circuit_node_budget,
                          shard=args.shard, index=args.index)
    report = AttributionSession(query, pdb, config).report()
    print(format_table(_report_rows(report),
                       title=f"Batched {report.index.capitalize()} values for {query} "
                             f"(backend: {report.backend}, "
                             f"workers: {report.workers_used})"))
    if report.circuit_size is not None:
        print(f"circuit: {report.circuit_size} nodes "
              f"(compiled in {report.circuit_compile_time_s:.4f}s)")
    _print_efficiency(report)
    return 0


#: Delta-spec prefixes of the ``workspace`` / ``what-if`` commands, in
#: try-order.  One spec syntax everywhere: the table and parser live in
#: :mod:`repro.workspace.workspace`, shared with the HTTP API's
#: ``POST /v1/deltas`` and ``POST /v1/what-if``.
_DELTA_PREFIXES = DELTA_PREFIXES


def _apply_delta(ws: AttributionWorkspace, spec: str) -> str:
    """Apply one ``--delta`` spec to the workspace; return a description."""
    return apply_delta_spec(ws, spec)


def _print_attribution_delta(delta: AttributionDelta,
                             index: str = "shapley") -> None:
    status = "recomputed" if delta.recomputed else "reused cached values"
    route = f" [{delta.refresh_reason}]" if delta.refresh_reason else ""
    print(f"[{delta.name}] {status}{route} — {delta.reason}")
    if delta.maintenance == "incremental" and delta.patch_stats:
        s = delta.patch_stats
        print(f"  incremental patch: {s.get('islands', 0)} islands — "
              f"{s.get('pairs_hits', 0)} pairs hits, "
              f"{s.get('circuit_hits', 0)} circuit hits, "
              f"{s.get('seeded_compiles', 0)} seeded + "
              f"{s.get('fresh_compiles', 0)} fresh compiles, "
              f"{s.get('counting_islands', 0)} counted")
    elif delta.refresh_reason == "patch-fallback" and delta.patch_stats:
        print(f"  patch fallback: {delta.patch_stats.get('fallback', '?')}")
    label = _value_label(index)
    rows = [{"fact": str(f), label: str(v), "≈": f"{float(v):.4f}"}
            for f, v in delta.ranking]
    print(format_table(rows, title=f"Attribution for {delta.query} "
                                   f"(backend: {delta.backend})"))
    if delta.changed_values:
        changes = ", ".join(
            f"{c.fact}: {'∅' if c.old is None else c.old} → "
            f"{'∅' if c.new is None else c.new}"
            for c in delta.changed_values)
        print(f"changed values: {changes}")
    if delta.rank_moves:
        moves = ", ".join(f"{m.fact}: {m.old_rank or '∅'} → {m.new_rank or '∅'}"
                          for m in delta.rank_moves)
        print(f"rank moves: {moves}")
    if delta.new_null_players:
        print("new null players: "
              + ", ".join(str(f) for f in sorted(delta.new_null_players)))
    if delta.dropped_null_players:
        print("dropped null players: "
              + ", ".join(str(f) for f in sorted(delta.dropped_null_players)))


def _command_workspace(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    pdb = _load_database(args.database, args.exogenous)
    store = MemoryStore() if args.store_dir is None else DiskStore(args.store_dir)
    config = EngineConfig(method=args.method, on_hard="exact", index=args.index)
    ws = AttributionWorkspace(pdb, config=config, store=store)
    ws.register("query", query)
    initial = ws.refresh()
    applied = [_apply_delta(ws, spec) for spec in args.delta]
    refresh = ws.refresh() if applied else None
    if args.json:
        import json

        payload = {"initial": initial.to_json_dict(),
                   "deltas": applied,
                   "refresh": None if refresh is None else refresh.to_json_dict(),
                   "store": ws.store_stats()}
        print(json.dumps(payload, indent=2))
        return 0
    _print_attribution_delta(initial["query"], args.index)
    if refresh is not None:
        print()
        print(f"applied deltas: {'; '.join(applied)}")
        _print_attribution_delta(refresh["query"], args.index)
        print(f"refresh wall time: {refresh.wall_time_s:.4f}s")
    print(f"artifact store: {ws.store_stats()}")
    return 0


def _command_what_if(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    pdb = _load_database(args.database, args.exogenous)
    store = MemoryStore() if args.store_dir is None else DiskStore(args.store_dir)
    config = EngineConfig(method=args.method, on_hard="exact", index=args.index)
    ws = AttributionWorkspace(pdb, config=config, store=store)
    ws.register("query", query)
    ws.refresh()
    scenarios = [[part.strip() for part in spec.split(";") if part.strip()]
                 for spec in args.scenario]
    if not scenarios:
        raise ValueError("give at least one --scenario (e.g. --scenario='-R(a)')")
    batch = ws.what_if(scenarios, probability=args.p)
    if args.json:
        print(batch.to_json())
        return 0
    print(f"what-if over {batch.query} — index: {batch.index}, "
          f"p = {batch.endogenous_probability}, "
          f"base Pr(q) = {batch.base_probability} "
          f"(≈ {float(batch.base_probability):.4f})")
    label = _value_label(batch.index)
    for result in batch:
        path = "recompiled" if result.recompiled else "conditioned"
        print()
        print(f"scenario: {result.description}  [{path}]")
        print(f"  satisfiable: {result.satisfiable}   "
              f"Pr(q) = {result.probability} (≈ {float(result.probability):.4f})")
        rows = [{"fact": str(f), label: str(v), "≈": f"{float(v):.4f}"}
                for f, v in result.ranking]
        if rows:
            print(format_table(rows))
        else:
            print("  (no endogenous facts remain)")
    print()
    print(f"wall time: {batch.wall_time_s:.4f}s   "
          f"artifact store: {store.stats()}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    if (args.tenant is None) != (args.database is None):
        raise ValueError("--tenant and --database go together: both or neither")
    store = (MemoryStore() if args.store_dir is None
             else DiskStore(args.store_dir))
    policy = AdmissionPolicy(exact_size_limit=args.exact_size_limit,
                             circuit_node_budget=args.circuit_node_budget,
                             max_inflight=args.max_inflight,
                             max_queued=args.max_queued,
                             default_deadline_s=args.default_deadline_s,
                             breaker_failure_threshold=args.breaker_failure_threshold,
                             breaker_reset_s=args.breaker_reset_s)
    config = EngineConfig(exact_size_limit=args.exact_size_limit,
                          circuit_node_budget=args.circuit_node_budget,
                          workers=args.workers, on_hard="exact",
                          index=args.index)
    with AttributionService(store=store, config=config,
                            policy=policy) as service:
        if args.tenant is not None:
            pdb = _load_database(args.database, args.exogenous)
            service.register_tenant(args.tenant, pdb)
            print(f"tenant {args.tenant!r}: |Dn| = {len(pdb.endogenous)}, "
                  f"|Dx| = {len(pdb.exogenous)}")
        print(f"serving on http://{args.host}:{args.port} "
              "(GET /stats for the metrics surface; Ctrl-C to stop)")
        try:
            asyncio.run(serve_http(service, host=args.host, port=args.port))
        except KeyboardInterrupt:
            print("stopped")
    return 0


def _command_count(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    pdb = _load_database(args.database, args.exogenous)
    vector = fgmc_vector(query, pdb, method=args.method)
    rows = [{"size": k, "generalized supports": count} for k, count in enumerate(vector)]
    print(format_table(rows, title=f"FGMC vector for {query}"))
    print(f"GMC total: {sum(vector)}")
    return 0


def _command_classify(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    verdict = classify_svc(query)
    print(verdict)
    return 0


def _command_probability(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    pdb = _load_database(args.database, args.exogenous)
    p = Fraction(args.p)
    value = sppqe(query, pdb, p, method=args.method)
    print(f"Pr(D |= q) with every endogenous fact at probability {p}: {value} (≈ {float(value):.6f})")
    return 0


def _command_reduce(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    pdb = _load_database(args.database, args.exogenous)
    oracle = CallCounter(exact_svc_oracle("counting"))
    vector = fgmc_via_svc_lemma_4_1(query, pdb, oracle)
    direct = fgmc_vector(query, pdb, method="auto")
    rows = [{"size": k, "via SVC oracle (Lemma 4.1)": via, "direct": straight}
            for k, (via, straight) in enumerate(zip(vector, direct))]
    print(format_table(rows, title=f"FGMC of {query} recovered from an SVC oracle"))
    print(f"oracle calls: {oracle.calls}   exact match: {vector == direct}")
    return 0


def main(argv: "Sequence[str] | None" = None) -> int:
    """Entry point (returns the process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UnsafeQueryError as error:
        print(f"error: {error} (try --method counting or auto)", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError, ReproError) as error:
        # ReproError covers the structured hierarchy (ConfigError,
        # IntractableQueryError, ...); ValueError keeps legacy raises covered.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
