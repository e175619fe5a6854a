#!/usr/bin/env python3
"""Quickstart for the stable API: one AttributionSession, the dichotomy decides.

The paper's message is that the *query* determines which SVC algorithm is
admissible (Figure 1b).  The session encodes that: you hand it a query and a
partitioned database, it classifies the query and routes to the compiled
lineage circuit, brute force or Monte-Carlo sampling — and tells you why.

This script walks through the three regimes:

1. an FP query (hierarchical)  → the circuit backend (polynomial-size here;
   the safe plan is its node-budget fallback),
2. a #P-hard query on a small instance → exact exponential backend,
3. the same hard query with a tight size budget → Monte-Carlo fallback with an
   (ε, δ) guarantee, chosen automatically,
4. the same exact computation sharded across worker processes — the report's
   ``workers_used`` shows what actually ran (1 when the engine fell back to
   the serial path, e.g. below ``parallel_threshold``).

Run with:  python examples/session_quickstart.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import (  # noqa: E402
    AttributionSession,
    EngineConfig,
    atom,
    bipartite_rst_database,
    cq,
    fact,
    partition_by_relation,
    var,
)
from repro.experiments import format_table  # noqa: E402


def show(title: str, session: AttributionSession) -> None:
    report = session.report()
    print(f"--- {title} ---")
    print(f"classifier : {report.explanation.verdict}")
    print(f"backend    : {report.backend} — {report.explanation.reason}")
    rows = [{"fact": str(f), "value": str(v), "≈": f"{float(v):.4f}"}
            for f, v in report.ranking]
    print(format_table(rows))
    if report.efficiency is not None:
        print(f"efficiency : Σ = {report.efficiency.total}, "
              f"v(Dn) = {report.efficiency.grand_coalition_value}, "
              f"{'OK' if report.efficiency.ok else 'MISMATCH'}")
    print()


def main() -> None:
    x, y = var("x"), var("y")
    q_rst = cq(atom("R", x), atom("S", x, y), atom("T", y), name="q_RST")
    q_hier = cq(atom("R", x), atom("S", x, y), name="q_hier")

    database = bipartite_rst_database(n_left=3, n_right=3, edge_probability=0.6, seed=7)
    database = database - {fact("R", "l2"), fact("T", "r2")}
    pdb = partition_by_relation(database, exogenous_relations=("R", "T"))
    print(f"Database: {len(pdb.endogenous)} endogenous S facts, "
          f"{len(pdb.exogenous)} exogenous R/T facts\n")

    # 1. FP side: polynomial exact work, on the compiled-lineage circuit.
    show("q_hier (FP side)", AttributionSession(q_hier, pdb))

    # 2. Hard side, small instance: exact exponential backends are fine.
    session = AttributionSession(q_rst, pdb)
    show("q_RST (hard, small instance)", session)
    best_fact, best_value = session.max()
    print(f"most responsible fact: {best_fact} (Shapley value {best_value})")
    print(f"null players: {[str(f) for f in sorted(session.null_players())] or 'none'}\n")

    # 3. Hard side, tight size budget: Monte-Carlo without naming a method.
    config = EngineConfig(exact_size_limit=2, epsilon=0.1, delta=0.05, seed=0)
    show("q_RST (hard, sampling fallback)", AttributionSession(q_rst, pdb, config))

    # 4. Parallel attribution: same values, sharded across worker processes.
    #    Exact parity with the serial engine is guaranteed — workers run the
    #    identical per-fact kernels on the same shared artefact; only the
    #    wall-clock changes.  The default parallel_threshold would keep a demo
    #    instance this small on the serial path, so we lower it to 2 here to
    #    force the pool; workers_used always records what actually ran.
    parallel_config = EngineConfig(method="brute", workers=4, parallel_threshold=2)
    parallel_session = AttributionSession(q_rst, pdb, parallel_config)
    report = parallel_session.report()
    serial_values = AttributionSession(q_rst, pdb, EngineConfig(method="brute")).values()
    print("--- q_RST (process-parallel brute backend) ---")
    print(f"workers used : {report.workers_used}")
    print(f"parity       : {parallel_session.values() == serial_values}")
    print(f"wall time    : {report.wall_time_s:.4f}s\n")

    # Every report serialises for services and dashboards:
    print("JSON preview:",
          AttributionSession(q_rst, pdb).report().to_json(indent=None)[:120], "...")


if __name__ == "__main__":
    main()
