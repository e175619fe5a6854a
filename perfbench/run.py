"""Seeded, layer-traced benchmark of the exact Shapley-value stack.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-one-island --seed 1 --seconds 25 --trace 0

One run generates its inputs from ``--seed``, runs the workload's closed loop
(one client) for ``--seconds``, checks every output, and prints as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` every op is additionally replayed
layer by layer under spans (see ``perfbench/replay.py``) and the metrics are
the per-layer ones.  The spans are written once, at the end, to
``.perfbench_out/`` in the checkout.

The library is imported from the checkout's own ``src/``; without it the
run exits with a non-zero code before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
OUT = os.path.join(CHECKOUT, ".perfbench_out")

WORKLOADS = ("cold-one-island", "cold-many-islands", "tenant-stream", "brute-negation")
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Iterations of the reference loop (a few milliseconds of pure Python).
REFERENCE_LOOPS = 40_000

#: Per-layer span names reported as ``<name>_s`` (median self time per op).
LAYER_SPANS = (
    "compile.derivative_sweep", "compile.count_sweep", "compile.compile",
    "engine.recombine", "values.combine", "counting.lineage", "engine.decompose",
    "analysis.classify", "engine.brute_table", "engine.brute_read",
    "incremental.maintain", "incremental.patch", "compile.condition",
)
#: Per-layer work counters reported as medians per op.
LAYER_COUNTS = ("compile.nodes", "values.facts", "counting.clauses",
                "engine.islands", "queries.evaluations")

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import repro\n"
    "print(time.perf_counter() - start)\n"
)


def declared_metrics(kind: str) -> "dict[str, str]":
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics declared
    in the checkout's ``BENCHMARK.json``."""
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _import_library():
    """Import ``repro`` from the checkout's ``src/``, or exit with code 1."""
    sys.path[:0] = [SRC, CHECKOUT]
    try:
        import repro
    except ImportError as error:
        sys.exit(f"perfbench: cannot import the library from {SRC}: {error}")
    origin = os.path.realpath(os.path.dirname(repro.__file__))
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"perfbench: repro was imported from {origin}, not {SRC}")


def _import_seconds() -> float:
    """Seconds a fresh interpreter takes to ``import repro`` from ``src/``."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                           capture_output=True, text=True, timeout=120,
                           check=True, cwd=CHECKOUT)
    return float(probe.stdout.strip().splitlines()[-1])


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop that runs no library code.

    The host's speed drifts by up to 2x over minutes (a fixed loop measured
    35-65 ms within one minute on the 2-core machine this benchmark was
    tuned on), so seconds per op do not repeat across runs.  Each op's
    latency is divided by the mean of the reference timings taken just
    before and just after it: a slower library raises the ratio, a slower
    host raises both terms.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += (i * i) % 7
    return time.perf_counter() - start


def make_workload(name: str, seed: int, tiny: bool):
    from perfbench.tenant import TenantStream
    from perfbench.workloads import make_cold

    if name == "tenant-stream":
        return TenantStream(seed, tiny)
    return make_cold(name, seed, tiny)


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    from perfbench.trace import ROOT, Tracer

    workload = make_workload(workload_name, seed, tiny)
    tracer = Tracer() if trace else None
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        import_s = statistics.median(_import_seconds() for _ in range(SETUP_REPEATS))
        if trace and hasattr(workload, "start_trace"):
            workload.start_trace(tracer)

        outcomes = []
        routes: "dict[str, Counter]" = defaultdict(Counter)
        problems: "list[str]" = []
        references = [reference_seconds()]
        deadline = time.perf_counter() + seconds
        k = 0
        while not outcomes or time.perf_counter() < deadline:
            outcome = workload.op(k)
            references.append(reference_seconds())
            if trace and outcome.error is None:
                tracer.op = k
                try:
                    with tracer.span(ROOT):
                        mismatch = workload.replay(tracer, outcome)
                except Exception as error:  # a replay that breaks fails its op
                    mismatch = f"{type(error).__name__}: {error}"
                if mismatch:
                    outcome.error = f"traced replay differs: {mismatch}"
            outcomes.append(outcome)
            for key, value in outcome.route.items():
                routes[key][str(value)] += 1
            if outcome.error:
                problems.append(f"op {k}: {outcome.error}")
            k += 1
        # Peak memory of the measured ops, before the parity check adds its own.
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        parity = workload.parity()
        if parity:
            problems.append(f"parity: {parity}")
        extra = workload.layer_metrics()
    finally:
        workload.close()

    failed = sum(1 for o in outcomes if o.error)
    latencies = [o.latency_s for o in outcomes]
    # Op latency in units of the reference loop timed around it.
    relative = [latency * 2 / (before + after) for latency, before, after
                in zip(latencies, references, references[1:])]
    raw = {"op_p50_s": statistics.median(latencies),
           "ops_per_s": len(latencies) / sum(latencies),
           "reference_s": statistics.median(references)}
    print("routes " + json.dumps({k: dict(v) for k, v in sorted(routes.items())},
                                 sort_keys=True))
    for problem in problems[:10]:
        print("problem " + problem)
    if not trace:
        declared = declared_metrics("end_to_end")
        values = {
            "setup_s": statistics.median(setups) + import_s,
            "op_p50_ref": statistics.median(relative),
            "ops_per_kref": 1000 * len(relative) / sum(relative),
            "peak_rss_mib": peak_rss_mib,
        }
    else:
        declared = declared_metrics("per_layer")
        # Layers a workload never enters (the brute table on a circuit
        # workload, the patcher on a cold one) read 0.
        values = _layer_metrics(tracer, outcomes, {**extra, **raw})
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{workload_name}-seed{seed}.jsonl"))
    return {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in declared.items()},
    }


def _layer_metrics(tracer, outcomes, extra: dict) -> dict:
    """Per-layer values of a traced run: medians per replayed op.

    Layers an op never entered count as 0 for it; ``extra`` carries the
    workload's own per-layer values (the tenant-only ones).
    """
    from perfbench.trace import ROOT

    self_times = tracer.self_times()
    walls = tracer.op_walls()
    ops = sorted(walls)
    values = dict(extra)
    for name in LAYER_SPANS:
        values[f"{name}_s"] = statistics.median(
            [self_times[op].get(name, 0.0) for op in ops] or [0.0])
    for name in LAYER_COUNTS:
        values[name] = statistics.median(
            [tracer.counts[op].get(name, 0) for op in ops] or [0])
    layer_total = sum(t for op in ops for name, t in self_times[op].items()
                      if name != ROOT)
    traced = sum(walls[op] for op in ops)
    untraced = sum(outcomes[op].latency_s for op in ops)
    values["trace.coverage"] = layer_total / traced if traced else 0.0
    values["trace.overhead"] = traced / untraced - 1 if untraced else 0.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke tests only)")
    args = parser.parse_args(argv)
    _import_library()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
