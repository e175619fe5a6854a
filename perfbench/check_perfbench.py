"""The benchmark's own tests (run explicitly; tier-1 does not collect them).

    python -m pytest -q perfbench/check_perfbench.py

* a tiny-size smoke run of every workload, untraced and traced, printing
  exactly the metric names ``BENCHMARK.json`` declares;
* the traced replay is bitwise equal to the untraced op on every route the
  cold workloads take;
* without the library's sources, the run exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(CHECKOUT, "src"), CHECKOUT]

from perfbench import inputs  # noqa: E402
from perfbench.replay import replay_attribution  # noqa: E402
from perfbench.run import WORKLOADS, declared_metrics  # noqa: E402
from perfbench.trace import ROOT, Tracer  # noqa: E402
from perfbench.workloads import bitwise_mismatch  # noqa: E402

with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as _handle:
    PREDICTIONS = json.load(_handle)["metrics"]


def _run(args: "list[str]", cwd: str = CHECKOUT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _tiny(workload: str, trace: int) -> dict:
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny"])
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_prints_the_declared_end_to_end_metrics(workload):
    result = _tiny(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = declared_metrics("end_to_end")
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_prints_the_declared_per_layer_metrics(workload):
    # A traced op whose replay differs from it fails, so ``correct`` also
    # certifies bitwise replay parity on every op of the run.
    result = _tiny(workload, 1)
    assert result["correct"] and result["failed"] == 0
    declared = declared_metrics("per_layer")
    assert set(result["metrics"]) == set(declared)
    assert set(PREDICTIONS) == set(declared)
    for name, metric in result["metrics"].items():
        if name.endswith("_s") and workload in PREDICTIONS[name]["measured_on"]:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("name, make_db, route", [
    ("cold-one-island", lambda rng: inputs.one_island_db(rng, width=5, facts_range=(12, 20)),
     ("circuit", "fact")),
    ("cold-many-islands", lambda rng: inputs.many_islands_db(
        rng, islands=(3, 4), facts_range=(20, 60)), ("circuit", "component")),
    ("brute-negation", lambda rng: inputs.negation_db(rng, endogenous=7),
     ("brute", "fact")),
])
def test_traced_replay_is_bitwise_equal_to_the_untraced_op(name, make_db, route):
    from repro.api import AttributionSession, EngineConfig
    from repro.experiments import q_negation_hard, q_rst

    query = q_negation_hard() if name == "brute-negation" else q_rst()
    pdb = make_db(inputs.op_rng(7, name, 0))
    report = AttributionSession(query, pdb, EngineConfig(on_hard="exact")).report()
    assert (report.backend, report.shard_axis) == route
    tracer = Tracer()
    tracer.op = 0
    with tracer.span(ROOT):
        replayed = replay_attribution(tracer, query, pdb, route)
    assert bitwise_mismatch(replayed, dict(report.ranking)) is None
    self_times = tracer.self_times()[0]
    assert sum(self_times.values()) == pytest.approx(tracer.op_walls()[0])


def test_run_without_the_library_sources_fails_without_a_result():
    bare = os.path.join(CHECKOUT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), bare)
    try:
        done = _run(["--workload", "cold-one-island", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
