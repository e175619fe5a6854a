"""Benchmarks of the ``repro.api`` attribution session (the stable surface).

Two questions matter for the façade: (1) how much overhead the session layer
(classification, dispatch, typed reports) adds over calling the engine
directly — it must stay negligible against the value computation — and (2) how
the three dispatch regimes (FP → compiled circuit, hard-small → exact
circuit, hard-large → Monte-Carlo) scale.  CI writes the timings to
``BENCH_session.json`` so the perf trajectory of the API accumulates
release over release.
"""

import pytest

from repro.api import AttributionSession, EngineConfig
from repro.counting import clear_caches
from repro.data import var
from repro.engine import SVCEngine, clear_engine_cache
from repro.experiments import bipartite_attribution_instance, q_hierarchical, q_rst

X, Y = var("x"), var("y")
QUERY_HARD = q_rst()
QUERY_FP = q_hierarchical()
PDB = bipartite_attribution_instance(2, 5, exogenous_pad=10)


def _fresh_session(query, pdb, **config) -> AttributionSession:
    clear_caches()
    clear_engine_cache()
    return AttributionSession(query, pdb, EngineConfig(**config))


def test_session_matches_engine_exactly():
    """Dispatch must be a façade: identical values to the engine it wraps."""
    session_values = _fresh_session(QUERY_HARD, PDB).values()
    engine_values = SVCEngine(QUERY_HARD, PDB, method="counting").all_values()
    assert session_values == engine_values


@pytest.mark.benchmark(group="session-dispatch")
def test_bench_session_fp_backend(benchmark):
    def run():
        return _fresh_session(QUERY_FP, PDB).report()

    report = benchmark(run)
    assert report.backend == "circuit"  # the safe plan is the budget fallback


@pytest.mark.benchmark(group="session-dispatch")
def test_bench_session_hard_exact_backend(benchmark):
    def run():
        return _fresh_session(QUERY_HARD, PDB).report()

    report = benchmark(run)
    assert report.backend == "circuit"  # auto prefers the compiled lineage
    assert report.efficiency.ok


@pytest.mark.benchmark(group="session-dispatch")
def test_bench_session_hard_sampled_backend(benchmark):
    def run():
        return _fresh_session(QUERY_HARD, PDB, exact_size_limit=1,
                              n_samples=128).report()

    report = benchmark(run)
    assert report.backend == "sampled"


@pytest.mark.benchmark(group="session-overhead")
def test_bench_engine_direct_baseline(benchmark):
    """The engine alone — the baseline the session overhead is measured against."""

    def run():
        clear_caches()
        clear_engine_cache()
        return SVCEngine(QUERY_HARD, PDB, method="counting").all_values()

    values = benchmark(run)
    assert len(values) == len(PDB.endogenous)


@pytest.mark.benchmark(group="session-overhead")
def test_bench_session_values_over_engine(benchmark):
    """The same workload through the session: dispatch + classification on top."""

    def run():
        return _fresh_session(QUERY_HARD, PDB, on_hard="exact").values()

    values = benchmark(run)
    assert len(values) == len(PDB.endogenous)
