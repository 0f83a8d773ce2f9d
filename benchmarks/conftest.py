"""Shared fixtures for the benchmark/reproduction harness.

Every paper table and figure has one bench module (see DESIGN.md's
experiment index).  The heavyweight artifacts — generated scenarios, the
fitted pipeline, the three methods' prediction runs — are session-scoped
so the whole harness builds them once.

Each bench both *times* a representative computation (pytest-benchmark)
and *renders* the corresponding paper table/figure into
``benchmarks/reports/<name>.txt`` via :func:`save_report`, so the
reproduced numbers survive pytest's stdout capture.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro import ELSA, evaluate_predictions, obs
from repro.datasets import bluegene_scenario, mercury_scenario

REPORT_DIR = Path(__file__).parent / "reports"

#: the perf benches' legacy sides run the scalar oracles in
#: tests/reference/
_REPO_ROOT = str(Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

#: benchmark scenario shape — big enough for stable Table III statistics
BENCH_DAYS = 7.0
BENCH_SEED = 11


def _metrics_delta(before: dict, after: dict) -> dict:
    """What changed in the metrics snapshot during one test.

    Counters report the increase, gauges their final value, histograms
    the added observation count/sum — compact enough to ride along in a
    ``--benchmark-json`` entry.
    """
    delta = {}
    for name, m in after.items():
        prev = before.get(name)
        if m["kind"] == "counter":
            inc = m["value"] - (prev["value"] if prev else 0.0)
            if inc:
                delta[name] = inc
        elif m["kind"] == "gauge":
            if prev is None or m["value"] != prev["value"]:
                delta[name] = m["value"]
        else:  # histogram
            n = m["count"] - (prev["count"] if prev else 0)
            if n:
                s = m["sum"] - (prev["sum"] if prev else 0.0)
                delta[name] = {"count": n, "sum": s, "mean": s / n}
    return delta


def _stage_walls(roots) -> dict:
    """Total wall seconds per stage name across a span forest."""
    totals: dict = {}

    def walk(sp):
        totals[sp.name] = totals.get(sp.name, 0.0) + sp.t_wall
        for child in sp.children:
            walk(child)

    for root in roots:
        walk(root)
    return {name: round(t, 6) for name, t in sorted(totals.items())}


@pytest.fixture(autouse=True)
def obs_benchmark_report(request):
    """Attach the per-test obs delta to the pytest-benchmark entry.

    Future ``BENCH_*.json`` files then carry stage timings and domain
    metrics (records classified, outliers flagged, ...) next to each
    end-to-end number, not just the timed statistic.
    """
    benchmark = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    before_metrics = obs.get_registry().snapshot()
    before_roots = len(obs.span_roots())
    yield
    if benchmark is None:
        return
    roots = obs.span_roots()[before_roots:]
    benchmark.extra_info["metrics"] = _metrics_delta(
        before_metrics, obs.get_registry().snapshot()
    )
    benchmark.extra_info["stage_wall_seconds"] = _stage_walls(roots)


def save_report(name: str, text: str) -> str:
    """Write a rendered table/figure to the reports directory."""
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / f"{name}.txt"
    path.write_text(text)
    print(f"\n[{name}]\n{text}")
    return text


@pytest.fixture(scope="session")
def bg(request):
    """The Blue Gene-like benchmark scenario."""
    return bluegene_scenario(duration_days=BENCH_DAYS, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def mercury():
    """The Mercury-like benchmark scenario (smaller; used for the
    both-systems figures)."""
    return mercury_scenario(duration_days=5.0, seed=3)


@pytest.fixture(scope="session")
def elsa_bg(bg):
    """Fitted pipeline on the Blue Gene scenario."""
    pipeline = ELSA(bg.machine)
    pipeline.fit(bg.records, t_train_end=bg.train_end)
    return pipeline


@pytest.fixture(scope="session")
def elsa_mercury(mercury):
    """Fitted pipeline on the Mercury scenario."""
    pipeline = ELSA(mercury.machine)
    pipeline.fit(mercury.records, t_train_end=mercury.train_end)
    return pipeline


@pytest.fixture(scope="session")
def stream_bg(bg, elsa_bg):
    """Classified test stream of the Blue Gene scenario."""
    return elsa_bg.make_stream(bg.records, bg.train_end, bg.t_end)


@pytest.fixture(scope="session")
def method_runs(bg, elsa_bg, stream_bg):
    """All three methods' predictions + evaluations (Table III inputs).

    Returns ``{name: (predictor, predictions, result, result_no_location)}``.
    """
    out = {}
    methods = {
        "hybrid": elsa_bg.hybrid_predictor(),
        "signal": elsa_bg.signal_predictor(),
        "datamining": elsa_bg.datamining_predictor(bg.records),
    }
    for name, predictor in methods.items():
        predictions = predictor.run(stream_bg)
        n_set = len(getattr(predictor, "chains", None) or predictor.rules)
        result = evaluate_predictions(
            predictions,
            bg.test_faults,
            chains_total=n_set,
            chain_usage=predictor.chain_usage,
            n_too_late=predictor.n_too_late,
        )
        no_loc = evaluate_predictions(
            predictions, bg.test_faults, check_locations=False
        )
        out[name] = (predictor, predictions, result, no_loc)
    return out
