"""Programmatic reproduction reports (Table III, Fig. 9, Table IV).

The benchmark harness regenerates every paper table/figure under pytest;
this module exposes the headline ones as plain library calls so a user
(or ``elsa-repro reproduce``) can produce a markdown reproduction report
with one invocation — no test runner involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.checkpoint import CheckpointParams, waste_gain
from repro.columnar import RecordBatch
from repro.core.elsa import ELSA
from repro.datasets.scenarios import Scenario, bluegene_scenario
from repro.prediction.evaluation import (
    EvaluationResult,
    evaluate_predictions,
)
from repro.viz import bar_chart

#: Table IV rows: (C minutes, precision, recall, MTTF minutes, paper %)
TABLE4_ROWS: Tuple[Tuple[float, float, float, float, float], ...] = (
    (1.0, 0.92, 0.20, 1440.0, 9.13),
    (1.0, 0.92, 0.36, 1440.0, 17.33),
    (10 / 60, 0.92, 0.36, 1440.0, 12.09),
    (10 / 60, 0.92, 0.45, 1440.0, 15.63),
    (1.0, 0.92, 0.50, 300.0, 21.74),
    (10 / 60, 0.92, 0.65, 300.0, 24.78),
)

#: The paper's Table III values, for side-by-side rendering.
PAPER_TABLE3 = {
    "hybrid": (0.912, 0.458),
    "signal": (0.881, 0.405),
    "datamining": (0.919, 0.157),
}


@dataclass
class MethodResult:
    """One Table III row: a method's evaluation on the test window."""

    name: str
    result: EvaluationResult
    n_chains: int


def run_methods(
    scenario: Scenario, elsa: Optional[ELSA] = None
) -> List[MethodResult]:
    """Fit (if needed) and evaluate the three Table III methods."""
    records = RecordBatch.from_records(scenario.records)  # once, for all
    if elsa is None:
        elsa = ELSA(scenario.machine)
        elsa.fit(records, t_train_end=scenario.train_end)
    stream = elsa.make_stream(records, scenario.train_end, scenario.t_end)
    methods = {
        "hybrid": elsa.hybrid_predictor(),
        "signal": elsa.signal_predictor(),
        "datamining": elsa.datamining_predictor(records),
    }
    out: List[MethodResult] = []
    for name, predictor in methods.items():
        predictions = predictor.run(stream)
        n_set = len(getattr(predictor, "chains", None) or predictor.rules)
        result = evaluate_predictions(
            predictions,
            scenario.test_faults,
            chains_total=n_set,
            chain_usage=predictor.chain_usage,
            n_too_late=predictor.n_too_late,
        )
        out.append(MethodResult(name=name, result=result, n_chains=n_set))
    return out


def render_table3(methods: List[MethodResult]) -> str:
    """Markdown Table III with the paper's values alongside."""
    lines = [
        "| method | precision | recall | paper P/R | chains used |",
        "|---|---|---|---|---|",
    ]
    for m in methods:
        paper = PAPER_TABLE3.get(m.name)
        paper_s = f"{paper[0]:.1%} / {paper[1]:.1%}" if paper else "—"
        lines.append(
            f"| {m.name} | {m.result.precision:.1%} | {m.result.recall:.1%} "
            f"| {paper_s} | {m.result.chains_used}/{m.n_chains} |"
        )
    return "\n".join(lines)


def render_fig9(result: EvaluationResult) -> str:
    """The recall-per-category breakdown as a terminal bar chart."""
    data = {
        cat: stats.recall
        for cat, stats in sorted(result.per_category.items())
    }
    return bar_chart(data, width=32)


def render_table4() -> str:
    """Markdown Table IV: paper vs the closed-form model."""
    lines = [
        "| C | precision | recall | MTTF | measured gain | paper |",
        "|---|---|---|---|---|---|",
    ]
    for C, P, N, mttf, paper in TABLE4_ROWS:
        params = CheckpointParams(checkpoint_time=C, mttf=mttf)
        gain = 100 * waste_gain(params, N, P)
        c_label = "1 min" if C == 1.0 else "10 s"
        mttf_label = "1 day" if mttf == 1440.0 else "5 h"
        lines.append(
            f"| {c_label} | {P:.0%} | {N:.0%} | {mttf_label} "
            f"| {gain:.2f}% | {paper:.2f}% |"
        )
    return "\n".join(lines)


def histogram_quantile(hist: dict, q: float) -> float:
    """Quantile estimate from a dumped histogram's cumulative buckets.

    ``hist`` is a :class:`repro.obs.metrics.Histogram` ``to_dict``:
    per-bucket ``counts`` (last entry the +inf bucket) over upper-bound
    ``buckets``.  The estimate interpolates linearly inside the bucket
    that crosses rank ``q * count``; the open +inf bucket reports the
    observed ``max`` (the only bound it has).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    bounds = list(hist.get("buckets", ()))
    counts = list(hist.get("counts", ()))
    total = hist.get("count", 0)
    if not total or len(counts) != len(bounds) + 1:
        return float("nan")
    rank = q * total
    cum = 0
    estimate = None
    for i, c in enumerate(counts[:-1]):
        prev = cum
        cum += c
        if cum >= rank:
            lo = bounds[i - 1] if i else min(hist.get("min", 0.0), bounds[0])
            hi = bounds[i]
            frac = (rank - prev) / c if c else 1.0
            estimate = lo + frac * (hi - lo)
            break
    mx = hist.get("max")
    if estimate is None:
        return float(mx) if mx is not None else bounds[-1]
    # interpolation can overshoot the data inside a sparse bucket; the
    # registry tracks the true extremes, so clamp to them.
    if mx is not None:
        estimate = min(estimate, float(mx))
    mn = hist.get("min")
    if mn is not None:
        estimate = max(estimate, float(mn))
    return estimate


def _render_span_dict(
    node: dict, indent: int = 0, t_base: Optional[float] = None
) -> List[str]:
    """One line per span of an exported (JSON) span tree.

    Shows each span's start offset from the root (spans carry wall-clock
    ``t_start``), marks spans still open at export time (``done``
    false — a live ``/state`` snapshot can contain them), and calls out
    watchdog overruns (``deadline_exceeded``, set by the span's soft
    deadline) as an explicit marker instead of burying the flag among
    the attributes.
    """
    node_attrs = dict(node.get("attrs", {}))
    deadline_exceeded = bool(node_attrs.pop("deadline_exceeded", False))
    attrs = " ".join(f"{k}={v}" for k, v in sorted(node_attrs.items()))
    t_start = node.get("t_start")
    if t_base is None and t_start is not None:
        t_base = t_start
    line = (
        "  " * indent
        + f"{node['name']}  {node.get('wall_seconds', 0.0) * 1000:.1f}ms"
    )
    if t_start is not None and t_base is not None:
        line += f"  @+{t_start - t_base:.3f}s"
    if node.get("done") is False:
        line += "  (running)"
    if deadline_exceeded:
        line += "  (deadline exceeded)"
    if attrs:
        line += f"  [{attrs}]"
    lines = [line]
    for child in node.get("children", ()):
        lines.extend(_render_span_dict(child, indent + 1, t_base))
    return lines


def render_observability(state: Dict) -> str:
    """``elsa-repro stats``: an obs dump as metric + stage tables.

    ``state`` is the JSON written by ``--metrics-out`` (or
    :func:`repro.obs.export_state` directly): a metric snapshot plus the
    span forest of the run.
    """
    parts: List[str] = ["## Metrics", ""]
    metrics = state.get("metrics", {})
    if metrics:
        parts += ["| metric | kind | value |", "|---|---|---|"]
        for name, m in sorted(metrics.items()):
            if m.get("kind") == "histogram":
                count = m.get("count", 0)
                mean = (m.get("sum", 0.0) / count) if count else 0.0
                value = (
                    f"n={count} mean={mean:.4g} "
                    f"min={m.get('min')} max={m.get('max')}"
                )
                if count:
                    p50, p90, p99 = (
                        histogram_quantile(m, q) for q in (0.5, 0.9, 0.99)
                    )
                    value += (
                        f" p50={p50:.4g} p90={p90:.4g} p99={p99:.4g}"
                    )
            else:
                value = f"{m.get('value', 0):g}"
            parts.append(f"| {name} | {m.get('kind', '?')} | {value} |")
    else:
        parts.append("(no metrics recorded)")
    spans = state.get("spans", [])
    streams = _collect_spans(spans, "stream")
    if streams:
        parts += ["", "## Throughput", ""]
        total_records = sum(
            int(s.get("attrs", {}).get("records", 0)) for s in streams
        )
        total_wall = sum(float(s.get("wall_seconds", 0.0)) for s in streams)
        if total_wall > 0:
            parts.append(
                f"stream: {total_records} records in {total_wall:.2f}s "
                f"= {total_records / total_wall:,.0f} records/sec"
                + (f" over {len(streams)} calls" if len(streams) > 1 else "")
            )
        else:
            parts.append(f"stream: {total_records} records (no wall time)")
    parts += ["", "## Stage timings", ""]
    if spans:
        parts.append("```")
        for root in spans:
            parts.extend(_render_span_dict(root))
        parts.append("```")
    else:
        parts.append("(no spans recorded)")
    return "\n".join(parts)


def observability_json(state: Dict) -> Dict:
    """``elsa-repro stats --json``: the obs dump as a machine-readable dict.

    Mirrors :func:`render_observability` — same metric snapshot, derived
    histogram quantiles, throughput and span forest — but as plain data
    for scripting (jq, CI gates) instead of markdown tables.
    """
    metrics_out: Dict[str, Dict] = {}
    for name, m in sorted(state.get("metrics", {}).items()):
        entry: Dict = {"kind": m.get("kind", "?")}
        if m.get("kind") == "histogram":
            count = m.get("count", 0)
            entry["count"] = count
            entry["sum"] = m.get("sum", 0.0)
            entry["min"] = m.get("min")
            entry["max"] = m.get("max")
            entry["mean"] = (m.get("sum", 0.0) / count) if count else 0.0
            entry["quantiles"] = {
                str(q): histogram_quantile(m, q) if count else None
                for q in (0.5, 0.9, 0.99)
            }
        else:
            entry["value"] = m.get("value", 0)
        if "series" in m:
            entry["series"] = m["series"]
        metrics_out[name] = entry
    spans = state.get("spans", [])
    streams = _collect_spans(spans, "stream")
    total_records = sum(
        int(s.get("attrs", {}).get("records", 0)) for s in streams
    )
    total_wall = sum(float(s.get("wall_seconds", 0.0)) for s in streams)
    throughput = {
        "records": total_records,
        "wall_seconds": total_wall,
        "records_per_sec": (
            total_records / total_wall if total_wall > 0 else None
        ),
        "calls": len(streams),
    }
    out = {
        "metrics": metrics_out,
        "throughput": throughput,
        "spans": spans,
    }
    if "incidents" in state:
        out["incidents"] = state["incidents"]
    return out


def _collect_spans(roots: List[Dict], name: str) -> List[Dict]:
    """All spans named ``name`` anywhere in a span-dict forest."""
    hits: List[Dict] = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.get("name") == name:
            hits.append(node)
        stack.extend(node.get("children", []))
    return hits


def full_reproduction_report(
    duration_days: float = 7.0, seed: int = 11
) -> str:
    """Markdown report covering Table III, Fig. 9 and Table IV.

    One call, several minutes of compute; the benchmark harness remains
    the exhaustive path (every figure, shape assertions).
    """
    scenario = bluegene_scenario(duration_days=duration_days, seed=seed)
    methods = run_methods(scenario)
    hybrid = next(m for m in methods if m.name == "hybrid")
    parts = [
        "# Reproduction report",
        "",
        f"scenario: {scenario.name}, {duration_days} days, seed {seed}, "
        f"{len(scenario.records)} records, "
        f"{len(scenario.ground_truth)} faults",
        "",
        "## Table III — prediction methods",
        "",
        render_table3(methods),
        "",
        "## Fig. 9 — recall by failure category (hybrid)",
        "",
        "```",
        render_fig9(hybrid.result),
        "```",
        "",
        "## Table IV — checkpoint waste gains (closed form)",
        "",
        render_table4(),
        "",
        "See benchmarks/ for the complete per-figure harness and "
        "EXPERIMENTS.md for the shape contract.",
    ]
    return "\n".join(parts)
