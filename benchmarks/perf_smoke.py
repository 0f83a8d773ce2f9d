"""End-to-end streaming throughput smoke test with a regression gate.

Measures the full online path — classify, feed, finish — over the
scaled BlueGene scenario, on both the fast side (the product: indexed
matcher, detector bank, batched feed) and the legacy side (the scalar
oracles in ``tests/reference/``: linear template scan, record-at-a-time
feed, per-anchor scalar detectors), verifies the two emit
byte-identical predictions, and writes ``BENCH_streaming.json`` with
records/sec and per-record latency percentiles.

The CI gate (``--check``) compares the *fast-vs-legacy speedup ratio*
against the committed baseline rather than absolute records/sec, so the
check is independent of runner speed: a >30% drop in the ratio means the
fast path itself regressed, not the machine.  Refresh the committed
numbers with ``--update-baseline`` after an intentional change.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py             # measure
    PYTHONPATH=src python benchmarks/perf_smoke.py --check     # CI gate
    PYTHONPATH=src python benchmarks/perf_smoke.py --update-baseline
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

#: the legacy side runs the scalar oracles in tests/reference/
REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

#: committed reference numbers (versioned with the code)
BASELINE_PATH = Path(__file__).parent / "BENCH_streaming.json"
#: fresh measurements land next to the other benchmark reports
REPORT_PATH = Path(__file__).parent / "reports" / "BENCH_streaming.json"

#: pre-PR scalar pipeline on the same scenario (best of 3, measured on
#: the commit before the fast path landed) — kept for the speedup story
PRE_PR_RECORDS_PER_SEC = 58_979.0

#: the gate: fail when the fast/legacy ratio drops below 70% of baseline
MAX_RATIO_REGRESSION = 0.30

#: the columnar gate: parse→predict on RecordBatches must stay at least
#: this much faster than the same pipeline over record objects (a
#: machine-independent ratio, like the fast/legacy gate).  The object
#: side of this ratio shares the vectorized bank and chain-prefix
#: kernels — only the parse/classify/handoff layout differs — which is
#: why the floor is well under the ~3x the columnar path shows against
#: the pre-columnar fast path (see PRE_PR_E2E_RECORDS_PER_SEC)
COLUMNAR_MIN_SPEEDUP = 1.25

#: pre-columnar fast path, parse→predict end to end on the same lines
#: (best of 3, measured on the commit before RecordBatch landed)
PRE_PR_E2E_RECORDS_PER_SEC = 114_000.0

#: the profiler gate: sampling the stage profiler during the fast-path
#: run may cost at most 5% throughput (extra_info.profiler in the report)
PROFILER_MAX_OVERHEAD = 1.05
#: and must attribute at least 90% of sampled wall time to stages
PROFILER_MIN_ATTRIBUTED = 0.90
#: attribution is a fraction — don't gate it on a handful of samples
PROFILER_MIN_SAMPLES = 50

CHUNK = 4096


def _scenario():
    from repro.core.elsa import ELSA
    from repro.datasets.scenarios import bluegene_scenario

    sc = bluegene_scenario(
        duration_days=1.5,
        seed=42,
        train_fraction=0.4,
        fault_rate_scale=1.5,
        base_rate_per_sec=0.25,
    )
    elsa = ELSA(sc.machine)
    elsa.fit(sc.records, t_train_end=sc.train_end)
    test = [r for r in sc.records if r.timestamp >= sc.train_end]
    return sc, elsa, test


def _peak_rss_mb():
    """Process peak RSS in MB (ru_maxrss is KiB on Linux)."""
    import resource

    return round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
    )


def _weighted_percentile(values, weights, q):
    """Percentile of per-chunk values weighted by records per chunk.

    Feed latency is measured per *chunk* and amortized to µs/record;
    a plain percentile over those values overweights the ragged tail
    chunk (its fixed per-chunk costs amortize over far fewer records,
    which is what produced the phantom 12.8 µs p99).  Weighting each
    chunk by its record count makes the percentile answer the question
    the metric claims to: "what did the p99 *record* pay?"
    """
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    order = np.argsort(values)
    values, weights = values[order], weights[order]
    cum = np.cumsum(weights)
    return float(values[np.searchsorted(cum, q / 100.0 * cum[-1])])


def _run_once(sc, elsa, test, fast, spans=False):
    """One classify+feed+finish pass; per-chunk feed latencies in µs.

    ``fast=True`` is the product, which columnarizes the records once
    (inside the timed region, in the classify stage).  ``fast=False``
    runs the scalar oracles over the record objects instead: a
    linear-scan classify, the record-at-a-time feed loop and per-anchor
    scalar detectors.  ``spans=True`` wraps the stages in the same
    transient spans the streaming engine uses, so the sampling profiler
    has stacks to attribute (the overhead measurement runs both sides
    with spans on, isolating the profiler thread's own cost).
    """
    from repro import obs
    from repro.columnar import RecordBatch
    from repro.helo.online import OnlineHELO
    from tests.reference.engines import feed_scalar, scalar_engine
    from tests.reference.matching import classify_linear

    helo_state = elsa._online_helo.state_dict()
    if fast:
        pred = elsa.streaming_predictor(t_start=sc.train_end, t_end=sc.t_end)
        feed = pred.feed
    else:
        pred = scalar_engine(elsa, sc.train_end, sc.t_end)
        feed = functools.partial(feed_scalar, pred)

    def classify():
        if fast:
            batch = RecordBatch.from_records(test)
            return batch, elsa.classify(batch)
        return test, classify_linear(elsa, test)

    chunk_us = []
    t0 = time.perf_counter()
    if spans:
        with obs.span("classify", transient=True):
            records, ids = classify()
        for a in range(0, len(records), CHUNK):
            c0 = time.perf_counter()
            with obs.span("feed", transient=True):
                feed(records[a:a + CHUNK], ids[a:a + CHUNK])
            chunk_us.append(
                (time.perf_counter() - c0) * 1e6
                / len(records[a:a + CHUNK])
            )
        with obs.span("finish", transient=True):
            predictions = pred.finish()
    else:
        records, ids = classify()
        for a in range(0, len(records), CHUNK):
            c0 = time.perf_counter()
            feed(records[a:a + CHUNK], ids[a:a + CHUNK])
            chunk_us.append(
                (time.perf_counter() - c0) * 1e6
                / len(records[a:a + CHUNK])
            )
        predictions = pred.finish()
    elapsed = time.perf_counter() - t0
    elsa._online_helo = OnlineHELO.from_state(helo_state)
    return elapsed, chunk_us, predictions


def measure_profiler_overhead(sc, elsa, test, trials=3):
    """Fast path with spans, profiler off vs on: the ≤5% overhead claim.

    Both sides run the transient-span instrumentation (the production
    streaming path always does), so the ratio isolates what the sampling
    thread itself costs.  Best-of-``trials`` on each side damps runner
    noise, and the sides alternate trial by trial (the profiler samples
    only the "on" runs), so a slow spell of the host cannot land on one
    side alone.
    """
    from repro import obs

    n = len(test)
    best_off = best_on = float("inf")
    profiler = obs.StageProfiler()
    for _ in range(trials):
        elapsed, _, _ = _run_once(sc, elsa, test, fast=True, spans=True)
        best_off = min(best_off, elapsed)
        with profiler:
            elapsed, _, _ = _run_once(sc, elsa, test, fast=True, spans=True)
        best_on = min(best_on, elapsed)
    stats = profiler.stats()
    return {
        "records_per_sec_without": round(n / best_off, 1),
        "records_per_sec_with": round(n / best_on, 1),
        "overhead_ratio": round(best_on / best_off, 4),
        "interval_seconds": profiler.interval,
        "samples": stats["samples"],
        "attributed_fraction": (
            round(stats["attributed_fraction"], 4)
            if stats["attributed_fraction"] is not None else None
        ),
        "top_stages": [
            {"stage": r["stage"],
             "self_seconds": round(r["self_seconds"], 3)}
            for r in profiler.top_stages(4)
        ],
    }


def _e2e_once(sc, elsa, lines, columnar):
    """One parse→classify→feed→finish pass over serialized log lines.

    ``columnar=True`` runs the RecordBatch pipeline (batch tokenizer,
    columnar classify, batched feed); ``columnar=False`` parses record
    objects one line at a time and columnarizes them once before the
    same engine — the pre-columnar shape of the parse, and the
    denominator of the end-to-end speedup gate.
    """
    from repro.columnar import RecordBatch
    from repro.helo.online import OnlineHELO

    helo_state = elsa._online_helo.state_dict()
    pred = elsa.streaming_predictor(t_start=sc.train_end, t_end=sc.t_end)
    t0 = time.perf_counter()
    if columnar:
        from repro.helo.batch import parse_lines_batch

        records = parse_lines_batch(lines)
    else:
        from repro.simulation.trace import parse_log_line

        records = RecordBatch.from_records(
            [parse_log_line(ln) for ln in lines]
        )
    ids = elsa.classify(records)
    for a in range(0, len(records), CHUNK):
        pred.feed(records[a:a + CHUNK], ids[a:a + CHUNK])
    predictions = pred.finish()
    elapsed = time.perf_counter() - t0
    elsa._online_helo = OnlineHELO.from_state(helo_state)
    return elapsed, predictions


def measure_columnar(sc, elsa, test, trials=3) -> dict:
    """End-to-end parse→predict: RecordBatch pipeline vs record objects.

    Both sides consume the *same* serialized text lines (what a real
    ingest sees), so parsing is inside the measurement — the columnar
    claim is about the whole path, not just the feed.  The gate rides
    the speedup ratio (machine-independent) and the byte-identity of
    the two prediction streams.
    """
    lines = [r.format_line() for r in test]
    n = len(lines)
    best = {"columnar": float("inf"), "object": float("inf")}
    preds = {}
    # the sides alternate trial by trial, as in :func:`measure`
    for _ in range(trials):
        for label, columnar in (("columnar", True), ("object", False)):
            elapsed, p = _e2e_once(sc, elsa, lines, columnar)
            best[label] = min(best[label], elapsed)
            preds[label] = p
    identical = (
        [p.to_dict() for p in preds["columnar"]]
        == [p.to_dict() for p in preds["object"]]
    )
    if not identical:
        raise SystemExit(
            "FAIL: columnar and object parse→predict paths emitted "
            "different predictions"
        )
    col_rps = n / best["columnar"]
    obj_rps = n / best["object"]
    return {
        "records": n,
        "predictions": len(preds["columnar"]),
        "end_to_end_records_per_sec": round(col_rps, 1),
        "end_to_end_us_per_record": round(best["columnar"] / n * 1e6, 3),
        "object_path_records_per_sec": round(obj_rps, 1),
        "speedup_vs_object_path": round(col_rps / obj_rps, 3),
        "pre_pr_fast_path_records_per_sec": PRE_PR_E2E_RECORDS_PER_SEC,
        "speedup_vs_pre_pr_fast_path": round(
            col_rps / PRE_PR_E2E_RECORDS_PER_SEC, 2
        ),
        "predictions_identical": identical,
    }


def measure(trials: int = 3) -> dict:
    sc, elsa, test = _scenario()
    n = len(test)
    out = {}
    preds = {}
    # per-chunk record counts, for record-weighted latency percentiles
    lens = [len(test[a:a + CHUNK]) for a in range(0, n, CHUNK)]
    sides = (("fast", True), ("legacy", False))
    best = {label: float("inf") for label, _ in sides}
    all_chunk_us = {label: [] for label, _ in sides}
    # the sides alternate trial by trial, so a slow spell of the host
    # lands on both rather than on every trial of one side
    for _ in range(trials):
        for label, fast in sides:
            elapsed, chunk_us, p = _run_once(sc, elsa, test, fast)
            best[label] = min(best[label], elapsed)
            all_chunk_us[label].extend(chunk_us)
            preds[label] = p
    weights = lens * trials
    for label, _ in sides:
        out[label] = {
            "records_per_sec": round(n / best[label], 1),
            "us_per_record": round(best[label] / n * 1e6, 3),
            "feed_us_per_record_p50": round(
                _weighted_percentile(all_chunk_us[label], weights, 50), 3
            ),
            "feed_us_per_record_p99": round(
                _weighted_percentile(all_chunk_us[label], weights, 99), 3
            ),
            "best_seconds": round(best[label], 4),
        }
    identical = json.dumps([p.to_dict() for p in preds["fast"]]) == (
        json.dumps([p.to_dict() for p in preds["legacy"]])
    )
    if not identical:
        raise SystemExit(
            "FAIL: fast and legacy paths emitted different predictions"
        )
    fast_rps = out["fast"]["records_per_sec"]
    columnar_info = measure_columnar(sc, elsa, test, trials=trials)
    profiler_info = measure_profiler_overhead(sc, elsa, test, trials=trials)
    return {
        "scenario": {
            "name": "bluegene-1.5d",
            "records": n,
            "predictions": len(preds["fast"]),
            "trials": trials,
            "chunk": CHUNK,
        },
        "fast": out["fast"],
        "legacy": out["legacy"],
        "predictions_identical": identical,
        "speedup_fast_vs_legacy": round(
            fast_rps / out["legacy"]["records_per_sec"], 3
        ),
        "columnar": columnar_info,
        "pre_pr_baseline": {
            "records_per_sec": PRE_PR_RECORDS_PER_SEC,
            "note": "scalar pipeline before the fast path landed, "
                    "same scenario, best of 3",
        },
        "speedup_vs_pre_pr": round(fast_rps / PRE_PR_RECORDS_PER_SEC, 2),
        "latency_metric_note": (
            "feed_us_per_record_* are per-chunk feed times amortized to "
            "µs/record, percentiled with each chunk weighted by its "
            "record count — an unweighted percentile overweights the "
            "ragged tail chunk and reports a phantom p99"
        ),
        "extra_info": {
            "profiler": profiler_info,
            "peak_rss_mb": _peak_rss_mb(),
        },
    }


def measure_fleet(trials: int = 3, shards: int = 8) -> dict:
    """Fleet throughput on the same scenario: 8 hashed shards, one pump.

    The interesting number is the *throughput ratio* against the
    single-stream fast path on identical input: the fleet adds routing,
    bounded queues, per-shard chunking and supervision ticks, and that
    overhead — not absolute records/sec — is what the gate rides on.
    Per-tenant outputs are also checked against a standalone run so the
    benchmark doubles as a byte-identity smoke.
    """
    import tempfile

    from repro import obs
    from repro.columnar import RecordBatch
    from repro.fleet import Fleet, FleetPolicy, hashed_tenant_key
    from repro.resilience.checkpoint import ResumableRun

    sc, elsa, test = _scenario()
    n = len(test)
    key = hashed_tenant_key(shards)
    tenants = sorted({key(r.location) for r in test})
    policy = FleetPolicy(chunk_records=CHUNK, checkpoint_every=4 * CHUNK)

    # single-stream reference on the identical record set
    best_single = float("inf")
    for _ in range(trials):
        elapsed, _, single_preds = _run_once(sc, elsa, test, fast=True)
        best_single = min(best_single, elapsed)

    # fleet over record objects (``Fleet.run`` columnarizes them once)
    # vs over one RecordBatch (segments travel router → queue → feed
    # intact): the cost of columnarizing at the entry point
    test_batch = RecordBatch.from_records(test)
    best_by_mode = {"object": float("inf"), "batch": float("inf")}
    fleet_out = None
    # modes interleave within each trial so slow drift in machine load
    # cancels out of the handoff ratio instead of biasing one side
    for _ in range(trials):
        for mode, stream in (("object", test), ("batch", test_batch)):
            obs.reset()
            with tempfile.TemporaryDirectory() as ckpt_dir:
                fleet = Fleet.build(
                    elsa, tenants, sc.train_end, sc.t_end, key, ckpt_dir,
                    policy=policy,
                )
                t0 = time.perf_counter()
                out = fleet.run(stream)
                elapsed = time.perf_counter() - t0
                fleet.close()
            if elapsed < best_by_mode[mode]:
                best_by_mode[mode] = elapsed
                if mode == "batch":
                    fleet_out = out
    best_fleet = best_by_mode["batch"]

    # byte-identity smoke: each tenant == a standalone run on its slice
    identical = True
    for tenant in tenants:
        sub = [r for r in test if key(r.location) == tenant]
        run = ResumableRun(elsa, sc.train_end, sc.t_end)
        run.history = None
        run.slo = None
        for a in range(0, len(sub), CHUNK):
            run.feed_chunk(sub[a:a + CHUNK])
        expect = run.finish()
        got = fleet_out[tenant]
        if ([p.to_dict() for p in got] != [p.to_dict() for p in expect]):
            identical = False
    if not identical:
        raise SystemExit(
            "FAIL: fleet tenants diverged from standalone runs"
        )

    single_rps = n / best_single
    fleet_rps = n / best_fleet
    object_rps = n / best_by_mode["object"]
    return {
        "scenario": {
            "name": "bluegene-1.5d",
            "records": n,
            "shards": shards,
            "tenants": len(tenants),
            "trials": trials,
            "chunk": CHUNK,
        },
        "records_per_sec": round(fleet_rps, 1),
        "object_handoff_records_per_sec": round(object_rps, 1),
        "batch_handoff_speedup": round(fleet_rps / object_rps, 3),
        "single_stream_records_per_sec": round(single_rps, 1),
        "throughput_ratio_vs_single": round(fleet_rps / single_rps, 3),
        "predictions": sum(len(p) for p in fleet_out.values()),
        "tenants_identical_to_standalone": identical,
    }


def check_fleet(result: dict) -> int:
    """Fleet-overhead gate: the throughput ratio rides the same 30%."""
    if not BASELINE_PATH.exists():
        print(f"no committed baseline at {BASELINE_PATH}; skipping gate")
        return 0
    baseline = json.loads(BASELINE_PATH.read_text()).get("fleet")
    if not baseline:
        print("no committed fleet baseline; skipping gate")
        return 0
    base_ratio = baseline["throughput_ratio_vs_single"]
    cur_ratio = result["throughput_ratio_vs_single"]
    floor = base_ratio * (1.0 - MAX_RATIO_REGRESSION)
    print(
        f"fleet/single throughput: current {cur_ratio:.3f}x, "
        f"baseline {base_ratio:.3f}x, floor {floor:.3f}x"
    )
    if cur_ratio < floor:
        print(
            f"FAIL: fleet overhead grew more than "
            f"{MAX_RATIO_REGRESSION:.0%} vs the committed baseline"
        )
        return 1
    print("OK: fleet overhead within budget")
    return 0


def _merge_fleet(path: Path, result: dict) -> None:
    """Fold the fleet section into a benchmark doc, keeping the rest."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["fleet"] = result
    path.write_text(json.dumps(doc, indent=2) + "\n")


def check(result: dict) -> int:
    """Ratio gate against the committed baseline; returns exit status."""
    if not BASELINE_PATH.exists():
        print(f"no committed baseline at {BASELINE_PATH}; skipping gate")
        return 0
    baseline = json.loads(BASELINE_PATH.read_text())
    base_ratio = baseline["speedup_fast_vs_legacy"]
    cur_ratio = result["speedup_fast_vs_legacy"]
    floor = base_ratio * (1.0 - MAX_RATIO_REGRESSION)
    print(
        f"fast/legacy speedup: current {cur_ratio:.3f}x, "
        f"baseline {base_ratio:.3f}x, floor {floor:.3f}x"
    )
    if cur_ratio < floor:
        print(
            f"FAIL: fast-path speedup regressed more than "
            f"{MAX_RATIO_REGRESSION:.0%} vs the committed baseline"
        )
        return 1
    print("OK: fast path within budget")
    col = result.get("columnar")
    if col:
        speedup = col["speedup_vs_object_path"]
        print(
            f"columnar parse→predict: {speedup:.3f}x vs object path "
            f"(floor {COLUMNAR_MIN_SPEEDUP:.1f}x), "
            f"identical={col['predictions_identical']}"
        )
        if not col["predictions_identical"]:
            print("FAIL: columnar path predictions diverged")
            return 1
        if speedup < COLUMNAR_MIN_SPEEDUP:
            print(
                f"FAIL: columnar end-to-end speedup fell below "
                f"{COLUMNAR_MIN_SPEEDUP:.1f}x"
            )
            return 1
        print("OK: columnar end-to-end within budget")
    prof = result.get("extra_info", {}).get("profiler")
    if prof:
        overhead = prof["overhead_ratio"]
        print(
            f"profiler overhead: {overhead:.4f}x "
            f"(gate {PROFILER_MAX_OVERHEAD:.2f}x), "
            f"attributed {prof['attributed_fraction']} "
            f"of {prof['samples']} samples"
        )
        if overhead > PROFILER_MAX_OVERHEAD:
            print(
                f"FAIL: stage profiler costs more than "
                f"{PROFILER_MAX_OVERHEAD - 1:.0%} throughput"
            )
            return 1
        frac = prof["attributed_fraction"]
        if (
            prof["samples"] >= PROFILER_MIN_SAMPLES
            and frac is not None
            and frac < PROFILER_MIN_ATTRIBUTED
        ):
            print(
                f"FAIL: profiler attributed only {frac:.1%} of sampled "
                f"wall time (floor {PROFILER_MIN_ATTRIBUTED:.0%})"
            )
            return 1
        print("OK: profiler within overhead and attribution budget")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=3)
    ap.add_argument(
        "--check", action="store_true",
        help="fail on >30%% speedup-ratio regression vs the baseline",
    )
    ap.add_argument(
        "--update-baseline", action="store_true",
        help=f"write the committed baseline at {BASELINE_PATH}",
    )
    ap.add_argument(
        "--fleet", action="store_true",
        help="measure multi-tenant fleet throughput (8 hashed shards) "
             "instead of the single-stream paths; gates on the "
             "fleet/single throughput ratio",
    )
    args = ap.parse_args(argv)
    if args.fleet:
        result = measure_fleet(trials=args.trials)
        print(json.dumps(result, indent=2))
        REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
        _merge_fleet(REPORT_PATH, result)
        print(f"wrote {REPORT_PATH}")
        if args.update_baseline:
            _merge_fleet(BASELINE_PATH, result)
            print(f"wrote {BASELINE_PATH}")
        if args.check:
            return check_fleet(result)
        return 0
    result = measure(trials=args.trials)
    print(json.dumps(result, indent=2))
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {REPORT_PATH}")
    if args.update_baseline:
        BASELINE_PATH.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {BASELINE_PATH}")
    if args.check:
        return check(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
