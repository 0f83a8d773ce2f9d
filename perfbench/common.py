"""Helpers shared by the benchmark's worker and ingest-server processes."""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
from pathlib import Path

import layers

N_TENANTS = 8


def load_inputs(work_dir: Path):
    meta = json.loads((work_dir / "meta.json").read_text())
    train = (work_dir / "train.log").read_text().splitlines()
    test = (work_dir / "test.log").read_text().splitlines()
    return meta, train, test


def machine(system: str):
    from repro.simulation.topology import (
        build_bluegene_machine,
        build_cluster_machine,
    )

    if system == "bluegene":
        return build_bluegene_machine()
    return build_cluster_machine(n_nodes=256)


def fit_model(meta, train_lines):
    """Parse the training lines and run the offline phase on them."""
    from repro.core.elsa import ELSA
    from repro.simulation.trace import read_log

    elsa = ELSA(machine(meta["system"]))
    elsa.fit(read_log(train_lines), t_train_end=meta["t_start"])
    return elsa


def tenant_key():
    from repro.fleet import hashed_tenant_key

    return hashed_tenant_key(N_TENANTS)


def tenants():
    """The key's bucket names (crc32 of 1000 names reaches all 8)."""
    key = tenant_key()
    return sorted({key(f"node{i}") for i in range(1000)})


def build_fleet(elsa, meta, ckpt_dir):
    from repro.fleet import Fleet, FleetPolicy

    return Fleet.build(
        elsa, tenants(), meta["t_start"], meta["t_end"], tenant_key(),
        ckpt_dir, policy=FleetPolicy(),
    )


def prediction_rows(predictions):
    """Predictions as the JSON rows the ingest API returns."""
    return json.loads(json.dumps([p.to_dict() for p in predictions],
                                 default=str))


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def settle():
    """Collect twice so every pass starts from the same settled heap."""
    gc.collect()
    gc.collect()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q, weights=None):
    """Nearest-rank percentile (``q`` in 0..100), optionally weighted."""
    if not values:
        return 0.0
    if weights is None:
        weights = [1.0] * len(values)
    pairs = sorted(zip(values, weights))
    total = sum(w for _, w in pairs)
    need = q / 100.0 * total
    acc = 0.0
    for v, w in pairs:
        acc += w
        if acc >= need:
            return v
    return pairs[-1][0]


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def tenant_groups(loc_pool, loc_ids):
    """Each record's tenant index, from interned locations."""
    import numpy as np

    key = tenant_key()
    index = {t: i for i, t in enumerate(tenants())}
    codes = np.asarray([index[key(loc)] for loc in loc_pool], dtype=np.int64)
    return codes[np.asarray(loc_ids, dtype=np.int64)]


def model_seconds(pristine, meta, timestamps, groups=None):
    """Seconds the paper's analysis-time model gives for these samples.

    ``AnalysisTimeModel.hybrid(n_chains).time_for`` summed over every
    sample of every predictor's window; ``groups`` gives each record's
    predictor (tenant) index, or None for a single stream.
    """
    import numpy as np

    pred = pristine.streaming_predictor(meta["t_start"], meta["t_end"])
    ts = np.asarray(timestamps, dtype=np.float64)
    sample = ((ts - meta["t_start"]) / pred.sampling_period).astype(np.int64)
    groups = np.zeros(len(ts), dtype=np.int64) if groups is None \
        else np.asarray(groups, dtype=np.int64)
    total = 0.0
    for g in range(int(groups.max()) + 1 if len(groups) else 0):
        counts = np.bincount(sample[groups == g], minlength=pred.n_samples)
        total += float(pred.analysis_model.times_for(counts).sum())
    return total


def layer_metrics(setup, passes, extra):
    """Every per-layer metric, averaged per traced pass.

    ``setup`` and ``passes`` are :meth:`layers.Tracer.summary` dicts: the
    traced set-up gives ``fit`` and ``build``, the traced passes give
    every other layer.  ``extra`` maps the metrics that do not come from
    spans (:data:`EXTRA_UNITS`) to their values; missing ones read 0.
    """
    out = {}
    calls, incl = {}, {}
    for layer in layers.LAYERS:
        source = setup if layer in layers.SETUP_LAYERS else passes
        rows = [s["layers"].get(layer, (0, 0.0, 0.0)) for s in source]
        n = max(1, len(source))
        calls[layer] = sum(r[0] for r in rows) / n
        incl[layer] = sum(r[2] for r in rows) / n
        out[f"{layer}.calls"] = metric(calls[layer], "count")
        out[f"{layer}.self_s"] = metric(sum(r[1] for r in rows) / n, "s")
    n = max(1, len(passes))

    def per_pass(key):
        return sum(s["counts"].get(key, 0.0) for s in passes) / n

    def ratio(a, b):
        return a / b if b else 0.0

    waits = [w for s in passes for w in s["waits"]]
    vals = [w for w, _ in waits]
    wts = [c for _, c in waits]
    out.update({
        "parse.us_per_record": metric(
            ratio(incl["parse"], per_pass("parse.records")) * 1e6, "us"),
        "sanitize.deduplicated": metric(
            per_pass("sanitize.deduplicated"), "count"),
        "sanitize.dropped_late": metric(
            per_pass("sanitize.dropped_late"), "count"),
        "classify.us_per_record": metric(
            ratio(incl["classify"], per_pass("classify.records")) * 1e6,
            "us"),
        "feed.records_per_call": metric(
            ratio(per_pass("feed.records"), calls["feed"]), "count"),
        "tick.us_per_sample": metric(
            ratio(incl["tick"], per_pass("tick.samples")) * 1e6, "us"),
        "tick.flags": metric(per_pass("tick.flags"), "count"),
        "checkpoint.bytes": metric(per_pass("checkpoint.bytes"), "bytes"),
        "queue.wait_p50_ms": metric(percentile(vals, 50, wts) * 1e3, "ms"),
        "queue.wait_p99_ms": metric(percentile(vals, 99, wts) * 1e3, "ms"),
        "queue.depth_max": metric(
            max([s["counts"].get("queue.depth_max", 0.0) for s in passes],
                default=0.0), "count"),
        "step.records_per_step": metric(
            ratio(per_pass("step.records"), calls["step"]), "count"),
        "decode.us_per_record": metric(
            ratio(incl["decode"], per_pass("decode.records")) * 1e6, "us"),
    })
    for name, unit in EXTRA_UNITS.items():
        out[name] = metric(extra.get(name, 0.0), unit)
    return out


#: per-layer metrics that do not come from spans, with their units
EXTRA_UNITS = {
    "parse.malformed_lines": "count",
    "classify.hit_frac": "fraction",
    "classify.templates_minted": "count",
    "emit.predictions": "count",
    "emit.useful_frac": "fraction",
    "analysis.model_ratio": "ratio",
    "admit.refused": "count",
    "client.retries": "count",
    "client.throttled": "count",
    "gc.pause_s": "s",
    "gc.full_collections": "count",
    "input.repeat_frac": "fraction",
    "input.novel_frac": "fraction",
    "trace.overhead": "ratio",
    "trace.unattributed_frac": "fraction",
}


def median(values):
    return statistics.median(values) if values else 0.0
