"""One benchmark run of one workload, in a fresh process.

``run.py`` generates the inputs and starts this script with ``src`` on
``PYTHONPATH``; it writes ``result.json`` next to the inputs, with each
pass's wall time and write and read latencies (``run.py`` reduces them
to the metrics).  The order is the same for every workload: set up
``SETUPS`` times (the median is ``setup_s``), one warm-up pass, then
timed passes until ``--seconds`` have been measured, then the reference
check.  Every timed pass starts from fresh serving objects and a
collected heap.  During every pass a dashboard polls the run's telemetry
server (:class:`Dashboard`).  With ``--trace 1`` untraced and traced
passes alternate; the traced ones give the layer budget and the
untraced ones the tracing overhead.
"""

from __future__ import annotations

import argparse
import copy
import http.client
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

import common
import layers

SETUPS = 3
#: stream: ResumableRun feed size, as ``predict --batch-size 4096``
STREAM_CHUNK = 4096
#: fleet: records per ``Fleet.route_batch`` call, the default pump cadence
FLEET_WRITE = 1024
#: one dashboard refresh after every this many writes: the read cadence
#: of the ``ingest`` workload's traffic
READ_EVERY = 8


class Pass:
    """What one pass produced and how long it took."""

    def __init__(self, traced):
        self.traced = traced
        self.wall = 0.0
        self.records = 0
        self.writes = []
        self.reads = []
        self.predictions = None
        self.tracer = layers.Tracer() if traced else None
        self.counters = {}
        self.gc_pause = 0.0
        self.gc_full = 0


def counter(name):
    from repro import obs

    return float(obs.counter(name).value)


def snapshot_counters(p):
    for name in ("helo.online.observed", "helo.online.misses",
                 "helo.online.minted", "predictor.predictions_too_late",
                 "ingest.malformed_lines"):
        p.counters[name] = counter(name)


class Dashboard:
    """A dashboard polling ``predict --listen`` or ``fleet --listen``.

    Those commands serve the live telemetry from a ``TelemetryServer``;
    this one is started once per run.  After every ``READ_EVERY`` writes
    it refreshes: ``GET /metrics`` and ``GET /state``, each on a fresh
    connection, from the thread that writes.  One refresh is one read;
    timing the two documents apart would put the median on the edge
    between their two sizes.  ``seconds`` is the time the reads took,
    which the pass's wall time leaves out: the route's throughput does
    not include its dashboard.
    """

    def __init__(self, port, p):
        self.port = port
        self.p = p
        self.seconds = 0.0

    def wrote(self, ms):
        self.p.writes.append(ms)
        if len(self.p.writes) % READ_EVERY:
            return
        r0 = perf_counter()
        for path in ("/metrics", "/state"):
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=30.0)
            try:
                conn.request("GET", path)
                resp = conn.getresponse()
                resp.read()
            finally:
                conn.close()
            if resp.status != 200:
                raise RuntimeError(f"GET {path} answered {resp.status}")
        r = perf_counter() - r0
        self.p.reads.append(r * 1e3)
        self.seconds += r


class ChunkTimer:
    """Times each ``ResumableRun.feed_chunk`` call: the stream's writes."""

    def __init__(self, dashboard):
        self.dashboard = dashboard

    def install(self):
        from repro.resilience.checkpoint import ResumableRun

        self.orig = orig = ResumableRun.__dict__["feed_chunk"]
        dashboard = self.dashboard

        def feed_chunk(run, batch, local=None):
            t0 = perf_counter()
            try:
                return orig(run, batch, local)
            finally:
                dashboard.wrote((perf_counter() - t0) * 1e3)

        # installed over the tracer's wrapper, so the reads stay outside
        # the feed_chunk span
        ResumableRun.feed_chunk = feed_chunk

    def uninstall(self):
        from repro.resilience.checkpoint import ResumableRun

        ResumableRun.feed_chunk = self.orig


# -- stream ------------------------------------------------------------------

def stream_setup(meta, train):
    from repro.resilience.checkpoint import ResumableRun

    elsa = common.fit_model(meta, train)
    ResumableRun(elsa, meta["t_start"], meta["t_end"],
                 batch_size=STREAM_CHUNK)
    return elsa


def stream_pass(ctx, p):
    from repro import obs
    from repro.helo import batch as helo_batch
    from repro.resilience import stream as resilience_stream
    from repro.resilience.checkpoint import ResumableRun
    from repro.resilience.config import ResilienceConfig

    meta, lines = ctx["meta"], ctx["test"]
    obs.reset()
    run = ResumableRun(copy.deepcopy(ctx["pristine"]), meta["t_start"],
                       meta["t_end"], batch_size=STREAM_CHUNK)
    cfg = ResilienceConfig()
    dashboard = Dashboard(ctx["port"], p)
    timer = ChunkTimer(dashboard)
    common.settle()
    ctx["gcw"].reset()
    install(p.tracer)
    timer.install()
    t0 = perf_counter()
    try:
        batch = helo_batch.read_log_batch(lines, lenient=True)
        clean, stats = resilience_stream.sanitize_batch(batch, cfg)
        predictions = run.run(clean)
    finally:
        t1 = perf_counter()
        timer.uninstall()
        uninstall(p.tracer)
    finish_pass(ctx, p, t0, t1, len(lines), dashboard.seconds)
    p.predictions = common.prediction_rows(predictions)
    p.accounting = {
        "lines": len(lines),
        "blank": sum(1 for line in lines if not line.strip()),
        "parsed": len(batch),
        "malformed": int(p.counters["ingest.malformed_lines"]),
        "sanitize": dict(stats),
        "fed": run.predictor.n_records_fed,
    }
    return p


def stream_reference(ctx):
    from repro.resilience.config import ResilienceConfig
    from repro.simulation.trace import read_log

    meta = ctx["meta"]
    elsa = copy.deepcopy(ctx["pristine"])
    elsa.config.resilience = ResilienceConfig()
    records = read_log(ctx["test"], lenient=True)
    return common.prediction_rows(
        elsa.predict(records, meta["t_start"], meta["t_end"]))


def stream_checks(ctx, p):
    acc, defects = p.accounting, ctx["meta"]["defects"]
    san = acc["sanitize"]
    problems = []
    if acc["parsed"] + acc["malformed"] + acc["blank"] != acc["lines"]:
        problems.append(f"parse lost lines: {acc}")
    if acc["malformed"] != defects["torn"]:
        problems.append(f"malformed {acc['malformed']} != torn "
                        f"{defects['torn']}")
    if san["records_in"] != acc["parsed"]:
        problems.append(f"sanitize saw {san['records_in']} of "
                        f"{acc['parsed']} records")
    if san["records_out"] != (san["records_in"] - san["deduplicated"]
                              - san["dropped_late"] - san["quarantined"]):
        problems.append(f"sanitize lost records: {san}")
    if san["deduplicated"] != defects["duplicate_lines"]:
        problems.append(f"deduplicated {san['deduplicated']} of "
                        f"{defects['duplicate_lines']} duplicate lines")
    if acc["fed"] != san["records_out"] + san["markers_emitted"]:
        problems.append(f"fed {acc['fed']} of {san['records_out']} "
                        "sanitized records")
    # valid records sanitize dropped as too late or dead-lettered
    lost = san["dropped_late"] + san["quarantined"]
    if lost:
        problems.append(f"sanitize lost {lost} records: {san}")
    return problems, lost


# -- fleet -------------------------------------------------------------------

def fleet_setup(meta, train, ckpt_dir):
    elsa = common.fit_model(meta, train)
    common.build_fleet(elsa, meta, ckpt_dir).close()
    return elsa


def fleet_pass(ctx, p):
    from repro import obs
    from repro.helo import batch as helo_batch

    meta, lines = ctx["meta"], ctx["test"]
    obs.reset()
    fleet = common.build_fleet(ctx["pristine"], meta, ctx["ckpt"])
    dashboard = Dashboard(ctx["port"], p)
    common.settle()
    ctx["gcw"].reset()
    install(p.tracer)
    t0 = perf_counter()
    try:
        batch = helo_batch.read_log_batch(lines, lenient=True)
        for a in range(0, len(batch), FLEET_WRITE):
            w0 = perf_counter()
            fleet.route_batch(batch[a:a + FLEET_WRITE])
            dashboard.wrote((perf_counter() - w0) * 1e3)
        fleet.drain()
        out = fleet.finish()
    finally:
        t1 = perf_counter()
        uninstall(p.tracer)
    finish_pass(ctx, p, t0, t1, len(lines), dashboard.seconds)
    p.predictions = {t: common.prediction_rows(out[t]) for t in sorted(out)}
    stats = fleet.router.stats
    p.accounting = {
        "lines": len(lines),
        "parsed": len(batch),
        "malformed": int(p.counters["ingest.malformed_lines"]),
        "router": dict(stats),
        "fed": sum(s.records_fed for s in fleet.shards.values()),
    }
    fleet.close()
    return p


def fleet_reference(ctx):
    """Each tenant alone: a standalone ResumableRun on its slice."""
    from repro.helo.batch import read_log_batch
    from repro.resilience.checkpoint import ResumableRun

    import numpy as np

    meta = ctx["meta"]
    batch = read_log_batch(ctx["test"], lenient=True)
    groups = common.tenant_groups(batch.loc_pool, batch.loc_ids)
    out = {}
    for i, tenant in enumerate(common.tenants()):
        rows = np.flatnonzero(groups == i)
        run = ResumableRun(copy.deepcopy(ctx["pristine"]), meta["t_start"],
                           meta["t_end"])
        run.history = None
        run.slo = None
        out[tenant] = common.prediction_rows(run.run(batch.take(rows)))
    return out


def fleet_checks(ctx, p):
    acc = p.accounting
    r = acc["router"]
    problems = []
    if acc["parsed"] + acc["malformed"] != acc["lines"]:
        problems.append(f"parse lost lines: {acc}")
    if r["routed"] != acc["parsed"] or r["accepted"] != r["routed"]:
        problems.append(f"router did not accept every record: {r}")
    if r["shed"] or r["dead_lettered"] or r["rejected"]:
        problems.append(f"records shed or dead-lettered: {r}")
    if acc["fed"] != r["accepted"]:
        problems.append(f"fed {acc['fed']} of {r['accepted']} accepted")
    lost = acc["lines"] - acc["fed"]
    return problems, lost


# -- shared pass machinery ---------------------------------------------------

def install(timer):
    if timer is not None:
        timer.install()


def uninstall(timer):
    if timer is not None:
        timer.uninstall()


def finish_pass(ctx, p, t0, t1, records, read_s):
    p.wall = t1 - t0 - read_s
    p.records = records
    p.t0, p.t1 = t0, t1
    p.gc_pause = ctx["gcw"].pause_s
    p.gc_full = ctx["gcw"].full
    snapshot_counters(p)


ROUTES = {
    "stream": (stream_setup, stream_pass, stream_reference, stream_checks),
    "fleet": (fleet_setup, fleet_pass, fleet_reference, fleet_checks),
}


def run_inprocess(args, meta, train, test, work_dir):
    setup_fn, pass_fn, reference_fn, check_fn = ROUTES[args.workload]
    ckpt = work_dir / "ckpt"
    ckpt.mkdir(exist_ok=True)
    gcw = layers.GCWatch().start()
    setup_tracer = layers.Tracer() if args.trace else None
    setups = []
    for _ in range(1 if args.trace else SETUPS):
        from repro import obs

        obs.reset()
        install(setup_tracer)
        t0 = perf_counter()
        try:
            if args.workload == "fleet":
                pristine = setup_fn(meta, train, ckpt)
            else:
                pristine = setup_fn(meta, train)
        finally:
            setups.append(perf_counter() - t0)
            uninstall(setup_tracer)
    from repro.obs.live import TelemetryServer

    server = TelemetryServer(host="127.0.0.1", port=0).start()
    ctx = {"meta": meta, "test": test, "pristine": pristine, "gcw": gcw,
           "ckpt": ckpt, "port": server.port}
    try:
        warm = pass_fn(ctx, Pass(traced=False))
        passes = []
        measured = 0.0
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(pass_fn(ctx, Pass(traced=traced)))
            measured += passes[-1].wall
            if measured >= args.seconds and (
                    not args.trace or any(p.traced for p in passes)):
                break
    finally:
        server.stop()
    rss = common.peak_rss_mb()
    gcw.stop()
    reference = reference_fn(ctx)
    problems = []
    lost = 0
    for p in [warm] + passes:
        if p.predictions != reference:
            problems.append("predictions differ from the reference")
        pass_problems, pass_lost = check_fn(ctx, p)
        problems += pass_problems
        lost += pass_lost if p is not warm else 0
    problems = sorted(set(problems))
    result = {
        "setups": setups,
        "passes": [{"wall": p.wall, "records": p.records, "traced": p.traced,
                    "gc_pause": p.gc_pause, "gc_full": p.gc_full,
                    "writes": p.writes, "reads": p.reads}
                   for p in passes],
        "peak_rss_mb": rss,
        "problems": problems,
        "attempted": sum(p.records for p in passes),
        "failed": lost,
        "predictions": predictions_summary(reference),
        "accounting": passes[-1].accounting,
    }
    if args.trace:
        result["layers"] = inprocess_layers(ctx, setup_tracer, passes)
        result["spans"] = {"setup": setup_tracer.export(),
                           "passes": [p.tracer.export() for p in passes
                                      if p.traced]}
    return result


def predictions_summary(reference):
    if isinstance(reference, dict):
        count = sum(len(v) for v in reference.values())
    else:
        count = len(reference)
    return {"count": count, "digest": common.digest(reference)}


def inprocess_layers(ctx, setup_tracer, passes):
    meta = ctx["meta"]
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    summaries = [p.tracer.summary() for p in traced]
    n = len(traced)

    def total(name):
        return sum(p.counters.get(name, 0.0) for p in traced)

    observed = total("helo.online.observed")
    preds = sum(
        sum(len(v) for v in p.predictions.values())
        if isinstance(p.predictions, dict) else len(p.predictions)
        for p in traced) / n
    too_late = total("predictor.predictions_too_late") / n
    feed_s = sum(s["layers"].get(name, (0, 0, 0))[2]
                 for s in summaries for name in ("feed", "finish")) / n
    unattributed = [
        1.0 - layers.covered(s["top"], p.t0, p.t1) / (p.t1 - p.t0)
        for s, p in zip(summaries, traced)
    ]
    extra = {
        "parse.malformed_lines": total("ingest.malformed_lines") / n,
        "classify.hit_frac": (
            1.0 - total("helo.online.misses") / observed if observed else 0.0),
        "classify.templates_minted": total("helo.online.minted") / n,
        "emit.predictions": preds,
        "emit.useful_frac": preds / (preds + too_late) if preds else 0.0,
        "analysis.model_ratio": feed_s / model_seconds_for(ctx),
        "gc.pause_s": sum(p.gc_pause for p in traced) / n,
        "gc.full_collections": sum(p.gc_full for p in traced) / n,
        "input.repeat_frac": meta["repeat_frac"],
        "input.novel_frac": meta["novel_frac"],
        "trace.overhead": (common.median([p.wall for p in traced])
                           / common.median([p.wall for p in plain])),
        "trace.unattributed_frac": common.median(unattributed),
    }
    return common.layer_metrics([setup_tracer.summary()], summaries, extra)


def model_seconds_for(ctx):
    """The analysis-time model's seconds for the records the route fed."""
    from repro.helo.batch import read_log_batch
    from repro.resilience.config import ResilienceConfig
    from repro.resilience.stream import sanitize_batch

    meta = ctx["meta"]
    batch = read_log_batch(ctx["test"], lenient=True)
    if meta["workload"] == "stream":
        batch, _ = sanitize_batch(batch, ResilienceConfig())
        return common.model_seconds(ctx["pristine"], meta, batch.timestamps)
    return common.model_seconds(
        ctx["pristine"], meta, batch.timestamps,
        common.tenant_groups(batch.loc_pool, batch.loc_ids))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("stream", "fleet", "ingest"))
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None,
                    help="where a traced run writes its spans")
    args = ap.parse_args(argv)
    meta, train, test = common.load_inputs(args.dir)
    try:
        if args.workload == "ingest":
            import ingest_client

            result = ingest_client.run(args, meta, train, test)
        else:
            result = run_inprocess(args, meta, train, test, args.dir)
    finally:
        shutil.rmtree(args.dir / "ckpt", ignore_errors=True)
    spans = result.pop("spans", None)
    if args.spans is not None and spans is not None:
        args.spans.write_text(json.dumps(spans) + "\n")
    (args.dir / "result.json").write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
