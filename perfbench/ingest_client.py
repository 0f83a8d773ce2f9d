"""The ``ingest`` workload's client side (runs inside ``worker.py``).

One ``IngestClient`` with one thread and one connection at a time posts
64-record NDJSON batches, each tenant's in sequence, and waits for every
ack.  After every 8 writes it reads ``GET /predictions/<tenant>``
(tenants in turn) and ``GET /metrics``, timed together as one read (a
dashboard refresh).  The pass ends when ``POST /seal/<tenant>`` has
returned for every tenant.  The server is a separate process
(``server.py``); its predictions are checked against an in-process
``Fleet`` run on the same records.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import common
import layers

#: set-ups per run (fit, fleet, server answering): ``setup_s`` is their
#: median
SETUPS = 3
WRITE_RECORDS = 64
READ_EVERY = 8
WARMUP_READS = 10
#: a server that does not answer a command within this long is killed
REPLY_TIMEOUT_S = 60.0


def plan_writes(records, key):
    """Per-tenant 64-record batches in the order ``IngestClient.feed``
    sends them, built up front so the timed loop can interleave reads."""
    buffers = {}
    writes = []
    for rec in records:
        tenant = key(rec.location)
        buf = buffers.setdefault(tenant, [])
        buf.append(rec)
        if len(buf) >= WRITE_RECORDS:
            writes.append((tenant, buf))
            buffers[tenant] = []
    writes.extend((t, buffers[t]) for t in sorted(buffers) if buffers[t])
    return writes


class Server:
    """The ``server.py`` process, driven one pass at a time."""

    def __init__(self, work_dir: Path):
        here = Path(__file__).resolve().parent
        self.proc = subprocess.Popen(
            [sys.executable, str(here / "server.py"), "--dir", str(work_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=dict(os.environ),
        )
        self._buf = b""

    def ask(self, command):
        """Send one command line; return the JSON reply line."""
        self.proc.stdin.write(command.encode("utf-8") + b"\n")
        self.proc.stdin.flush()
        deadline = monotonic() + REPLY_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - monotonic()
            ready, _, _ = select.select([fd], [], [], max(0.0, left))
            if not ready:
                raise RuntimeError(f"ingest server silent after {command!r}")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise RuntimeError(f"ingest server exited after {command!r}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def close(self):
        """Close its input, wait for it to exit, kill it if it hangs."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=REPLY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def one_pass(port, writes, tenant_names, seed, tracer, gcw):
    from repro.fleet.client import HTTPTransport, IngestClient

    transport = HTTPTransport("127.0.0.1", port, timeout=30.0)
    client = IngestClient(transport, stream_id="bench", seed=seed)

    def metrics_read():
        resp = transport.request("GET", "/metrics")
        if resp.status != 200:
            raise RuntimeError(f"GET /metrics answered {resp.status}")

    for _ in range(WARMUP_READS):
        metrics_read()
        client.tenants()
    write_ms, read_ms = [], []
    gcw.reset()
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    try:
        for i, (tenant, batch) in enumerate(writes):
            w0 = perf_counter()
            client.send_batch(tenant, batch)
            write_ms.append((perf_counter() - w0) * 1e3)
            if (i + 1) % READ_EVERY == 0:
                r0 = perf_counter()
                client.predictions(
                    tenant_names[(i // READ_EVERY) % len(tenant_names)])
                metrics_read()
                read_ms.append((perf_counter() - r0) * 1e3)
        sealed = {t: client.seal(t) for t in tenant_names}
    finally:
        t1 = perf_counter()
        if tracer is not None:
            tracer.uninstall()
    return {
        "t0": t0, "t1": t1, "wall": t1 - t0,
        "writes": write_ms, "reads": read_ms,
        "sealed": {t: sealed[t]["predictions"] for t in tenant_names},
        "tenants_doc": client.tenants(),
        "client": dict(client.stats),
        "gc_pause": gcw.pause_s, "gc_full": gcw.full,
    }


def reference(meta, train, records, ckpt_dir):
    """The same records through an in-process ``Fleet``."""
    from repro import obs
    from repro.columnar import RecordBatch

    obs.reset()
    pristine = common.fit_model(meta, train)
    fleet = common.build_fleet(pristine, meta, ckpt_dir)
    out = fleet.run(RecordBatch.from_records(records))
    fleet.close()
    rows = {t: common.prediction_rows(out[t]) for t in sorted(out)}
    return pristine, rows


def checks(p, n_records, n_writes):
    problems = []
    router = p["tenants_doc"]["router"]
    fed = sum(t["records_fed"] for t in p["tenants_doc"]["tenants"].values())
    if p["client"]["records"] != n_records or \
            p["client"]["batches"] != n_writes:
        problems.append(f"client delivered {p['client']}")
    if router["routed"] != n_records or router["accepted"] != n_records:
        problems.append(f"server routed {router}")
    if router["shed"] or router["dead_lettered"] or router["rejected"]:
        problems.append(f"records shed or dead-lettered: {router}")
    if fed != router["accepted"]:
        problems.append(f"fed {fed} of {router['accepted']} accepted")
    return problems, max(0, n_records - fed), {"router": router, "fed": fed}


def run(args, meta, train, test):
    """Set up ``SETUPS`` times (once, traced, with ``--trace 1``), then a
    warm-up pass and timed passes until ``args.seconds`` are measured;
    every pass gets a fresh fleet and server.  With ``--trace 1`` plain
    and traced passes alternate."""
    from repro.simulation.trace import parse_log_line

    key = common.tenant_key()
    tenant_names = common.tenants()
    records = [parse_log_line(line) for line in test]
    writes = plan_writes(records, key)
    gcw = layers.GCWatch().start()
    server = Server(args.dir)
    passes = []
    measured = 0.0
    try:
        command = "setup-traced" if args.trace else "setup"
        setups = [server.ask(command)
                  for _ in range(1 if args.trace else SETUPS)]
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 0 \
                and len(passes) > 0
            hello = server.ask("traced" if traced else "plain")
            tracer = layers.Tracer() if traced else None
            common.settle()
            try:
                p = one_pass(hello["port"], writes, tenant_names,
                             meta["seed"], tracer, gcw)
            finally:
                report = server.ask("done")
            p.update(server=report, traced=traced, tracer=tracer)
            passes.append(p)
            if len(passes) > 1:
                measured += p["wall"]
            if measured >= args.seconds and (
                    not args.trace or any(q["traced"] for q in passes)):
                break
    finally:
        server.close()
        gcw.stop()
    warm, passes = passes[0], passes[1:]
    pristine, ref = reference(meta, train, records, args.dir / "ckpt")
    problems, lost = [], 0
    for p in [warm] + passes:
        if p["sealed"] != ref:
            problems.append("predictions differ from the in-process fleet")
        pass_problems, pass_lost, accounting = checks(
            p, len(records), len(writes))
        problems += pass_problems
        lost += pass_lost if p is not warm else 0
    plain = [p for p in passes if not p["traced"]]
    throttled = sum(p["client"]["throttled"] for p in plain)
    result = {
        "setups": [s["setup_s"] for s in setups],
        "passes": [{"wall": p["wall"], "records": len(records),
                    "traced": p["traced"], "gc_pause": p["gc_pause"],
                    "gc_full": p["gc_full"], "writes": p["writes"],
                    "reads": p["reads"]} for p in passes],
        "peak_rss_mb": max(p["server"]["peak_rss_mb"] for p in passes),
        "problems": sorted(set(problems)),
        "attempted": len(records) * len(passes),
        "failed": lost,
        "refused": throttled,
        "write_attempts": sum(p["client"]["batches"] + p["client"]["retries"]
                              + p["client"]["throttled"] for p in plain),
        "predictions": {"count": sum(len(v) for v in ref.values()),
                        "digest": common.digest(ref)},
        "accounting": accounting,
    }
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        result["layers"] = traced_layers(meta, pristine, records, plain,
                                         traced, setups)
        result["spans"] = [{"client": p["tracer"].export(),
                            "server": p["server"]["spans"]} for p in traced]
    return result


def traced_layers(meta, pristine, records, plain, traced, setups):
    summaries = [layers.merge(p["tracer"].summary(), p["server"]["summary"])
                 for p in traced]
    n = len(traced)

    def server_total(name):
        return sum(p["server"]["counters"][name] for p in traced)

    observed = server_total("helo.online.observed")
    preds = sum(len(v) for p in traced for v in p["sealed"].values()) / n
    too_late = server_total("predictor.predictions_too_late") / n
    feed_s = sum(s["layers"].get(name, (0, 0, 0))[2]
                 for s in summaries for name in ("feed", "finish")) / n
    locations = [r.location for r in records]
    model_s = common.model_seconds(
        pristine, meta, [r.timestamp for r in records],
        common.tenant_groups(locations, range(len(locations))))
    unattributed = [
        1.0 - layers.covered(s["top"], p["t0"], p["t1"]) / p["wall"]
        for s, p in zip(summaries, traced)
    ]
    extra = {
        "classify.hit_frac": (
            1.0 - server_total("helo.online.misses") / observed
            if observed else 0.0),
        "classify.templates_minted": server_total("helo.online.minted") / n,
        "emit.predictions": preds,
        "emit.useful_frac": preds / (preds + too_late) if preds else 0.0,
        "analysis.model_ratio": feed_s / model_s,
        "admit.refused": server_total("ingest.rejected") / n,
        "client.retries": sum(p["client"]["retries"] for p in traced) / n,
        "client.throttled": sum(p["client"]["throttled"] for p in traced) / n,
        "gc.pause_s": sum(p["gc_pause"] + p["server"]["gc_pause"]
                          for p in traced) / n,
        "gc.full_collections": sum(p["gc_full"] + p["server"]["gc_full"]
                                   for p in traced) / n,
        "input.repeat_frac": meta["repeat_frac"],
        "input.novel_frac": meta["novel_frac"],
        "trace.overhead": (common.median([p["wall"] for p in traced])
                           / common.median([p["wall"] for p in plain])),
        "trace.unattributed_frac": common.median(unattributed),
    }
    setup = [s["setup_summary"] for s in setups]
    return common.layer_metrics(setup, summaries, extra)
