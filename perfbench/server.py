"""The ``ingest`` workload's server process, built from ``serve``'s parts.

The process fits the offline phase on the training lines from ``--dir``
(it never regenerates a scenario), builds the 8-tenant ``Fleet``, mounts
``IngestAPI`` on an ``IngestServer`` and pumps the fleet every 20 ms, as
``serve`` does with its defaults.  A set-up does all of that from
scratch and is timed from the start of the fit until the server has
answered its first request; it is then torn down, and its fitted model
is kept.  Every pass serves a fresh fleet built from that model, as the
``stream`` and ``fleet`` workloads build theirs.

Protocol, one line each way (JSON on standard output):

* ``setup`` or ``setup-traced`` -> set up and tear down; answer
  ``{"setup_s"}`` (and the layer summary of a traced set-up);
* ``plain`` or ``traced`` -> start serving a fresh fleet; answer
  ``{"port"}``;
* ``done`` -> stop serving; answer the pass report (peak RSS, counters,
  collector time and, for a traced pass, the layer summary and spans);
* end of input -> exit.
"""

from __future__ import annotations

import argparse
import http.client
import json
import queue
import sys
import threading
from pathlib import Path
from time import perf_counter

import common
import layers

#: ``serve`` defaults
PUMP_INTERVAL_S = 0.02
REQUEST_TIMEOUT_S = 30.0
MAX_BATCH_RECORDS = 8192
ADMISSION_RATE = 50000.0

COUNTERS = ("helo.online.observed", "helo.online.misses",
            "helo.online.minted", "predictor.predictions_too_late",
            "ingest.rejected")


def first_answer(port):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        conn.request("GET", "/tenants")
        resp = conn.getresponse()
        resp.read()
        if resp.status != 200:
            raise RuntimeError(f"first request answered {resp.status}")
    finally:
        conn.close()


def build_server(elsa, meta, ckpt_dir):
    """Fleet, API and server on a fleet built from ``elsa``, answering."""
    from repro.fleet.ingest import IngestAPI, IngestConfig, IngestServer

    fleet = common.build_fleet(elsa, meta, ckpt_dir)
    api = IngestAPI(
        fleet,
        config=IngestConfig(
            max_batch_records=MAX_BATCH_RECORDS,
            admission_rate=ADMISSION_RATE,
            admission_capacity=max(ADMISSION_RATE, 2.0 * MAX_BATCH_RECORDS),
        ),
        ledger_path=Path(ckpt_dir) / "ingest-ledger.json",
    )
    server = IngestServer(api, host="127.0.0.1", port=0,
                          request_timeout_seconds=REQUEST_TIMEOUT_S).start()
    first_answer(server.port)
    return fleet, api, server


def set_up(meta, train, ckpt_dir, traced):
    """Fit and serve until the first answer (timed), then tear down.

    Returns the fitted model and the reply: ``setup_s`` and, when
    traced, the layer summary of the fit and the build."""
    from repro import obs

    tracer = layers.Tracer() if traced else None
    obs.reset()
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    try:
        elsa = common.fit_model(meta, train)
        fleet, _, server = build_server(elsa, meta, ckpt_dir)
        reply = {"setup_s": perf_counter() - t0}
    finally:
        if tracer is not None:
            tracer.uninstall()
    server.stop()
    fleet.close()
    if tracer is not None:
        reply["setup_summary"] = tracer.summary()
    return elsa, reply


def serve_pass(pristine, meta, ckpt_dir, traced, commands, gcw):
    """Serve a fresh fleet until ``done``, tear down; returns the report."""
    from repro import obs

    obs.reset()
    fleet, api, server = build_server(pristine, meta, ckpt_dir)
    tracer = layers.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    gcw.reset()
    print(json.dumps({"port": server.port}), flush=True)
    try:
        while True:
            api.pump_once()
            try:
                if commands.get(timeout=PUMP_INTERVAL_S) == "done":
                    break
            except queue.Empty:
                continue
    finally:
        server.stop()
        if tracer is not None:
            tracer.uninstall()
        fleet.close()
    report = {
        "peak_rss_mb": common.peak_rss_mb(),
        "counters": {n: float(obs.counter(n).value) for n in COUNTERS},
        "gc_pause": gcw.pause_s,
        "gc_full": gcw.full,
    }
    if tracer is not None:
        report["summary"] = tracer.summary()
        report["spans"] = tracer.export()
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", required=True, type=Path)
    args = ap.parse_args(argv)
    meta, train, _ = common.load_inputs(args.dir)
    commands = queue.Queue()

    def read_commands():
        for line in sys.stdin:
            commands.put(line.strip())
        commands.put(None)

    threading.Thread(target=read_commands, daemon=True).start()
    gcw = layers.GCWatch().start()
    pristine = None
    n = 0
    while True:
        cmd = commands.get()
        ckpt_dir = args.dir / f"serve-{n}"
        n += 1
        if cmd in ("setup", "setup-traced"):
            pristine, reply = set_up(meta, train, ckpt_dir,
                                     cmd == "setup-traced")
        elif cmd in ("plain", "traced") and pristine is not None:
            reply = serve_pass(pristine, meta, ckpt_dir, cmd == "traced",
                               commands, gcw)
        else:
            return 0
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    sys.exit(main())
