"""Benchmark of the three online routes: one stream, the fleet, HTTP ingest.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 24 --trace 0
    python3 perfbench/sweep.py --seeds 1 2 3 4 5   # spread over seeds

Workloads (``BENCHMARK.json`` says why each exists; ``inputs.py`` how
their inputs are made):

* ``stream`` -- ``read_log_batch(lenient=True)`` -> ``sanitize_batch`` ->
  ``ResumableRun(batch_size=4096).run``, the way ``predict --lenient
  --batch-size 4096`` runs, over a BG/L-like log with relay defects.
* ``ingest`` -- one closed-loop ``IngestClient`` posting 64-record NDJSON
  batches to a server process built from ``serve``'s parts, with a
  dashboard read mix, then sealing every tenant (``ingest_client.py``).
* ``fleet`` -- ``read_log_batch`` -> ``Fleet.route_batch`` in 1024-record
  writes (the default pump cadence) over 8 hashed tenants with the
  ``FleetPolicy`` defaults, then ``drain`` and ``finish``, on a
  Mercury-like log with a mid-stream template rewrite and one-off lines.
  It runs by hand but is not one of ``BENCHMARK.json``'s workloads:
  within the time budget for all of the benchmark's runs, two
  workloads can measure 24 s per run where three could measure 16 s,
  and ``ingest`` drives the same fleet layers (route, queue, pump,
  step, checkpoint) besides the HTTP ones.  What only ``fleet``
  measures is classify's miss path in small calls.

End-to-end metrics (``--trace 0``), each printed with its sample count;
``BENCHMARK.json`` gates these five.  A run makes timed passes, each a
full replay of the input from fresh serving objects, until ``--seconds``
have been measured; the three timed metrics come from the fastest
quarter of those passes (:func:`fastest_passes` says why):

* ``throughput_rps`` -- test records / wall time from the first line
  handed to the route until every prediction list is final.
* ``setup_s`` -- fit on the training lines plus building the serving
  objects (the predictor; 8 shards; a server answering its first
  request); median over the set-ups of a run.
* ``peak_rss_mb`` -- peak RSS of the process running the route (for
  ``ingest``, the server).
* ``write_p50_ms`` -- one call handing records to the system, until it
  returns: a 4096-record ``feed_chunk`` (``stream``), a 1024-record
  ``route_batch`` with its pump (``fleet``), ``POST /ingest/<tenant>``
  to its ack, retries included (``ingest``).
* ``read_p50_ms`` -- one dashboard refresh after every 8 writes: ``GET
  /metrics`` and ``GET /state`` against the telemetry server that
  ``predict --listen`` and ``fleet --listen`` start (``stream``,
  ``fleet``; the route's wall time leaves the reads out); ``GET
  /predictions/<tenant>`` and ``GET /metrics``, competing with the
  writes and the pump for the API lock (``ingest``).

The report also prints ``failed_frac``, ``refused_frac`` (``ingest``),
``write_p95_ms``, ``read_p90_ms`` and, where a run has at least 1,000
writes (``ingest``), ``write_p99_ms``, over all of the run's untraced
passes.  None of them is gated.  The two
fractions are 0 in a correct run, and a gated metric may not be 0.  The
tails follow the seed more than a bound allows: on ``fleet`` the slowest
writes are the pumps in which several shards checkpoint at once, 2 to 7
of a pass's ~41 writes depending on how the seed's records fall on the
tenants, so write p95 ranged from 40 to 62 ms over six seeds on a 2-vCPU
VM; and a run of ``stream`` or ``fleet`` makes 30 to 60 reads, too few
for a p90 with ten samples beyond it.
With ``--trace 1`` the run alternates untraced and traced passes and
prints the layer budget (``layers.py``) instead.

The inputs are generated from ``--seed`` outside every timed region; the
workload runs in a fresh process (``worker.py``) that checks every
pass's predictions against an independent reference and accounts for
every input line.  The last line of standard output is one JSON object;
the exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: traced runs leave their spans here, one file per workload and seed
SPANS = ROOT / ".bench_out"
#: a worker that has not finished by then is killed and the run fails
WORKER_TIMEOUT_S = 150

#: end-to-end metrics (tracing off): name -> unit
END_TO_END = {
    "throughput_rps": "records/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "write_p50_ms": "ms",
    "read_p50_ms": "ms",
}

#: share of a run's untraced passes the timed metrics come from
FASTEST_SHARE = 0.25

#: tail latencies the report prints but BENCHMARK.json does not gate,
#: over every untraced pass: name -> (samples, percentile, fewest
#: samples to print it)
TAILS = {
    "write_p95_ms": ("writes", 95, 1),
    "write_p99_ms": ("writes", 99, 1000),
    "read_p90_ms": ("reads", 90, 1),
}


def fastest_passes(passes):
    """The fastest quarter (rounded up) of the untraced passes.

    Every pass replays the same input from the same fresh state, so the
    program does the same work in each; what differs is how much the
    shared host slows it.  On a 2-vCPU KVM guest, a fixed pure-Python
    loop took 7.5-8 ms when undisturbed and up to twice that in slow
    spells, with CPU time equal to wall time: each vCPU slowed on its
    own for fractions of a second, and both together for seconds to
    minutes.  Contention only adds time, so the fastest passes are the
    ones nearest the program's own speed (the reasoning of ``timeit``'s
    best-of-N).  Spells longer than a run still move its figures.
    """
    timed = sorted((p for p in passes if not p["traced"]),
                   key=lambda p: p["wall"] / p["records"])
    return timed[:math.ceil(len(timed) * FASTEST_SHARE)]


def end_to_end(result):
    """The end-to-end metrics of a worker result, with sample counts.

    ``throughput_rps``, ``write_p50_ms`` and ``read_p50_ms`` come from
    the run's fastest passes (:func:`fastest_passes`); ``n`` counts the
    passes, writes and reads they span.
    """
    percentile = common.percentile
    best = fastest_passes(result["passes"])
    writes = [w for p in best for w in p["writes"]]
    reads = [r for p in best for r in p["reads"]]
    values = {
        "throughput_rps": (sum(p["records"] for p in best)
                           / sum(p["wall"] for p in best), len(best)),
        "setup_s": (statistics.median(result["setups"]),
                    len(result["setups"])),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
        "write_p50_ms": (percentile(writes, 50), len(writes)),
        "read_p50_ms": (percentile(reads, 50), len(reads)),
    }
    out = {name: {"value": value, "unit": END_TO_END[name], "n": n}
           for name, (value, n) in values.items()}
    out["throughput_rps"]["of"] = sum(not p["traced"]
                                      for p in result["passes"])
    return out


def report(args, meta, result, metrics):
    """Human-readable lines printed above the JSON result."""
    lines = [
        f"workload    : {args.workload} (seed {args.seed}, "
        f"{meta['test_lines']} test lines, {meta['train_lines']} training "
        f"lines, input digest {meta['digest']})",
        f"input       : repeat_frac {meta['repeat_frac']:.4f}, "
        f"novel_frac {meta['novel_frac']:.4f}, defects {meta['defects']}",
        f"predictions : {result['predictions']['count']}, digest "
        f"{result['predictions']['digest']}",
        f"accounting  : {json.dumps(result['accounting'], sort_keys=True)}",
    ]
    fracs = {"failed_frac": (result["failed"], result["attempted"])}
    if "refused" in result:
        fracs["refused_frac"] = (result["refused"], result["write_attempts"])
    for name, (part, whole) in fracs.items():
        lines.append(f"{name:<28} {part / max(1, whole):.6g} fraction "
                     f"(n={whole})")
    timed = [p for p in result["passes"] if not p["traced"]]
    for name, (key, q, fewest) in TAILS.items():
        samples = [x for p in timed for x in p[key]]
        if len(samples) >= fewest:
            lines.append(f"{name:<28} "
                         f"{common.percentile(samples, q):.6g} ms "
                         f"(n={len(samples)})")
    for name, m in metrics.items():
        n = f" (n={m['n']})" if "n" in m else ""
        if "of" in m:
            n = f" (n={m['n']} of {m['of']} passes)"
        lines.append(f"{name:<28} {m['value']:.6g} {m['unit']}{n}")
    for problem in result["problems"]:
        lines.append(f"FAILED      : {problem}")
    return lines


def run_worker(cmd, env):
    """Run the worker in its own process group and wait for it.  Whatever
    is left of the group afterwards (the ingest server of a worker that
    crashed or timed out) is killed, and waited for until it is gone."""
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: worker timed out", file=sys.stderr)
        return -signal.SIGKILL
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        for _ in range(100):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("stream", "fleet", "ingest"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its worker (see run_worker)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        meta = inputs.generate(args.workload, args.seed, work,
                               cache_dir=WORK / "cache")
        # a fixed hash seed keeps set and dict orders, and with them the
        # program's work, the same in every process
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", args.workload, "--dir", str(work),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            SPANS.mkdir(exist_ok=True)
            cmd += ["--spans", str(
                SPANS / f"spans-{args.workload}-seed{args.seed}.json")]
        returncode = run_worker(cmd, env)
        if returncode != 0:
            print(f"error: worker exited {returncode}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = result["layers"] if args.trace else end_to_end(result)
    for line in report(args, meta, result, metrics):
        print(line)
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
