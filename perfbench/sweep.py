"""Run the benchmark over several seeds and summarize each metric.

Usage (from the repository root)::

    python3 perfbench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 --out sweep.json

Runs ``run.py`` once per (workload, seed), one at a time and with
tracing off, and prints per metric the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median -- the spread a benchmark bound has to cover.
``--out`` also keeps every run's metrics.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = RUN.parent.parent / "BENCHMARK.json"


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() \
        else "{}"
    doc = json.loads(last) if last.startswith("{") else {}
    if proc.returncode != 0 or not doc.get("correct"):
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode}):\n{proc.stdout}")
    return {name: m["value"] for name, m in doc["metrics"].items()}


def summarize(runs):
    out = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": q2, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / q2 if q2 else 0.0}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    benchmark = json.loads(BENCHMARK.read_text())
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in benchmark["workloads"]],
                    help="default: BENCHMARK.json's workloads")
    ap.add_argument("--seeds", nargs="+", type=int,
                    default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float,
                    default=benchmark["run_seconds"],
                    help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    doc = {"machine": {
        "date": datetime.date.today().isoformat(),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "seconds": args.seconds,
    }}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(one_run(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
        summary = summarize(runs) if len(runs) > 1 else {}
        for name, s in summary.items():
            print(f"  {workload:<7} {name:<16} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
        doc[workload] = {"seeds": args.seeds, "runs": runs,
                         "summary": summary}
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
