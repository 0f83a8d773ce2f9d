"""Continuous stage-level sampling profiler.

``cProfile`` on the hot path costs an order of magnitude; a *sampling*
profiler costs one background thread that wakes every
``interval`` seconds and asks :func:`repro.obs.tracing.thread_stacks`
which pipeline stage every thread is inside.  Because attribution rides
the span stacks the pipeline already maintains (``stream`` →
``classify``/``feed`` → ...), the output speaks the pipeline's own
stage names instead of Python frames — exactly the granularity ROADMAP
item 2 needs to find the next microsecond.

Accounting per sample (elapsed wall time ``dt`` since the previous
sample, split evenly across threads with a non-empty stack):

* **self time** — the innermost span name gets the share;
* **total time** — every distinct name on the stack gets the share;
* **collapsed stacks** — the ``outer;inner`` path's sample count, the
  flamegraph-compatible export (`flamegraph.pl`, speedscope, ...);
* samples where *no* thread has an open span accrue to
  ``unattributed_seconds`` — the denominator term that keeps the
  attribution honest.

Overhead is bounded by construction: the sampler does O(threads ×
stack depth) string work per tick, ~100 ticks/s at the default
interval.  ``benchmarks/perf_smoke.py`` gates the measured cost at 5%
of streaming throughput in CI.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Dict, List, Optional

from repro.obs.metrics import gauge
from repro.obs.tracing import thread_stacks

__all__ = [
    "StageProfiler",
    "get_profiler",
    "reset_profiler",
    "set_profiler",
]

#: Default wake-up interval in seconds (~100 Hz).
DEFAULT_INTERVAL = 0.01

#: Distinct collapsed stacks kept before new paths are dropped (the
#: span-stack paths of a pipeline are few; this is a safety bound).
MAX_COLLAPSED = 4096


class StageProfiler:
    """Background sampler attributing wall time to span-stack stages."""

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.interval = float(interval)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._self: Dict[str, float] = {}
        self._total: Dict[str, float] = {}
        self._collapsed: Dict[str, int] = {}
        self._samples = 0
        self._attributed_samples = 0
        self._attributed_seconds = 0.0
        self._unattributed_seconds = 0.0

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the sampling thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "StageProfiler":
        """Start the sampling thread (idempotent); returns self."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="elsa-profiler", daemon=True
        )
        self._thread.start()
        gauge("profiler.running").set(1.0)
        return self

    def stop(self) -> None:
        """Stop and join the sampling thread (idempotent)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        gauge("profiler.running").set(0.0)

    def __enter__(self) -> "StageProfiler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _loop(self) -> None:
        last = perf_counter()
        while not self._stop.wait(self.interval):
            now = perf_counter()
            self._tick(now - last)
            last = now

    # -- sampling --------------------------------------------------------------

    def _tick(self, dt: float) -> None:
        """Account one sample worth ``dt`` wall seconds.

        Factored out of the thread loop so tests can drive attribution
        deterministically.
        """
        live: List[List[str]] = [
            [sp.name for sp in stack]
            for _, stack in thread_stacks()
            if stack
        ]
        with self._lock:
            self._samples += 1
            if not live:
                self._unattributed_seconds += dt
                return
            self._attributed_samples += 1
            self._attributed_seconds += dt
            share = dt / len(live)
            for names in live:
                self._self[names[-1]] = (
                    self._self.get(names[-1], 0.0) + share
                )
                for name in set(names):
                    self._total[name] = self._total.get(name, 0.0) + share
                path = ";".join(names)
                if (
                    path in self._collapsed
                    or len(self._collapsed) < MAX_COLLAPSED
                ):
                    self._collapsed[path] = self._collapsed.get(path, 0) + 1

    # -- views -----------------------------------------------------------------

    def stats(self) -> dict:
        """JSON view for ``/profile``: per-stage self/total seconds."""
        with self._lock:
            attributed = self._attributed_seconds
            unattributed = self._unattributed_seconds
            sampled = attributed + unattributed
            return {
                "running": self.running,
                "interval": self.interval,
                "samples": self._samples,
                "attributed_samples": self._attributed_samples,
                "attributed_seconds": attributed,
                "unattributed_seconds": unattributed,
                "attributed_fraction": (
                    attributed / sampled if sampled > 0 else None
                ),
                "stages": {
                    name: {
                        "self_seconds": self._self.get(name, 0.0),
                        "total_seconds": self._total.get(name, 0.0),
                    }
                    for name in sorted(self._total)
                },
            }

    def top_stages(self, n: int = 10) -> List[dict]:
        """Stages by self time, descending — the dashboard table."""
        stats = self.stats()
        rows = [
            {"stage": name, **vals}
            for name, vals in stats["stages"].items()
        ]
        rows.sort(key=lambda r: (-r["self_seconds"], r["stage"]))
        return rows[:n]

    def collapsed(self) -> str:
        """Collapsed-stack export: one ``outer;inner count`` line per
        path, ready for flamegraph.pl / speedscope."""
        with self._lock:
            return "\n".join(
                f"{path} {count}"
                for path, count in sorted(self._collapsed.items())
            )

    def reset_stats(self) -> None:
        """Zero the accumulated tables (the thread keeps running)."""
        with self._lock:
            self._self.clear()
            self._total.clear()
            self._collapsed.clear()
            self._samples = 0
            self._attributed_samples = 0
            self._attributed_seconds = 0.0
            self._unattributed_seconds = 0.0


_default_profiler: Optional[StageProfiler] = None
_profiler_lock = threading.Lock()


def get_profiler() -> StageProfiler:
    """The process-wide default profiler (created stopped)."""
    global _default_profiler
    with _profiler_lock:
        if _default_profiler is None:
            _default_profiler = StageProfiler()
        return _default_profiler


def set_profiler(profiler: Optional[StageProfiler]) -> None:
    """Replace the default profiler (tests, custom intervals)."""
    global _default_profiler
    with _profiler_lock:
        old, _default_profiler = _default_profiler, profiler
    if old is not None:
        old.stop()


def reset_profiler() -> None:
    """Stop and drop the default profiler."""
    set_profiler(None)
