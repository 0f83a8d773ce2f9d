"""Layer spans for the traced run, wrapped around the program's functions.

:data:`LAYERS` names, for each layer, the public functions whose calls it
times.  :class:`Tracer` swaps those attributes for timing wrappers while
it is installed and puts the originals back afterwards, so the program's
own files are untouched.  Each call records one span: layer name, start,
end, parent span and a request id.  Spans stay in memory; the benchmark
writes them once, at the end.

A layer's self time is its spans' duration minus the part their child
spans cover.  A call into a layer from inside the same layer (for
example ``Fleet.build`` constructing each shard's ``ResumableRun``) is
folded into the outer span, so calls count entries into the layer.
"""

from __future__ import annotations

import functools
import gc
import importlib
import threading
from collections import defaultdict, deque
from time import perf_counter

#: layer -> "module:Qualified.attribute" targets
LAYERS = {
    "parse": ["repro.helo.batch:parse_lines_batch"],
    "sanitize": ["repro.resilience.stream:sanitize_batch"],
    "classify": ["repro.helo.online:OnlineHELO.observe_tokens_batch",
                 "repro.helo.online:OnlineHELO.observe_many"],
    "feed": ["repro.prediction.streaming:StreamingHybridPredictor.feed"],
    "tick": ["repro.signals.bank:VectorizedDetectorBank.tick_many",
             "repro.signals.bank:VectorizedDetectorBank.tick"],
    "locate": ["repro.location.propagation:LocationPredictor.predict"],
    "finish": ["repro.prediction.streaming:StreamingHybridPredictor.finish"],
    "checkpoint": ["repro.resilience.checkpoint:save_checkpoint"],
    "history": ["repro.obs.history:MetricHistory.sample"],
    "slo": ["repro.obs.slo:SLOEngine.evaluate"],
    "route": ["repro.fleet.router:IngestionRouter.route_batch"],
    "enqueue": ["repro.fleet.shard:Shard.offer_batch"],
    "pump": ["repro.fleet.runner:Fleet.pump"],
    "step": ["repro.fleet.shard:Shard.step"],
    "feed_chunk": ["repro.resilience.checkpoint:ResumableRun.feed_chunk"],
    "supervise": ["repro.fleet.supervisor:ShardSupervisor.tick"],
    "http": ["repro.obs.live:_Handler.do_POST",
             "repro.obs.live:_Handler.do_GET"],
    "decode": ["repro.fleet.ingest:decode_batch"],
    "admit": ["repro.fleet.ingest:AdmissionController.try_admit"],
    "ledger": ["repro.fleet.ingest:IngestLedger.check",
               "repro.fleet.ingest:IngestLedger.advance"],
    "api_pump": ["repro.fleet.ingest:IngestAPI.pump_once"],
    "encode": ["repro.fleet.ingest:encode_records"],
    "send": ["repro.fleet.client:HTTPTransport.request"],
    "fit": ["repro.core.elsa:ELSA.fit"],
    "build": ["repro.fleet.runner:Fleet.build",
              "repro.resilience.checkpoint:ResumableRun.__init__"],
}

#: layers whose spans come from set-up rather than from the timed passes
SETUP_LAYERS = ("fit", "build")

#: calls that are not layers but name the request their layer calls serve
REQUEST_CONTEXTS = ["repro.fleet.client:IngestClient.send_batch"]


def _resolve(target):
    module_name, _, qual = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qual.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, attr


def _request_id(layer, args):
    """(stream id, tenant, batch seq) of an ingest request, else None."""
    if layer == "http":
        handler = args[0]
        parts = [p for p in handler.path.split("?")[0].split("/") if p]
        tenant = parts[1] if len(parts) == 2 else None
        stream = handler.headers.get("X-Stream-Id")
        seq = handler.headers.get("X-Batch-Seq")
        if stream is not None and seq is not None:
            return f"{stream}/{tenant}/{seq}"
        return f"{handler.command} {handler.path}"
    if layer == "send":
        path = args[2] if len(args) > 2 else ""
        headers = (args[4] if len(args) > 4 else None) or {}
        seq = headers.get("X-Batch-Seq")
        if seq is not None:
            tenant = path.rstrip("/").rsplit("/", 1)[-1]
            return f"{headers.get('X-Stream-Id')}/{tenant}/{seq}"
        return f"{args[1]} {path}"
    return None


class Tracer:
    """Installs layer wrappers and keeps the spans and counts they record.

    A span is ``[layer, start, end, parent, request_id]``; ``parent`` is
    the enclosing span object on the same thread (or None).  ``counts``
    holds per-layer work counters filled by the hooks below.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.active = False
        self._local = threading.local()
        self._saved = []
        self._queues = defaultdict(deque)  # shard -> [enqueue time, n]
        self.queue_waits = []  # (wait seconds, records)
        self._lock = threading.Lock()

    # -- installation --------------------------------------------------------

    def install(self):
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, attr = _resolve(target)
                raw = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, raw.__func__))
                else:
                    wrapped = self._wrap(layer, raw)
                setattr(owner, attr, wrapped)
        for target in REQUEST_CONTEXTS:
            owner, attr = _resolve(target)
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._context(raw))
        self.active = True

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        self.active = False

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _context(self, fn):
        """``IngestClient.send_batch``: spans inside it carry its batch id."""
        local = self._local

        @functools.wraps(fn)
        def wrapper(client, tenant, records):
            seq = client._seq.get(tenant, 0)
            local.request = f"{client.stream_id}/{tenant}/{seq}"
            try:
                return fn(client, tenant, records)
            finally:
                local.request = None

        return wrapper

    def _wrap(self, layer, fn):
        tracer = self
        hook = getattr(self, "_count_" + layer, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == layer:
                return fn(*args, **kwargs)
            rid = _request_id(layer, args)
            if rid is None:
                rid = parent[4] if parent is not None else getattr(
                    tracer._local, "request", None)
            span = [layer, perf_counter(), 0.0, parent, rid]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if hook is not None:
                hook(span, args, result)
            return result

        return wrapper

    # -- per-layer work counters (called after a successful call) -----------

    def _add(self, key, value):
        with self._lock:
            self.counts[key] += value

    def _count_parse(self, span, args, result):
        self._add("parse.records", len(result))

    def _count_sanitize(self, span, args, result):
        stats = result[1]
        for key in ("deduplicated", "dropped_late"):
            self._add("sanitize." + key, stats.get(key, 0))

    def _count_classify(self, span, args, result):
        self._add("classify.records", len(result))

    def _count_feed(self, span, args, result):
        self._add("feed.records", len(args[1]))

    def _count_tick(self, span, args, result):
        values = args[1]
        samples = values.shape[1] if getattr(values, "ndim", 1) == 2 else 1
        self._add("tick.samples", samples)
        self._add("tick.flags", int(result[0].sum()))

    def _count_checkpoint(self, span, args, result):
        import os

        self._add("checkpoint.bytes", os.path.getsize(args[0]))

    def _count_enqueue(self, span, args, result):
        shard = args[0]
        n = result.get("accepted", 0)
        with self._lock:
            if n:
                self._queues[id(shard)].append([span[1], n])
            depth = float(len(shard.queue))
            if depth > self.counts["queue.depth_max"]:
                self.counts["queue.depth_max"] = depth

    def _count_step(self, span, args, result):
        self._add("step.records", result)
        left = result
        with self._lock:
            fifo = self._queues[id(args[0])]
            while left and fifo:
                head = fifo[0]
                take = min(left, head[1])
                self.queue_waits.append((span[1] - head[0], take))
                head[1] -= take
                left -= take
                if not head[1]:
                    fifo.popleft()

    def _count_decode(self, span, args, result):
        self._add("decode.records", len(result))

    # -- summaries -----------------------------------------------------------

    def summary(self):
        """JSON-ready totals: per-layer calls/self/inclusive seconds, the
        work counters, queue waits and the top-level span intervals."""
        child = defaultdict(float)
        for span in self.spans:
            if span[3] is not None:
                child[id(span[3])] += span[2] - span[1]
        per_layer = {}
        for span in self.spans:
            row = per_layer.setdefault(span[0], [0, 0.0, 0.0])
            dur = span[2] - span[1]
            row[0] += 1
            row[1] += dur - child[id(span)]
            row[2] += dur
        return {
            "layers": per_layer,
            "counts": dict(self.counts),
            "waits": list(self.queue_waits),
            "top": [(s[1], s[2]) for s in self.spans if s[3] is None],
        }

    def export(self):
        """Spans as JSON-ready rows with integer ids for parents."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2],
             "parent": None if s[3] is None else ids.get(id(s[3])),
             "request": s[4]}
            for i, s in enumerate(self.spans)
        ]


def merge(a, b):
    """One summary covering what two processes traced in the same pass."""
    out = {"layers": {}, "counts": dict(a["counts"]),
           "waits": [tuple(w) for w in a["waits"] + b["waits"]],
           "top": [tuple(t) for t in a["top"] + b["top"]]}
    for part in (a, b):
        for layer, row in part["layers"].items():
            acc = out["layers"].setdefault(layer, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
    for key, value in b["counts"].items():
        if key == "queue.depth_max":
            value = max(value, out["counts"].get(key, 0.0))
            out["counts"][key] = value
        else:
            out["counts"][key] = out["counts"].get(key, 0.0) + value
    return out


def covered(intervals, lo, hi):
    """Seconds of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class GCWatch:
    """Collector pause time and full collections, via ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.full = 0
        self._t0 = None

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = perf_counter()
        elif self._t0 is not None:
            self.pause_s += perf_counter() - self._t0
            self._t0 = None
            if info.get("generation") == 2:
                self.full += 1

    def start(self):
        gc.callbacks.append(self)
        return self

    def stop(self):
        if self in gc.callbacks:
            gc.callbacks.remove(self)

    def reset(self):
        self.pause_s = 0.0
        self.full = 0
