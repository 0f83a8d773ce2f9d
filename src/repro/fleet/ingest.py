"""Network ingest frontend: the fleet's overload-safe write path.

This module turns the in-process :class:`~repro.fleet.runner.Fleet`
into a network service (ROADMAP item 1, after Park et al.'s streamed/
sharded log-analytics frontends) without weakening any of the fleet's
robustness contracts.  Three pieces:

* :class:`IngestLedger` — batch-level idempotency.  Every ``POST
  /ingest/<tenant>`` carries a stream id and a contiguous batch
  sequence number; the ledger records the last applied sequence per
  (tenant, stream) so an at-least-once client can retry blindly:
  ``seq <= last`` is acknowledged without re-applying (``applied:
  false``), ``seq == last+1`` applies, and ``seq > last+1`` is a 409
  gap the client must not skip over.  Exactly-once *effects* over an
  at-least-once wire — the property that keeps predictions
  byte-identical under duplicating/retrying networks.

* :class:`AdmissionController` — overload pushback.  A token bucket
  whose refill rate is scaled by the fleet's live queue headroom
  (``1 - depth/capacity``): as the pump falls behind, admission slows
  and finally stops, answering ``429`` with a computed ``Retry-After``.
  On top of the bucket a hard per-tenant check rejects any batch larger
  than the target shard's free queue slots, so an *admitted* batch can
  never push a queue past capacity — severity shedding stays a
  last-resort defense that admission makes unreachable from the network
  path (the zero-loss guarantee the overload test enforces).

* :class:`IngestAPI` — the HTTP contract, mounted on
  :class:`~repro.obs.live.TelemetryServer` via ``ingest_fn``.  All
  fleet access is serialized under one lock (shards are not
  thread-safe; handler threads and the pump loop must not interleave),
  and :meth:`drain` implements the graceful SIGTERM sequence: stop
  admission (503 + Retry-After), drain shard queues, force-checkpoint
  every tenant, persist the ledger — so a restarted server
  (``--resume``) continues byte-identically.

Durability note: a *graceful* drain loses nothing.  A hard kill
(SIGKILL, power) may lose records that were acked into a shard queue
but not yet fed past a checkpoint; the client's replay of the
unacknowledged tail plus the ledger's dedupe make the overlap safe,
but records acked strictly between the last checkpoint and a hard kill
are gone — the same at-least-once window every checkpointed stream
processor has.  ``docs/resilience.md`` §7 documents the contract.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from math import isfinite
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.columnar import RecordBatch
from repro.fleet.runner import Fleet
from repro.fleet.shard import ShardState
from repro.obs.live import TelemetryServer
from repro.obs.slo import SLOSpec, _fresh_state
from repro.simulation.trace import Severity, parse_timestamp

__all__ = [
    "AdmissionController",
    "IngestAPI",
    "IngestConfig",
    "IngestLedger",
    "IngestServer",
    "decode_batch",
    "encode_records",
    "ingest_slos",
]

log = obs.get_logger(__name__)

#: wire field names for one NDJSON record object (kept short: ingest is
#: the hot path and the encoding is symmetric with the client)
_FIELDS = ("t", "loc", "sev", "msg")
_FIELD_SET = frozenset(_FIELDS)

#: JSON spellings of the non-finite floats ``float.__repr__`` writes as
#: ``nan``/``inf``/``-inf`` (``json.dumps`` allows them by default)
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
#: severity ladder value -> its wire text, and -> itself on decode; a
#: lookup accepts the ints, bools and integral floats ``int`` would
_SEVERITY_TEXT = {int(s): str(int(s)) for s in Severity}
_SEVERITY_VALUE = {int(s): int(s) for s in Severity}

_float_repr = float.__repr__
_json_str = json.encoder.encode_basestring_ascii


def _record_json(rec) -> str:
    """One record as ``json.dumps`` writes its row dict (the general case)."""
    row = {
        "t": rec.timestamp,
        "loc": rec.location,
        "sev": int(rec.severity),
        "msg": rec.message,
    }
    return json.dumps(row, separators=(",", ":"))


def encode_records(records) -> bytes:
    """Records → NDJSON bytes (one compact JSON object per line).

    Timestamps ride as JSON floats (``repr`` round-trip, no precision
    loss — unlike the ``%.3f`` text log format, which is why the wire
    uses NDJSON and not log lines) and severities as their integer
    ladder values.  The output is byte-identical to ``json.dumps`` of
    each record's ``{"t", "loc", "sev", "msg"}`` dict with compact
    separators; a record's ``event_type``/``fault_id`` are not sent.
    ``records`` is any iterable of records, a
    :class:`~repro.columnar.RecordBatch` included.  A record with a
    float timestamp, string location and message and a ladder severity
    is formatted directly, with the functions ``json`` itself uses for
    floats and strings; any other record goes through ``json.dumps``.
    """
    lines = []
    append = lines.append
    for rec in records:
        try:
            stamp = _float_repr(rec.timestamp)
            append(
                f'{{"t":{_NON_FINITE.get(stamp, stamp)},'
                f'"loc":{_json_str(rec.location)},'
                f'"sev":{_SEVERITY_TEXT[rec.severity]},'
                f'"msg":{_json_str(rec.message)}}}'
            )
        except (TypeError, KeyError):
            append(_record_json(rec))
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def _convert_row(row: dict, lineno: int) -> tuple:
    """Convert one decoded row field by field: the strict general case.

    Accepts whatever ``float``, ``str`` and ``int`` accept and a ladder
    severity allows; anything else raises ``ValueError`` naming the line.
    """
    try:
        t = parse_timestamp(row["t"])
        loc = str(row["loc"])
        sev = int(Severity(int(row["sev"])))
        msg = str(row["msg"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    return t, loc, sev, msg


def decode_batch(body: bytes, max_records: Optional[int] = None
                 ) -> RecordBatch:
    """NDJSON bytes → :class:`RecordBatch`; ``ValueError`` if malformed.

    Strict on purpose: a half-applied batch cannot be deduplicated, so
    any malformed line — bad JSON, a missing or unknown field (the
    generator's ``et``/``fid`` included), a non-finite timestamp, a
    number no field can hold — rejects the whole batch *before*
    anything is routed (400 to the client, nothing entered the fleet).
    ``ValueError`` is the only exception raised.  Rows land directly in
    columns with locations interned once.

    A row shaped as :func:`encode_records` writes it (finite number
    ``t``, string ``loc``/``msg``, ladder ``sev``) is taken as is; any
    other row goes through :func:`_convert_row`, which accepts or
    rejects it field by field.
    """
    ts: List[float] = []
    lids: List[int] = []
    sevs: List[int] = []
    msgs: List[str] = []
    pool: List[str] = []
    index: dict = {}
    loads = json.loads
    text = body.decode("utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if max_records is not None and len(ts) >= max_records:
            raise ValueError(f"batch exceeds {max_records} records")
        try:
            row = loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"line {lineno}: bad JSON ({exc})") from None
        if type(row) is not dict:
            raise ValueError(f"line {lineno}: expected an object")
        if not row.keys() <= _FIELD_SET:
            raise ValueError(
                f"line {lineno}: unknown fields "
                f"{sorted(row.keys() - _FIELD_SET)}"
            )
        try:
            t = float(row["t"])
            sev = _SEVERITY_VALUE[row["sev"]]
            loc = row["loc"]
            msg = row["msg"]
            if not (isfinite(t) and type(loc) is str and type(msg) is str):
                raise ValueError
        except (KeyError, TypeError, ValueError, OverflowError):
            t, loc, sev, msg = _convert_row(row, lineno)
        lid = index.get(loc)
        if lid is None:
            lid = len(pool)
            index[loc] = lid
            pool.append(loc)
        ts.append(t)
        lids.append(lid)
        sevs.append(sev)
        msgs.append(msg)
    return RecordBatch(
        np.asarray(ts, dtype=np.float64),
        np.asarray(lids, dtype=np.int32),
        np.asarray(sevs, dtype=np.int8),
        msgs,
        pool,
        loc_index=index,
    )


class IngestConfig:
    """Tunables for the ingest frontend (all have serving defaults)."""

    def __init__(
        self,
        max_body_bytes: int = 8 << 20,
        max_batch_records: int = 8192,
        admission_capacity: float = 16384.0,
        admission_rate: float = 50000.0,
        retry_after_min: float = 0.05,
        retry_after_max: float = 5.0,
        streams_per_tenant: int = 64,
    ) -> None:
        self.max_body_bytes = int(max_body_bytes)
        self.max_batch_records = int(max_batch_records)
        self.admission_capacity = float(admission_capacity)
        self.admission_rate = float(admission_rate)
        self.retry_after_min = float(retry_after_min)
        self.retry_after_max = float(retry_after_max)
        self.streams_per_tenant = int(streams_per_tenant)


class IngestLedger:
    """Last-applied batch sequence per (tenant, stream) — the dedupe.

    Sequences are contiguous from 0 per stream.  The ledger is tiny
    (two small dict levels, bounded streams per tenant with LRU
    eviction) and persisted atomically next to the shard checkpoints on
    graceful drain, so a restarted server keeps refusing to re-apply
    batches the previous incarnation already fed.
    """

    VERSION = 1

    def __init__(self, path: Optional[os.PathLike] = None,
                 streams_per_tenant: int = 64) -> None:
        self.path = Path(path) if path is not None else None
        self.streams_per_tenant = int(streams_per_tenant)
        self._last: Dict[str, "OrderedDict[str, int]"] = {}

    def check(self, tenant: str, stream: str, seq: int) -> str:
        """``"apply"`` / ``"duplicate"`` / ``"gap"`` for this sequence."""
        streams = self._last.get(tenant)
        last = None if streams is None else streams.get(stream)
        if last is None:
            return "apply" if seq == 0 else "gap"
        if seq <= last:
            return "duplicate"
        if seq == last + 1:
            return "apply"
        return "gap"

    def expected(self, tenant: str, stream: str) -> int:
        """The next sequence this stream must send."""
        streams = self._last.get(tenant)
        last = None if streams is None else streams.get(stream)
        return 0 if last is None else last + 1

    def advance(self, tenant: str, stream: str, seq: int) -> None:
        """Record ``seq`` as applied (call only after routing succeeds)."""
        streams = self._last.setdefault(tenant, OrderedDict())
        streams[stream] = int(seq)
        streams.move_to_end(stream)
        while len(streams) > self.streams_per_tenant:
            streams.popitem(last=False)
            obs.counter("ingest.ledger_streams_evicted").inc()

    def save(self) -> None:
        """Atomic persist (tmp + rename), the graceful-drain step."""
        if self.path is None:
            return
        doc = {
            "version": self.VERSION,
            "tenants": {
                tenant: dict(streams)
                for tenant, streams in self._last.items()
            },
        }
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        os.replace(tmp, self.path)

    def load(self) -> bool:
        """Adopt a persisted ledger; returns whether one existed."""
        if self.path is None or not self.path.exists():
            return False
        doc = json.loads(self.path.read_text(encoding="utf-8"))
        if doc.get("version") != self.VERSION:
            raise ValueError(
                f"unsupported ingest ledger version {doc.get('version')!r}"
            )
        self._last = {
            tenant: OrderedDict(
                (stream, int(seq)) for stream, seq in streams.items()
            )
            for tenant, streams in doc.get("tenants", {}).items()
        }
        return True

    def info(self) -> dict:
        return {
            "tenants": len(self._last),
            "streams": sum(len(s) for s in self._last.values()),
        }


class AdmissionController:
    """Token bucket whose refill follows the fleet's queue headroom.

    ``try_admit(n)`` spends ``n`` tokens (one per record) when
    available; otherwise it answers ``(False, retry_after)`` where
    ``retry_after`` estimates when the deficit will have refilled at
    the *current* headroom-scaled rate.  With headroom 0 (queues
    saturated) nothing refills and the retry hint maxes out — the
    client backs off until the pump catches up.
    """

    def __init__(
        self,
        capacity: float,
        rate: float,
        headroom_fn,
        clock=time.monotonic,
        retry_after_min: float = 0.05,
        retry_after_max: float = 5.0,
    ) -> None:
        if capacity <= 0 or rate <= 0:
            raise ValueError("capacity and rate must be positive")
        self.capacity = float(capacity)
        self.rate = float(rate)
        self.headroom_fn = headroom_fn
        self.clock = clock
        self.retry_after_min = float(retry_after_min)
        self.retry_after_max = float(retry_after_max)
        self.tokens = float(capacity)
        self._lock = threading.Lock()
        self._last_refill = clock()

    def _refill(self) -> float:
        now = self.clock()
        dt = max(0.0, now - self._last_refill)
        self._last_refill = now
        headroom = max(0.0, min(1.0, float(self.headroom_fn())))
        self.tokens = min(
            self.capacity, self.tokens + self.rate * headroom * dt
        )
        return headroom

    def try_admit(self, n: int) -> Tuple[bool, float]:
        """Spend ``n`` tokens or advise how long to wait."""
        with self._lock:
            headroom = self._refill()
            if n <= self.tokens:
                self.tokens -= n
                return True, 0.0
            if headroom <= 0.0:
                return False, self.retry_after_max
            deficit = n - self.tokens
            wait = deficit / (self.rate * headroom)
            return False, max(
                self.retry_after_min, min(self.retry_after_max, wait)
            )


def ingest_slos() -> List[SLOSpec]:
    """Burn-rate objectives for the ingest frontend."""
    return [
        SLOSpec(
            name="ingest_reject_rate",
            description="admission keeps 429 pushback rare",
            metric="ingest.rejected",
            mode="delta_max",
            threshold=256.0,
            fast_window=300.0,
            slow_window=1800.0,
            runbook="runbook-ingest-reject-rate",
        ),
        SLOSpec(
            name="ingest_request_p99",
            description="p99 ingest request handling under 250ms",
            metric="ingest.request_seconds",
            mode="quantile_max",
            threshold=0.25,
            q=0.99,
            fast_window=300.0,
            slow_window=1800.0,
            runbook="runbook-ingest-latency",
        ),
        SLOSpec(
            name="ingest_timeout_rate",
            description="stalled/slowloris connections stay rare",
            metric="telemetry.request_timeouts",
            mode="delta_max",
            threshold=16.0,
            fast_window=300.0,
            slow_window=1800.0,
            runbook="runbook-ingest-timeouts",
        ),
    ]


class IngestAPI:
    """The HTTP ingest contract over one fleet.

    Mounted on a :class:`~repro.obs.live.TelemetryServer` through its
    ``ingest_fn`` hook; every handler thread funnels through
    :meth:`handle_request`, which serializes fleet access under one
    re-entrant lock shared with the pump loop (:meth:`pump_once`).

    Routes (all bodies JSON; POST bodies NDJSON):

    * ``POST /ingest/<tenant>`` with ``X-Stream-Id``/``X-Batch-Seq``
      headers → 200 ``{"applied": true|false, ...}``, 400 malformed,
      404 unknown tenant, 409 sequence gap or sealed tenant, 413
      oversized batch, 429 + ``Retry-After`` admission pushback,
      503 + ``Retry-After`` draining;
    * ``GET /predictions/<tenant>`` → predictions so far (``"sealed":
      false``) or the final sorted list once sealed;
    * ``GET /tenants`` and ``GET /tenants/<tenant>`` → shard health;
    * ``POST /seal/<tenant>`` → drain the fleet, seal the tenant,
      return its final predictions (idempotent);
    * ``POST /drain`` → the graceful-drain sequence; returns the
      summary the CLI turns into exit code 0/3.
    """

    def __init__(
        self,
        fleet: Fleet,
        config: Optional[IngestConfig] = None,
        ledger_path: Optional[os.PathLike] = None,
        resume: bool = False,
        clock=time.monotonic,
    ) -> None:
        self.fleet = fleet
        self.config = config or IngestConfig()
        self.clock = clock
        self.lock = threading.RLock()
        self.draining = False
        self.drained: Optional[dict] = None
        self.ledger = IngestLedger(
            ledger_path, streams_per_tenant=self.config.streams_per_tenant
        )
        if resume and self.ledger.load():
            log.info(
                "ingest ledger resumed",
                extra=obs.logging.kv(**self.ledger.info()),
            )
        self.admission = AdmissionController(
            self.config.admission_capacity,
            self.config.admission_rate,
            fleet.queue_headroom,
            clock=clock,
            retry_after_min=self.config.retry_after_min,
            retry_after_max=self.config.retry_after_max,
        )
        self._install_slos()

    # the payload cap TelemetryServer enforces before reading the body
    @property
    def max_body_bytes(self) -> int:
        return self.config.max_body_bytes

    def _install_slos(self) -> None:
        engine = self.fleet.slo
        if engine is None:
            return
        have = {spec.name for spec in engine.specs}
        for spec in ingest_slos():
            if spec.name not in have:
                engine.specs.append(spec)
                engine._state.setdefault(spec.name, _fresh_state())

    # -- pump loop -----------------------------------------------------------

    def pump_once(self) -> int:
        """One locked fleet pump pass (the serve loop's heartbeat)."""
        with self.lock:
            return self.fleet.pump()

    # -- request funnel ------------------------------------------------------

    def handle_request(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Optional[Tuple[int, dict, Dict[str, str]]]:
        """Route one request; ``None`` for paths this API does not own."""
        parts = [p for p in path.split("/") if p]
        head = parts[0] if parts else ""
        handler = None
        if method == "POST" and head == "ingest" and len(parts) == 2:
            handler = lambda: self._ingest(parts[1], headers, body)
        elif method == "GET" and head == "predictions" and len(parts) == 2:
            handler = lambda: self._predictions(parts[1])
        elif method == "GET" and head == "tenants" and len(parts) <= 2:
            handler = lambda: self._tenants(parts[1] if len(parts) == 2
                                            else None)
        elif method == "POST" and head == "seal" and len(parts) == 2:
            handler = lambda: self._seal(parts[1])
        elif method == "POST" and head == "drain" and len(parts) == 1:
            handler = lambda: (200, self.drain(), {})
        if handler is None:
            return None
        t0 = perf_counter()
        try:
            code, payload, extra = handler()
        finally:
            obs.histogram(
                "ingest.request_seconds", buckets=obs.metrics.TIME_BUCKETS
            ).observe(perf_counter() - t0)
        obs.counter("ingest.requests").inc()
        obs.counter("ingest.requests").labels(status=str(code)).inc()
        return code, payload, extra

    # -- handlers ------------------------------------------------------------

    def _retry_headers(self, retry_after: float) -> Dict[str, str]:
        # ceil'd to the header's integer-seconds grammar, floor 1 —
        # the JSON body carries the precise float for our own client
        return {"Retry-After": str(max(1, int(retry_after + 0.999)))}

    def _ingest(
        self, tenant: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, dict, Dict[str, str]]:
        with self.lock:
            if self.draining:
                retry = self.config.retry_after_max
                obs.counter("ingest.rejected").inc()
                obs.counter("ingest.rejected").labels(
                    reason="draining").inc()
                return 503, {
                    "error": "draining",
                    "retry_after": retry,
                }, self._retry_headers(retry)
            shard = self.fleet.shards.get(tenant)
            if shard is None:
                return 404, {
                    "error": f"unknown tenant {tenant!r}",
                    "tenants": sorted(self.fleet.shards),
                }, {}
            if shard.predictions is not None:
                return 409, {"error": f"tenant {tenant!r} is sealed"}, {}
            try:
                records = decode_batch(
                    body, max_records=self.config.max_batch_records
                )
            except ValueError as exc:
                obs.counter("ingest.malformed_batches").inc()
                if "exceeds" in str(exc):
                    return 413, {"error": str(exc)}, {}
                return 400, {"error": str(exc)}, {}
            if not records:
                return 400, {"error": "empty batch"}, {}

            stream = headers.get("x-stream-id", "default")
            raw_seq = headers.get("x-batch-seq")
            seq: Optional[int] = None
            if raw_seq is not None:
                try:
                    seq = int(raw_seq)
                except ValueError:
                    return 400, {
                        "error": f"bad X-Batch-Seq {raw_seq!r}",
                    }, {}
                verdict = self.ledger.check(tenant, stream, seq)
                if verdict == "duplicate":
                    obs.counter("ingest.batches_duplicate").inc()
                    return 200, {
                        "applied": False,
                        "duplicate": True,
                        "tenant": tenant,
                        "stream": stream,
                        "seq": seq,
                    }, {}
                if verdict == "gap":
                    return 409, {
                        "error": "sequence gap",
                        "tenant": tenant,
                        "stream": stream,
                        "seq": seq,
                        "expected": self.ledger.expected(tenant, stream),
                    }, {}

            # overload pushback, both gates *before* anything routes:
            # the shard queue must hold the whole batch (admitted
            # batches never shed) and the bucket must have tokens
            free = shard.free_slots()
            if len(records) > free:
                retry = self._queue_retry(shard, len(records) - free)
                obs.counter("ingest.rejected").inc()
                obs.counter("ingest.rejected").labels(
                    reason="queue_full").inc()
                return 429, {
                    "error": "tenant queue full",
                    "tenant": tenant,
                    "free_slots": free,
                    "batch": len(records),
                    "retry_after": retry,
                }, self._retry_headers(retry)
            ok, retry = self.admission.try_admit(len(records))
            if not ok:
                obs.counter("ingest.rejected").inc()
                obs.counter("ingest.rejected").labels(
                    reason="admission").inc()
                return 429, {
                    "error": "admission throttled",
                    "tenant": tenant,
                    "batch": len(records),
                    "retry_after": retry,
                }, self._retry_headers(retry)

            verdicts = {
                v: c for v, c in self.fleet.route_batch(records).items()
                if c
            }
            if seq is not None:
                self.ledger.advance(tenant, stream, seq)
            obs.counter("ingest.batches_applied").inc()
            obs.counter("ingest.records").inc(len(records))
            return 200, {
                "applied": True,
                "tenant": tenant,
                "stream": stream,
                "seq": seq,
                "records": len(records),
                "verdicts": verdicts,
                "queue_depth": len(shard.queue),
            }, {}

    def _queue_retry(self, shard, overflow: int) -> float:
        # how long until the pump frees `overflow` slots, at the
        # chunk-per-pass drain rate; crude but monotone in the backlog
        per_pass = max(1, self.fleet.policy.chunk_records)
        passes = 1 + overflow // per_pass
        wait = passes * 0.05
        return max(
            self.config.retry_after_min,
            min(self.config.retry_after_max, wait),
        )

    def _predictions(self, tenant: str) -> Tuple[int, dict, Dict[str, str]]:
        with self.lock:
            shard = self.fleet.shards.get(tenant)
            if shard is None:
                return 404, {
                    "error": f"unknown tenant {tenant!r}",
                    "tenants": sorted(self.fleet.shards),
                }, {}
            sealed = shard.predictions is not None
            preds = shard.partial_predictions()
            return 200, {
                "tenant": tenant,
                "sealed": sealed,
                "count": len(preds),
                "records_fed": shard.records_fed,
                "queue_depth": len(shard.queue),
                "predictions": [p.to_dict() for p in preds],
            }, {}

    def _tenants(self, tenant: Optional[str]
                 ) -> Tuple[int, dict, Dict[str, str]]:
        with self.lock:
            if tenant is None:
                return 200, {
                    "tenants": {
                        name: shard.info()
                        for name, shard in sorted(self.fleet.shards.items())
                    },
                    "router": self.fleet.router.info(),
                    "ledger": self.ledger.info(),
                    "draining": self.draining,
                }, {}
            shard = self.fleet.shards.get(tenant)
            if shard is None:
                return 404, {
                    "error": f"unknown tenant {tenant!r}",
                    "tenants": sorted(self.fleet.shards),
                }, {}
            return 200, shard.info(), {}

    def _seal(self, tenant: str) -> Tuple[int, dict, Dict[str, str]]:
        with self.lock:
            shard = self.fleet.shards.get(tenant)
            if shard is None:
                return 404, {
                    "error": f"unknown tenant {tenant!r}",
                    "tenants": sorted(self.fleet.shards),
                }, {}
            if shard.predictions is None:
                self.fleet.drain()
                shard.finish()
                obs.counter("ingest.tenants_sealed").inc()
            return self._predictions(tenant)

    # -- graceful drain ------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admission; in-flight and future POSTs answer 503."""
        with self.lock:
            if not self.draining:
                self.draining = True
                obs.gauge("ingest.draining").set(1.0)
                log.info("ingest draining: admission stopped")

    def drain(self) -> dict:
        """The full graceful sequence; idempotent, returns the summary.

        Stop admission → pump the queues dry (due restarts included) →
        force-checkpoint every unsealed tenant → persist the ledger.
        The summary's ``degraded`` flag feeds the CLI exit code: any
        quarantined tenant, shed record, or dead letter marks the drain
        degraded (exit 3), a clean drain exits 0.
        """
        self.begin_drain()
        with self.lock:
            if self.drained is not None:
                return self.drained
            self.fleet.drain()
            checkpointed = self.fleet.checkpoint_all()
            self.ledger.save()
            stats = self.fleet.router.stats
            quarantined = sorted(
                t for t, s in self.fleet.shards.items()
                if s.state is ShardState.QUARANTINED
            )
            summary = {
                "drained": True,
                "checkpointed": checkpointed,
                "routed": stats.get("routed", 0),
                "shed": stats.get("shed", 0),
                "dead_lettered": stats.get("dead_lettered", 0),
                "quarantined": quarantined,
                "ledger": self.ledger.info(),
                "degraded": bool(
                    quarantined
                    or stats.get("shed", 0)
                    or stats.get("dead_lettered", 0)
                ),
            }
            self.drained = summary
            obs.gauge("ingest.drained").set(1.0)
            log.info(
                "ingest drained",
                extra=obs.logging.kv(
                    checkpointed=checkpointed,
                    degraded=summary["degraded"],
                ),
            )
            return summary


class IngestServer(TelemetryServer):
    """A :class:`TelemetryServer` with an :class:`IngestAPI` mounted.

    Everything the read-only server offers (``/metrics``, ``/fleet``,
    ...) plus the write path; ``request_timeout_seconds`` guards every
    connection against slowloris clients and closes kept-alive ones
    left idle that long.
    """

    def __init__(
        self,
        api: IngestAPI,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout_seconds: Optional[float] = 30.0,
        **kwargs,
    ) -> None:
        self.api = api
        super().__init__(
            host=host,
            port=port,
            ingest_fn=lambda: api,
            request_timeout_seconds=request_timeout_seconds,
            **kwargs,
        )
