"""A resilient ingest client: the other half of at-least-once delivery.

:class:`IngestClient` speaks the :mod:`repro.fleet.ingest` contract
over any transport with a ``request(method, path, body, headers)``
method — the real :class:`HTTPTransport` here, or the wire-chaos
wrapper in :mod:`repro.resilience.wire` that the equivalence tests
interpose.  Delivery discipline:

* every batch carries a per-(tenant, stream) contiguous sequence
  number, so the server's ledger makes blind retries safe — the client
  retries *anything* that did not produce a definitive response, and a
  re-send of an already-applied batch comes back ``applied: false``;
* transport failures (connect refused, reset, timeout, chaos drops)
  back off exponentially with seeded jitter, bounded by
  ``max_attempts``;
* repeated connect failures trip a :class:`CircuitBreaker`; while it
  is open the client waits out the cooldown instead of hammering a
  down server (bounded by ``breaker_wait_max``);
* ``429``/``503`` responses honor the server's ``Retry-After`` hint
  (the JSON body's float when present, the header otherwise) without
  consuming retry attempts — pushback is flow control, not failure;
* ``409`` sequence gaps resynchronize from the server's ``expected``
  cursor when possible (only backwards — a forwards jump would skip
  records) and otherwise raise.

The client is synchronous and single-stream on purpose: one in-flight
request per client means a reordered wire can only reorder *duplicates*
of batches that were already answered, which the ledger discards —
part of the byte-identity argument, not just a simplification.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.resilience.breaker import CircuitBreaker

__all__ = [
    "ClientError",
    "HTTPTransport",
    "IngestClient",
    "IngestGaveUp",
    "Response",
    "SequenceGap",
    "TransportError",
]

log = obs.get_logger(__name__)


class TransportError(ConnectionError):
    """The request produced no definitive response; safe to retry."""


class ClientError(RuntimeError):
    """A definitive non-retryable rejection (4xx)."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class SequenceGap(ClientError):
    """The server expects a different batch sequence (409)."""


class IngestGaveUp(RuntimeError):
    """Retry budget exhausted without a definitive response."""


class Response:
    """One transport-level HTTP response."""

    def __init__(self, status: int, headers: Dict[str, str], body: bytes
                 ) -> None:
        self.status = int(status)
        self.headers = {k.lower(): v for k, v in headers.items()}
        self.body = body

    def json(self) -> dict:
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return {}


#: what a reused connection raises when the peer closed it while it sat
#: idle (a server restart or an idle timeout): ``RemoteDisconnected`` is
#: a ``ConnectionResetError``; a broken pipe when the close raced the send
_PEER_CLOSED = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)


class HTTPTransport:
    """Stdlib HTTP transport over one persistent HTTP/1.1 connection.

    Every request reuses one keep-alive connection, so a batch pays for
    its bytes instead of a TCP handshake and a new server thread.  The
    connection opens on first use and again after any failed request,
    after a reply that closes it, and when ``host`` or ``port`` change:
    they are plain attributes, so a test can repoint a live client at a
    restarted server.  A *reused* connection that the peer closed while
    it sat idle (a server restart, the server's idle timeout) fails
    before any answer; that request is retried once, at once, on a
    fresh connection, and counted in ``ingest_client.reconnects``.  The
    ledger dedupes the resend should the server have applied it.
    :meth:`close` drops the connection.  The connection is not shared
    safely between threads: give each thread its own transport (the
    client is synchronous, one request in flight).
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._conn: Optional[http.client.HTTPConnection] = None
        self._addr: Optional[Tuple[str, int]] = None

    def _connection(self) -> http.client.HTTPConnection:
        addr = (self.host, int(self.port))
        if self._conn is None or self._addr != addr:
            self.close()
            self._conn = http.client.HTTPConnection(
                addr[0], addr[1], timeout=self.timeout
            )
            self._addr = addr
        return self._conn

    def close(self) -> None:
        """Close the connection; the next request opens a new one."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        while True:
            conn = self._connection()
            reused = conn.sock is not None
            try:
                conn.request(method, path, body=body, headers=headers or {})
                resp = conn.getresponse()
                data = resp.read()
            except (OSError, http.client.HTTPException) as exc:
                # the connection's state is unknown: never reuse it
                self.close()
                if reused and isinstance(exc, _PEER_CLOSED):
                    obs.counter("ingest_client.reconnects").inc()
                    continue
                # refused/reset/timeout/BadStatusLine — all mean "no
                # definitive answer"; socket.timeout is an OSError
                raise TransportError(f"{type(exc).__name__}: {exc}") from exc
            return Response(resp.status, dict(resp.getheaders()), data)

    def send_raw(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
        declared_length: Optional[int] = None,
        pause_after: Optional[int] = None,
        pause_seconds: float = 0.0,
        sleep: Callable[[float], None] = time.sleep,
        await_response: bool = False,
    ) -> Optional[Response]:
        """Low-level send for wire-chaos shapes the high-level API forbids.

        ``declared_length`` larger than ``len(body)`` truncates the
        request mid-body (the server's read times out → 408);
        ``pause_after`` stalls ``pause_seconds`` after that many body
        bytes.  With ``await_response`` false the socket is abandoned
        after sending — the chaos "response dropped on the floor" case.
        """
        length = len(body) if declared_length is None else int(
            declared_length)
        head = [f"{method} {path} HTTP/1.1",
                f"Host: {self.host}:{self.port}",
                f"Content-Length: {length}",
                "Connection: close"]
        for key, value in (headers or {}).items():
            head.append(f"{key}: {value}")
        raw = ("\r\n".join(head) + "\r\n\r\n").encode("ascii")
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        try:
            sock.sendall(raw)
            if pause_after is not None and 0 <= pause_after < len(body):
                sock.sendall(body[:pause_after])
                sleep(pause_seconds)
                sock.sendall(body[pause_after:])
            else:
                sock.sendall(body)
            if not await_response:
                return None
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
            blob = b"".join(chunks)
            head_blob, _, payload = blob.partition(b"\r\n\r\n")
            lines = head_blob.decode("latin-1").split("\r\n")
            status = int(lines[0].split(" ", 2)[1])
            resp_headers = {}
            for line in lines[1:]:
                key, sep, value = line.partition(":")
                if sep:
                    resp_headers[key.strip()] = value.strip()
            return Response(status, resp_headers, payload)
        except OSError as exc:
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc
        finally:
            sock.close()


class IngestClient:
    """Batched at-least-once delivery with bounded, deterministic retries.

    Parameters
    ----------
    transport:
        Anything with ``request(method, path, body, headers)`` →
        :class:`Response`; swap in the chaos transport for tests.
    stream_id:
        The idempotency stream this client writes (one client = one
        writer per stream; sequence numbers are per (tenant, stream)).
    max_attempts:
        Definitive-failure budget per batch (transport errors + 408s).
    backoff_initial / backoff_factor / backoff_max / jitter:
        Exponential backoff ladder between retries; jitter is a
        multiplicative ±fraction drawn from a seeded RNG so tests
        replay identically.
    max_throttles:
        429/503 pushback budget per batch (separate from
        ``max_attempts`` — being told to wait is not a failure).
    sleep:
        Injectable sleep; the overload test passes a pump-the-fleet
        closure so waiting *is* what frees the queue.
    """

    def __init__(
        self,
        transport,
        stream_id: str = "s0",
        max_attempts: int = 8,
        backoff_initial: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_max: float = 2.0,
        jitter: float = 0.1,
        max_throttles: int = 256,
        retry_after_cap: float = 5.0,
        breaker_threshold: int = 4,
        breaker_cooldown: float = 0.5,
        breaker_wait_max: float = 30.0,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.transport = transport
        self.stream_id = str(stream_id)
        self.max_attempts = int(max_attempts)
        self.backoff_initial = float(backoff_initial)
        self.backoff_factor = float(backoff_factor)
        self.backoff_max = float(backoff_max)
        self.jitter = float(jitter)
        self.max_throttles = int(max_throttles)
        self.retry_after_cap = float(retry_after_cap)
        self.breaker_wait_max = float(breaker_wait_max)
        self.sleep = sleep
        self.rng = random.Random(seed)
        self.breaker = CircuitBreaker(
            "ingest_client",
            failure_threshold=int(breaker_threshold),
            cooldown_seconds=float(breaker_cooldown),
            clock=clock,
        )
        self._seq: Dict[str, int] = {}
        self.stats = {
            "batches": 0,
            "records": 0,
            "duplicates": 0,
            "retries": 0,
            "throttled": 0,
            "resyncs": 0,
        }
        self.last_retry_after: Optional[float] = None

    # -- sending -------------------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        base = min(
            self.backoff_max,
            self.backoff_initial * (self.backoff_factor ** attempt),
        )
        return base * (1.0 + self.jitter * (2.0 * self.rng.random() - 1.0))

    def _wait_for_breaker(self) -> None:
        waited = 0.0
        step = max(0.01, self.breaker.cooldown_seconds / 4.0)
        while not self.breaker.allow():
            if waited >= self.breaker_wait_max:
                raise IngestGaveUp(
                    "circuit breaker open past breaker_wait_max "
                    f"({self.breaker_wait_max}s): "
                    f"{self.breaker.last_error}"
                )
            self.sleep(step)
            waited += step

    def _request(self, method: str, path: str, body: bytes,
                 headers: Dict[str, str]) -> Response:
        """One definitive response, through breaker/backoff/Retry-After."""
        attempts = 0
        throttles = 0
        while True:
            self._wait_for_breaker()
            try:
                resp = self.transport.request(method, path, body, headers)
            except (TransportError, ConnectionError, OSError) as exc:
                self.breaker.record_failure(exc)
                attempts += 1
                self.stats["retries"] += 1
                obs.counter("ingest_client.retries").inc()
                if attempts >= self.max_attempts:
                    raise IngestGaveUp(
                        f"{method} {path}: no response after "
                        f"{attempts} attempts ({exc})"
                    ) from exc
                self.sleep(self._backoff(attempts - 1))
                continue
            self.breaker.record_success()
            if resp.status in (429, 503):
                throttles += 1
                self.stats["throttled"] += 1
                obs.counter("ingest_client.throttled").inc()
                if throttles >= self.max_throttles:
                    raise IngestGaveUp(
                        f"{method} {path}: still throttled after "
                        f"{throttles} pushbacks"
                    )
                self.sleep(self._retry_after(resp))
                continue
            if resp.status == 408:
                # the server timed out reading us; treat as transport
                attempts += 1
                self.stats["retries"] += 1
                obs.counter("ingest_client.retries").inc()
                if attempts >= self.max_attempts:
                    raise IngestGaveUp(
                        f"{method} {path}: {attempts} timeouts"
                    )
                self.sleep(self._backoff(attempts - 1))
                continue
            return resp

    def _retry_after(self, resp: Response) -> float:
        wait: Optional[float] = None
        payload = resp.json()
        if isinstance(payload.get("retry_after"), (int, float)):
            wait = float(payload["retry_after"])
        elif resp.headers.get("retry-after") is not None:
            try:
                wait = float(resp.headers["retry-after"])
            except ValueError:
                wait = None
        if wait is None:
            wait = self.backoff_initial
        wait = max(0.0, min(self.retry_after_cap, wait))
        self.last_retry_after = wait
        return wait

    # -- public API ----------------------------------------------------------

    def send_batch(self, tenant: str, records) -> dict:
        """Deliver one batch exactly-once-effectively; returns the ack.

        Raises :class:`ClientError` on definitive rejection (malformed,
        unknown tenant, sealed) and :class:`IngestGaveUp` past the
        retry budget.  A retried delivery acknowledged as a duplicate
        still advances the local sequence — the server applied it.
        """
        from repro.fleet.ingest import encode_records

        records = list(records)
        if not records:
            return {"applied": False, "records": 0}
        seq = self._seq.get(tenant, 0)
        body = encode_records(records)
        headers = {
            "Content-Type": "application/x-ndjson",
            "X-Stream-Id": self.stream_id,
            "X-Batch-Seq": str(seq),
        }
        while True:
            resp = self._request(
                "POST", f"/ingest/{tenant}", body, headers
            )
            payload = resp.json()
            if resp.status == 200:
                self._seq[tenant] = seq + 1
                self.stats["batches"] += 1
                self.stats["records"] += len(records)
                if payload.get("duplicate"):
                    self.stats["duplicates"] += 1
                    obs.counter("ingest_client.duplicate_acks").inc()
                return payload
            if resp.status == 409 and "expected" in payload:
                expected = int(payload["expected"])
                if expected < seq:
                    # a lost *ledger* (server restarted without its
                    # ledger file) — resend from the server's cursor;
                    # dedupe on the server keeps effects exactly-once
                    # only forward of its knowledge, so only a
                    # backwards resync is safe
                    self.stats["resyncs"] += 1
                    obs.counter("ingest_client.resyncs").inc()
                    seq = expected
                    headers["X-Batch-Seq"] = str(seq)
                    continue
                raise SequenceGap(resp.status, payload)
            raise ClientError(resp.status, payload)

    def feed(
        self,
        records,
        key: Callable[[str], str],
        batch_size: int = 256,
    ) -> dict:
        """Partition a stream by tenant and deliver it in order.

        Per-tenant record order is preserved (each tenant's buffer
        flushes in arrival order); cross-tenant interleaving is
        irrelevant — shards are shared-nothing.  Returns the running
        :attr:`stats` snapshot.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        buffers: Dict[str, List] = {}
        for rec in records:
            tenant = key(rec.location)
            buf = buffers.setdefault(tenant, [])
            buf.append(rec)
            if len(buf) >= batch_size:
                self.send_batch(tenant, buf)
                buf.clear()
        for tenant in sorted(buffers):
            if buffers[tenant]:
                self.send_batch(tenant, buffers[tenant])
        return dict(self.stats)

    def seal(self, tenant: str) -> dict:
        """Seal a tenant and return its final predictions payload."""
        resp = self._request("POST", f"/seal/{tenant}", b"", {})
        payload = resp.json()
        if resp.status != 200:
            raise ClientError(resp.status, payload)
        return payload

    def predictions(self, tenant: str) -> dict:
        """The tenant's predictions payload (partial unless sealed)."""
        resp = self._request("GET", f"/predictions/{tenant}", b"", {})
        payload = resp.json()
        if resp.status != 200:
            raise ClientError(resp.status, payload)
        return payload

    def tenants(self) -> dict:
        """The fleet's per-tenant health document."""
        resp = self._request("GET", "/tenants", b"", {})
        payload = resp.json()
        if resp.status != 200:
            raise ClientError(resp.status, payload)
        return payload
