"""Live telemetry: Prometheus exposition + a zero-dependency HTTP server.

A ``--metrics-out`` dump shows a run post-mortem; a running predictor
deserves to be watched *while it runs* (Park et al.'s extreme-scale
log-analytics systems treat real-time monitoring endpoints as a
first-class subsystem).  This module renders the process-local
:class:`~repro.obs.metrics.MetricsRegistry` in the Prometheus text
exposition format — the registry's counter/gauge/histogram model maps
1:1 — and serves it from a background ``http.server`` thread:

* ``GET /metrics`` — Prometheus text format (``# TYPE`` headers,
  cumulative ``_bucket{le="..."}`` histogram series, labeled child
  series as ``name{key="value"}`` samples);
* ``GET /health``  — ok/degraded/failing JSON aggregated from the
  resilience gauges (circuit-breaker states, dead-letter depth,
  checkpoint age, drift alerts); HTTP 200 unless failing (503);
* ``GET /state``   — the full :func:`repro.obs.export_state` snapshot
  as JSON, including in-progress spans (``done: false``);
* ``GET /query``   — windowed queries against the
  :mod:`repro.obs.history` store (``?metric=...&window=...``; add
  ``label=key=value`` selectors — or the ``tenant=`` shorthand — to
  query a labeled child series such as a fleet tenant's);
* ``GET /alerts``  — the SLO engine's alert states (pending/firing/
  resolved, burn values, exemplars);
* ``GET /profile`` — the sampling profiler's per-stage tables
  (``?format=collapsed`` for the flamegraph export);
* ``GET /fleet``   — the active :mod:`repro.fleet` supervisor's
  per-shard health (``{"active": false}`` when no fleet is running);
* ``GET /incidents`` — the :mod:`repro.obs.forensics` incident
  manager's capture stats and retained bundle manifests;
  ``/incidents/<id>`` views one bundle (manifest + artifact sizes).

When an *ingest API* is mounted (``ingest_fn``; see
:mod:`repro.fleet.ingest`) the server additionally answers the write
path — ``POST /ingest/<tenant>`` NDJSON batches, ``GET
/predictions/<tenant>``, ``/tenants``, ``POST /seal/<tenant>`` and
``POST /drain`` — with payload caps enforced *before* the body is read
(413) and a per-connection socket timeout (``request_timeout_seconds``)
so a stalled or slowloris client releases its handler thread; timeouts
are counted in ``telemetry.request_timeouts`` and answered 408 when the
body stalls mid-read.

Connections are HTTP/1.1 keep-alive, with Nagle's algorithm off: a
client such as :class:`~repro.fleet.client.HTTPTransport` sends all its
requests over one connection and one handler thread.  The socket
timeout also closes a connection left idle between requests (not
counted as a timeout), a reply that leaves declared body bytes unread
closes its connection, and :meth:`TelemetryServer.stop` closes every
open one.  A 413 is followed by a bounded read of the refused body
(``DISCARD_MAX_BYTES``, one request timeout) before the close, so a
client still sending it gets the 413 rather than a reset.

Unknown paths get a JSON 404 listing the available endpoints; clients
hanging up mid-response (``BrokenPipeError``/``ConnectionResetError``)
are counted in ``telemetry.client_disconnects`` instead of spraying
tracebacks on stderr.

Everything is stdlib; the server thread is a daemon, so an exiting CLI
never hangs on it.
"""

from __future__ import annotations

import errno
import json
import math
import re
import socket
import sys
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import counter as _counter

__all__ = [
    "INGEST_ENDPOINTS",
    "TelemetryServer",
    "health_report",
    "parse_listen",
    "prom_name",
    "render_prometheus",
]

#: Every route the server answers (also the JSON-404 hint list).
ENDPOINTS = (
    "/", "/metrics", "/health", "/state", "/query", "/alerts", "/profile",
    "/fleet", "/incidents",
)

#: Routes added when an ingest API is mounted (``ingest_fn``); prefix
#: routes — ``<tenant>`` is a path segment, e.g. ``POST /ingest/t03``.
INGEST_ENDPOINTS = (
    "/ingest/<tenant>", "/predictions/<tenant>", "/tenants",
    "/tenants/<tenant>", "/seal/<tenant>", "/drain",
)

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_BREAKER_STATE = re.compile(r"^resilience\.breaker\.(?P<name>.+)\.state$")

#: seconds after which the last checkpoint is considered stale
CHECKPOINT_STALE_SECONDS = 600.0


def prom_name(name: str, kind: str = "gauge") -> str:
    """Registry name → Prometheus series name.

    Dots (our namespace separator) become underscores; counters get the
    conventional ``_total`` suffix.
    """
    out = _NAME_BAD.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    if kind == "counter" and not out.endswith("_total"):
        out += "_total"
    return out


def _fmt(value: float) -> str:
    """Prometheus sample value: integers without the trailing ``.0``.

    Non-finite values use the exposition-format spellings ``NaN``,
    ``+Inf`` and ``-Inf`` (``repr`` would emit ``nan``/``inf``, which
    scrapers reject).
    """
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _label_str(labels: Dict[str, str], extra: str = "") -> str:
    """``{k="v",...}`` label block (labels sorted; ``extra`` appended)."""
    parts = [
        f'{_NAME_BAD.sub("_", str(k))}="{_escape_label(v)}"'
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _histogram_lines(pname: str, m: dict, labels: str = "") -> List[str]:
    """Cumulative ``_bucket``/``_sum``/``_count`` lines for one series."""
    lines: List[str] = []
    cum = 0
    counts = m.get("counts", [])
    bounds = m.get("buckets", [])
    prefix = labels[:-1] + "," if labels else "{"
    for bound, n in zip(bounds, counts):
        cum += n
        lines.append(
            f'{pname}_bucket{prefix}le="{bound:g}"}} {_fmt(cum)}'
        )
    if len(counts) > len(bounds):  # overflow bucket
        cum += counts[-1]
    lines.append(f'{pname}_bucket{prefix}le="+Inf"}} {_fmt(cum)}')
    lines.append(f"{pname}_sum{labels} {_fmt(m.get('sum', 0.0))}")
    lines.append(f"{pname}_count{labels} {_fmt(m.get('count', 0))}")
    return lines


def render_prometheus(snapshot: Dict[str, dict]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` in text exposition format.

    Histograms are converted from the registry's per-bucket counts to
    the cumulative ``_bucket{le="..."}`` series Prometheus expects,
    closed by ``le="+Inf"``, ``_sum`` and ``_count``.  A metric's
    labeled children (its ``"series"`` entries) render as additional
    ``name{key="value"}`` samples under the same family header.

    Name mangling can collide (``a.b`` and ``a_b`` both map to
    ``a_b``): the duplicate ``# TYPE`` header is suppressed so the
    output stays parseable; both sample lines are kept, which a scraper
    will surface as a duplicate-sample error — making the collision
    visible instead of silently dropping one series.
    """
    lines: List[str] = []
    seen_families: set = set()
    for name, m in sorted(snapshot.items()):
        kind = m.get("kind", "gauge")
        pname = prom_name(name, kind)
        if pname not in seen_families:
            lines.append(f"# TYPE {pname} {kind}")
            seen_families.add(pname)
        if kind in ("counter", "gauge"):
            lines.append(f"{pname} {_fmt(m.get('value', 0.0))}")
            for child in m.get("series", []):
                labels = _label_str(child.get("labels", {}))
                lines.append(
                    f"{pname}{labels} {_fmt(child.get('value', 0.0))}"
                )
        elif kind == "histogram":
            lines.extend(_histogram_lines(pname, m))
            for child in m.get("series", []):
                labels = _label_str(child.get("labels", {}))
                lines.extend(_histogram_lines(pname, child, labels))
    return "\n".join(lines) + ("\n" if lines else "")


def health_report(
    snapshot: Optional[Dict[str, dict]] = None,
    now: Optional[float] = None,
    checkpoint_stale_seconds: float = CHECKPOINT_STALE_SECONDS,
) -> dict:
    """Aggregate the resilience gauges into one ok/degraded/failing verdict.

    Rules (documented in docs/observability.md):

    * any circuit breaker half-open or open → **degraded**; two or more
      open (every guarded component down) → **failing**;
    * dead-letter buffer non-empty, the sanitizer's ``degraded`` flag
      set, a drift alert raised, the degradation ladder off its top
      rung, or the last checkpoint older than
      ``checkpoint_stale_seconds`` → **degraded**.
    """
    if snapshot is None:
        from repro import obs

        snapshot = obs.get_registry().snapshot()
    now = time.time() if now is None else now

    checks: Dict[str, dict] = {}
    reasons: List[str] = []
    open_breakers = 0
    degraded = False

    for name, m in snapshot.items():
        match = _BREAKER_STATE.match(name)
        if not match:
            continue
        state = float(m.get("value", 0.0))
        label = {0.0: "closed", 1.0: "half_open", 2.0: "open"}.get(
            state, "unknown"
        )
        checks[f"breaker.{match.group('name')}"] = {
            "state": label, "ok": state == 0.0,
        }
        if state >= 2.0:
            open_breakers += 1
            reasons.append(f"breaker {match.group('name')} open")
        elif state > 0.0:
            degraded = True
            reasons.append(f"breaker {match.group('name')} half-open")

    depth = float(snapshot.get("resilience.dead_letter_size", {}).get(
        "value", 0.0))
    checks["dead_letter"] = {"depth": depth, "ok": depth == 0}
    if depth > 0:
        degraded = True
        reasons.append(f"dead-letter depth {int(depth)}")

    if float(snapshot.get("resilience.degraded", {}).get("value", 0.0)):
        degraded = True
        checks["ingest"] = {"ok": False}
        reasons.append("ingestion degraded (records dropped/repaired)")

    if float(snapshot.get("scoreboard.drift_alert", {}).get("value", 0.0)):
        degraded = True
        checks["drift"] = {"ok": False}
        reasons.append("model drift alert raised")

    rung = float(snapshot.get("lifecycle.ladder_rung", {}).get("value", 0.0))
    if rung > 0:
        degraded = True
        label = {1.0: "signals_only", 2.0: "rate_baseline"}.get(
            rung, f"rung {rung:g}"
        )
        checks["ladder"] = {"rung": rung, "ok": False}
        reasons.append(f"predictor degraded to {label}")

    ck = snapshot.get("resilience.checkpoint_unix_seconds")
    if ck is not None and float(ck.get("value", 0.0)) > 0:
        age = now - float(ck["value"])
        stale = age > checkpoint_stale_seconds
        checks["checkpoint"] = {"age_seconds": age, "ok": not stale}
        if stale:
            degraded = True
            reasons.append(f"last checkpoint {age:.0f}s old")

    if open_breakers >= 2:
        status = "failing"
    elif open_breakers or degraded:
        status = "degraded"
    else:
        status = "ok"
    return {"status": status, "reasons": reasons, "checks": checks}


def parse_listen(spec: str) -> Tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)``; port 0 asks for an ephemeral one."""
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"--listen wants HOST:PORT, got {spec!r}")
    return host or "127.0.0.1", int(port)


def _history_query(history, params: Dict[str, List[str]]) -> Tuple[int, dict]:
    """Answer one ``/query`` request against a history store."""
    metrics = params.get("metric")
    if not metrics:
        return 400, {
            "error": "missing required parameter 'metric'",
            "example": "/query?metric=scoreboard.window_recall&window=1800",
            "series": history.names(),
        }
    name = metrics[0]
    try:
        window = float(params.get("window", ["600"])[0])
    except ValueError:
        return 400, {"error": "window must be a number of seconds"}
    labels: Dict[str, str] = {}
    for spec in params.get("label", []):
        key, sep, value = spec.partition("=")
        if not sep or not key:
            return 400, {
                "error": f"label selector must be key=value, got {spec!r}",
                "example": (
                    "/query?metric=fleet.feed_seconds&label=tenant=t42"
                ),
            }
        labels[key] = value
    if params.get("tenant"):  # shorthand for the common fleet selector
        labels["tenant"] = params["tenant"][0]
    if labels:
        base = name
        name = history.series_name(base, labels)
        if history.kind(name) is None:
            return 400, {
                "error": f"no history for labeled series {name!r}",
                "metric": base,
                "labels": labels,
                "series": [
                    s for s in history.names()
                    if s == base or s.startswith(base + "{")
                ],
            }
    kind = history.kind(name)
    if kind is None:
        return 404, {
            "error": f"no history for metric {name!r}",
            "series": history.names(),
        }
    points = history.series(name, window)
    out = {
        "metric": name,
        "labels": labels,
        "kind": kind,
        "window": window,
        "now": history.last_time,
        "points": [[t, v] for t, v in points],
        "latest": history.latest(name),
        "delta": history.delta(name, window),
        "rate": history.rate(name, window),
        "avg": history.avg_over_time(name, window),
        "min": history.min_over_time(name, window),
        "max": history.max_over_time(name, window),
        "events": history.events(window),
    }
    if kind == "histogram":
        out["quantiles"] = {
            q: history.quantile_over_time(name, float(q), window)
            for q in ("0.5", "0.9", "0.99")
        }
    return 200, out


#: most bytes of a refused (413) body read and dropped before closing,
#: so that its reply reaches a client still sending (see
#: ``_Handler._discard_body``)
DISCARD_MAX_BYTES = 64 << 20


class _Handler(BaseHTTPRequestHandler):
    """Routes the telemetry endpoints against the owning server.

    Connections are HTTP/1.1 keep-alive: one handler thread serves a
    client's requests in turn until the client closes, the socket
    timeout finds the connection idle, or a reply must close it
    because bytes of the request's body were left unread (the next
    "request" would be parsed out of them).
    """

    server_version = "elsa-telemetry/1"
    protocol_version = "HTTP/1.1"
    # a reply is two writes (head, body): with Nagle on, the body waits
    # for the ACK of the head, which the client delays by up to 40 ms
    disable_nagle_algorithm = True

    #: whether the current request's declared body has been read
    _body_read = True
    #: set between a served request and the next request line
    _idle = False

    @property
    def timeout(self):  # consulted by StreamRequestHandler.setup
        # slowloris guard: a per-connection socket timeout so a client
        # that stalls mid-request (or never sends one) releases its
        # handler thread; None disables (the stdlib default)
        if "_timeout_override" in self.__dict__:
            return self.__dict__["_timeout_override"]
        return getattr(self.server, "request_timeout", None)

    @timeout.setter
    def timeout(self, value) -> None:
        # the stdlib never assigns, but keep the attribute writable
        self.__dict__["_timeout_override"] = value

    def log_error(self, format: str, *args) -> None:  # noqa: A002
        # handle_one_request reports a request read timeout here; count
        # it (slowloris visibility), stay silent.  A kept-alive
        # connection that times out waiting for its next request line
        # is an idle close, not a stalled client
        if "timed out" in format and not self._idle:
            _counter("telemetry.request_timeouts").inc()

    def parse_request(self) -> bool:
        # a request line arrived: the connection is busy again
        self._idle = False
        return super().parse_request()

    def _declares_body(self) -> bool:
        """Whether the request's headers announce body bytes."""
        if "Transfer-Encoding" in self.headers:
            return True
        raw = self.headers.get("Content-Length")
        if raw is None:
            return False
        try:
            return int(raw) != 0
        except ValueError:
            return True

    @staticmethod
    def _route_label(path: str) -> str:
        if path in ENDPOINTS:
            return path
        head = "/" + path.lstrip("/").split("/", 1)[0]
        if head in ("/incidents", "/ingest", "/predictions", "/tenants",
                    "/seal", "/drain"):
            return head
        return "other"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urllib.parse.urlsplit(self.path)
        path = parsed.path
        _counter("telemetry.http_requests").inc()
        _counter("telemetry.http_requests").labels(
            path=self._route_label(path)
        ).inc()
        self._body_read = not self._declares_body()
        try:
            self._route(path, urllib.parse.parse_qs(parsed.query))
        except TimeoutError:
            # the connection stalled mid-response; drop it
            _counter("telemetry.request_timeouts").inc()
            self.close_connection = True
        except (BrokenPipeError, ConnectionResetError):
            # the client hung up mid-response; routine, not an error
            _counter("telemetry.client_disconnects").inc()
            self.close_connection = True
        except Exception as exc:  # never kill the serving thread
            _counter("telemetry.http_errors").inc()
            self.close_connection = True
            try:
                self._reply(500, f"error: {exc}\n",
                            "text/plain; charset=utf-8")
            except OSError:
                pass
        finally:
            self._idle = True

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        parsed = urllib.parse.urlsplit(self.path)
        path = parsed.path
        _counter("telemetry.http_requests").inc()
        _counter("telemetry.http_requests").labels(
            path=self._route_label(path)
        ).inc()
        self._body_read = False
        try:
            self._post(path)
        except TimeoutError:
            # body never arrived within the socket timeout: the
            # slowloris/truncation path — answer 408 and hang up
            _counter("telemetry.request_timeouts").inc()
            self.close_connection = True
            try:
                self._reply(408, json.dumps(
                    {"error": "request body timed out"}) + "\n")
            except OSError:
                pass
        except (BrokenPipeError, ConnectionResetError):
            _counter("telemetry.client_disconnects").inc()
            self.close_connection = True
        except Exception as exc:
            _counter("telemetry.http_errors").inc()
            self.close_connection = True
            try:
                self._reply(500, f"error: {exc}\n",
                            "text/plain; charset=utf-8")
            except OSError:
                pass
        finally:
            self._idle = True

    def _post(self, path: str) -> None:
        srv = self.server
        api = srv.ingest_fn()  # type: ignore[attr-defined]
        if api is None:
            self._reply(405, json.dumps({
                "error": "no ingest API mounted on this server",
                "endpoints": list(ENDPOINTS),
            }, indent=1) + "\n")
            return
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            self._reply(411, json.dumps(
                {"error": "Content-Length required"}) + "\n")
            return
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            self._reply(400, json.dumps(
                {"error": f"bad Content-Length {raw_length!r}"}) + "\n")
            return
        max_bytes = int(getattr(api, "max_body_bytes", 8 << 20))
        if length > max_bytes:
            # refuse before reading: the payload cap must not cost a
            # max-size read to enforce (the unread body closes the
            # connection)
            self._reply(413, json.dumps({
                "error": "payload too large",
                "max_bytes": max_bytes,
            }) + "\n")
            self._discard_body(length)
            return
        body = self.rfile.read(length) if length > 0 else b""
        if len(body) < length:
            # client hung up early; the declared length never arrived
            self._reply(400, json.dumps({
                "error": "truncated body",
                "declared": length,
                "received": len(body),
            }) + "\n")
            return
        self._body_read = True
        headers = {k.lower(): v for k, v in self.headers.items()}
        result = api.handle_request("POST", path, headers, body)
        if result is None:
            self._not_found(path, api)
            return
        code, payload, extra = result
        self._reply(code, json.dumps(payload, default=str, indent=1) + "\n",
                    extra_headers=extra)

    def _discard_body(self, length: int) -> None:
        """Let a refused body's reply reach its client, then hang up.

        Closing a socket with unread bytes makes the kernel answer them
        with a reset, which can destroy the reply before the client has
        read it: a client still sending its body would see a broken
        pipe and retry, never learning the answer.  So the reply is
        followed by a shut-down write side, and the body is read in
        chunks and dropped until it ends, ``length`` or
        :data:`DISCARD_MAX_BYTES` bytes are read, or one request
        timeout has passed; the handler then closes the connection.
        """
        try:
            self.connection.shutdown(socket.SHUT_WR)
        except OSError:
            return
        timeout = self.timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        left = min(length, DISCARD_MAX_BYTES)
        while left > 0:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self.connection.settimeout(remaining)
            try:
                chunk = self.rfile.read1(min(left, 1 << 16))
            except OSError:  # timed out or reset: stop either way
                return
            if not chunk:
                return
            left -= len(chunk)

    def _not_found(self, path: str, api=None) -> None:
        endpoints = list(ENDPOINTS)
        if api is not None:
            endpoints += list(INGEST_ENDPOINTS)
        self._reply(404, json.dumps({
            "error": "not found",
            "path": path,
            "endpoints": endpoints,
        }, indent=1) + "\n")

    def _route(self, path: str, params: Dict[str, List[str]]) -> None:
        srv = self.server
        if path == "/metrics":
            state = srv.state_fn()  # type: ignore[attr-defined]
            body = render_prometheus(state.get("metrics", {}))
            self._reply(
                200, body, "text/plain; version=0.0.4; charset=utf-8",
            )
        elif path == "/health":
            state = srv.state_fn()  # type: ignore[attr-defined]
            report = health_report(state.get("metrics", {}))
            code = 503 if report["status"] == "failing" else 200
            self._reply(code, json.dumps(report, indent=1) + "\n")
        elif path == "/state":
            state = srv.state_fn()  # type: ignore[attr-defined]
            self._reply(
                200, json.dumps(state, default=str, indent=1) + "\n"
            )
        elif path == "/query":
            history = srv.history_fn()  # type: ignore[attr-defined]
            code, out = _history_query(history, params)
            self._reply(code, json.dumps(out, indent=1) + "\n")
        elif path == "/alerts":
            engine = srv.slo_fn()  # type: ignore[attr-defined]
            self._reply(200, json.dumps(engine.alerts(), indent=1) + "\n")
        elif path == "/fleet":
            fleet = srv.fleet_fn()  # type: ignore[attr-defined]
            if fleet is None:
                self._reply(200, json.dumps(
                    {"active": False, "shards": {}}, indent=1,
                ) + "\n")
            else:
                body = fleet() if callable(fleet) else fleet
                self._reply(
                    200, json.dumps(body, default=str, indent=1) + "\n"
                )
        elif path == "/incidents" or path.startswith("/incidents/"):
            manager = srv.incidents_fn()  # type: ignore[attr-defined]
            if path == "/incidents":
                self._reply(200, json.dumps(
                    manager.index(), default=str, indent=1,
                ) + "\n")
            else:
                bundle_id = path[len("/incidents/"):].strip("/")
                view = manager.bundle_view(bundle_id)
                if view is None:
                    self._reply(404, json.dumps({
                        "error": f"unknown incident bundle {bundle_id!r}",
                        "bundles": [
                            b.get("id")
                            for b in manager.index().get("incidents", [])
                        ],
                    }, indent=1) + "\n")
                else:
                    self._reply(200, json.dumps(
                        view, default=str, indent=1,
                    ) + "\n")
        elif path == "/profile":
            profiler = srv.profiler_fn()  # type: ignore[attr-defined]
            if params.get("format", [""])[0] == "collapsed":
                self._reply(200, profiler.collapsed() + "\n",
                            "text/plain; charset=utf-8")
            else:
                self._reply(
                    200, json.dumps(profiler.stats(), indent=1) + "\n"
                )
        elif path == "/":
            self._reply(
                200,
                "elsa-repro live telemetry: "
                + " ".join(e for e in ENDPOINTS if e != "/")
                + "\n",
                "text/plain; charset=utf-8",
            )
        else:
            api = srv.ingest_fn()  # type: ignore[attr-defined]
            if api is not None:
                result = api.handle_request("GET", path, {}, b"")
                if result is not None:
                    code, payload, extra = result
                    self._reply(
                        code,
                        json.dumps(payload, default=str, indent=1) + "\n",
                        extra_headers=extra,
                    )
                    return
            self._not_found(path, api)

    def _reply(self, code: int, body: str,
               content_type: str = "application/json",
               extra_headers: Optional[Dict[str, str]] = None) -> None:
        payload = body.encode("utf-8")
        if not self._body_read:
            self.close_connection = True
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for key, value in (extra_headers or {}).items():
            self.send_header(key, str(value))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:
        pass  # request logging would drown the structured log stream


class _QuietServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that treats client hangups as routine.

    ``handle_error`` catches exceptions raised outside the handler's
    own try (e.g. during response flush after ``do_GET`` returned);
    the stock implementation prints a traceback to stderr for every
    impatient ``curl`` — here disconnects are counted instead.
    """

    daemon_threads = True

    def __init__(self, *args, **kwargs) -> None:
        self._open: set = set()
        self._open_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut every open connection down, idle keep-alives included.

        Each handler thread then reads end-of-stream and exits; a
        request in flight gets no answer, which its client retries.
        """
        with self._open_lock:
            connections = list(self._open)
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def handle_error(self, request, client_address) -> None:
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            _counter("telemetry.client_disconnects").inc()
            return
        super().handle_error(request, client_address)


class TelemetryServer:
    """Background thread serving the live telemetry endpoints.

    Parameters
    ----------
    host, port:
        Bind address; port 0 picks an ephemeral port (read ``.port``
        after :meth:`start`).
    state_fn:
        Zero-argument callable returning an ``export_state``-shaped dict
        (``{"metrics": ..., "spans": ...}``).  Defaults to the live
        :func:`repro.obs.export_state`, so a running pipeline is
        observable with no extra wiring; ``elsa-repro monitor`` passes a
        loader over a ``--metrics-out`` file instead.

    Usage::

        with TelemetryServer(port=0) as srv:
            print(srv.url)      # http://127.0.0.1:54321
            ...                 # run the pipeline
    """

    #: bind-retry schedule for a fixed port: attempts and initial delay
    BIND_RETRIES = 5
    BIND_BACKOFF_SECONDS = 0.05

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        state_fn: Optional[Callable[[], dict]] = None,
        history_fn: Optional[Callable[[], object]] = None,
        slo_fn: Optional[Callable[[], object]] = None,
        profiler_fn: Optional[Callable[[], object]] = None,
        fleet_fn: Optional[Callable[[], object]] = None,
        incidents_fn: Optional[Callable[[], object]] = None,
        bind_retries: Optional[int] = None,
        bind_backoff_seconds: Optional[float] = None,
        ingest_fn: Optional[Callable[[], object]] = None,
        request_timeout_seconds: Optional[float] = 30.0,
    ) -> None:
        self.host = host
        self.requested_port = int(port)
        self._state_fn = state_fn or self._live_state
        self._history_fn = history_fn or self._live_history
        self._slo_fn = slo_fn or self._live_slo
        self._profiler_fn = profiler_fn or self._live_profiler
        self._fleet_fn = fleet_fn or self._live_fleet
        self._incidents_fn = incidents_fn or self._live_incidents
        self._ingest_fn = ingest_fn or (lambda: None)
        self.request_timeout_seconds = (
            None if request_timeout_seconds is None
            else float(request_timeout_seconds)
        )
        self.bind_retries = (
            self.BIND_RETRIES if bind_retries is None else int(bind_retries)
        )
        self.bind_backoff_seconds = (
            self.BIND_BACKOFF_SECONDS
            if bind_backoff_seconds is None else float(bind_backoff_seconds)
        )
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @staticmethod
    def _live_state() -> dict:
        from repro import obs  # lazy: obs/__init__ imports this module

        return obs.export_state()

    @staticmethod
    def _live_history():
        from repro.obs.history import get_history

        return get_history()

    @staticmethod
    def _live_slo():
        from repro.obs.slo import get_slo_engine

        return get_slo_engine()

    @staticmethod
    def _live_profiler():
        from repro.obs.profiler import get_profiler

        return get_profiler()

    @staticmethod
    def _live_fleet():
        from repro.fleet import get_active_fleet  # lazy: avoid a cycle

        fleet = get_active_fleet()
        return fleet.state() if fleet is not None else None

    @staticmethod
    def _live_incidents():
        from repro.obs.forensics import get_incident_manager

        return get_incident_manager()

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._httpd is None:
            return self.requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    def _bind(self) -> ThreadingHTTPServer:
        """Bind, retrying ``EADDRINUSE`` with exponential backoff.

        Port 0 never collides (the kernel hands out a free ephemeral
        port), so the retry loop only engages for fixed ports — the
        race where a parallel test or a restarting process still holds
        the address in TIME_WAIT.  After the retry budget the last
        ``OSError`` propagates.
        """
        delay = self.bind_backoff_seconds
        attempts = max(1, self.bind_retries)
        for attempt in range(attempts):
            try:
                return _QuietServer(
                    (self.host, self.requested_port), _Handler
                )
            except OSError as exc:
                in_use = exc.errno == errno.EADDRINUSE
                last = attempt == attempts - 1
                if not in_use or last or self.requested_port == 0:
                    raise
                _counter("telemetry.bind_retries").inc()
                time.sleep(delay)
                delay *= 2.0
        raise AssertionError("unreachable")  # pragma: no cover

    def start(self) -> "TelemetryServer":
        """Bind and start serving from a daemon thread; returns self."""
        if self._httpd is not None:
            raise RuntimeError("server already started")
        self._httpd = self._bind()
        self._httpd.daemon_threads = True
        self._httpd.state_fn = self._state_fn  # type: ignore[attr-defined]
        self._httpd.history_fn = self._history_fn  # type: ignore[attr-defined]
        self._httpd.slo_fn = self._slo_fn  # type: ignore[attr-defined]
        self._httpd.profiler_fn = (  # type: ignore[attr-defined]
            self._profiler_fn
        )
        self._httpd.fleet_fn = self._fleet_fn  # type: ignore[attr-defined]
        self._httpd.incidents_fn = (  # type: ignore[attr-defined]
            self._incidents_fn
        )
        self._httpd.ingest_fn = self._ingest_fn  # type: ignore[attr-defined]
        self._httpd.request_timeout = (  # type: ignore[attr-defined]
            self.request_timeout_seconds
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="elsa-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server and its open connections down; join its thread.

        Closing kept-alive connections matters for a restart on the same
        port: left open, an old handler thread would go on answering its
        client after a new server had bound the port.
        """
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.close_connections()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
