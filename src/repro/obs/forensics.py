"""Incident forensics: causal traces, captured bundles, deterministic replay.

When an SLO burns or a shard flaps into quarantine, the evidence lives
in bounded rings (`MetricHistory`, `FlightRecorder`, the supervisor
event log, the dead-letter deque) that keep rolling — by the time an
operator looks, the incident has aged out.  This module freezes that
evidence the moment the trigger fires:

* :class:`TraceContext` — a lightweight causal trace (trace_id /
  parent_id / tenant) minted at ingestion and carried through
  ``IngestionRouter`` → ``Shard`` → ``feed_chunk`` → provenance, so
  spans and :class:`~repro.obs.provenance.PredictionProvenance`
  records across the fleet correlate into one chain per record batch.
  IDs come from a process counter, **not** wall clock or randomness,
  so a replayed run mints the same ids.
* :class:`IncidentManager` — subscribed to SLO ``firing`` transitions
  and supervisor ``quarantine``/``restart`` events; freezes a portable
  on-disk **incident bundle** (versioned JSON/JSONL directory) with
  bounded retention.  Capture is guarded by a circuit breaker and
  never raises into the caller: forensics must not take down the
  shard it is documenting.
* :func:`replay_bundle` — re-feeds a bundle's captured record window
  through a fresh pipeline at the bundle's checkpointed model state
  and diffs the predictions against what was recorded, turning every
  incident into a reproducible regression case.

Bundle layout (``manifest.json`` carries ``bundle_version``)::

    inc-0001-shard_restart/
      manifest.json       # id, kind, trigger, tenant, cursor, window,
                          # lifecycle, config, trace, runbook, artifacts
      history.json        # MetricHistory.state_dict()
      alerts.json         # SLOEngine.alerts()
      provenance.jsonl    # FlightRecorder exemplars
      profile.txt         # collapsed-stack profile
      spans.json          # span tree (active spans included)
      supervisor.jsonl    # supervision event audit
      dead_letter.jsonl   # dead-letter samples: reason, tenant, record
      records.jsonl       # raw record window (the unacked replay buffer)
      predictions.json    # predictions emitted so far + feed cursor
      checkpoint.json     # copy of the shard's last on-disk checkpoint

Records (``records.jsonl`` and each dead-letter sample's ``record``)
are the ingest wire's NDJSON rows, ``{"t", "loc", "sev", "msg"}``
(:func:`repro.fleet.ingest.encode_records`), so a replay reads them
with the ingest decoder.  Bundles written before this format (version
1) are refused by :func:`replay_bundle`.  Directories are written to a
dot-prefixed temp name and ``os.replace``d into place, so a reader
never sees a torn bundle.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from repro.obs.logging import get_logger
from repro.obs.metrics import counter, gauge

__all__ = [
    "BUNDLE_VERSION",
    "DEFAULT_RETENTION",
    "IncidentManager",
    "TraceContext",
    "current_trace",
    "current_trace_id",
    "get_incident_manager",
    "load_bundle",
    "mint_trace",
    "replay_bundle",
    "reset_forensics",
    "set_incident_manager",
    "trace_scope",
]

log = get_logger(__name__)

BUNDLE_VERSION = 2
FORENSICS_STATE_VERSION = 1

#: bundles kept on disk before the oldest are deleted
DEFAULT_RETENTION = 8

#: dead-letter samples frozen per bundle (the ring can hold thousands)
MAX_DEAD_LETTER_SAMPLES = 64

MANIFEST = "manifest.json"

#: trigger kinds → the supervisor event kinds that cause a capture
_CAPTURED_EVENT_KINDS = ("quarantine", "restart")


# -- causal traces -----------------------------------------------------------


@dataclass(frozen=True)
class TraceContext:
    """One causal chain: a batch of records moving through the fleet."""

    trace_id: str
    parent_id: Optional[str] = None
    tenant: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "tenant": self.tenant,
        }


_trace_lock = threading.Lock()
_trace_counter = 0
_tls = threading.local()


def mint_trace(
    tenant: Optional[str] = None, parent_id: Optional[str] = None
) -> TraceContext:
    """A fresh context with a deterministic (counter-based) id.

    No wall clock, no randomness: the n-th trace of a run is always
    ``tr-n``, so replays and byte-identity tests stay reproducible.
    """
    global _trace_counter
    with _trace_lock:
        _trace_counter += 1
        n = _trace_counter
    return TraceContext(
        trace_id=f"tr-{n:08d}", parent_id=parent_id, tenant=tenant
    )


@contextmanager
def trace_scope(ctx: TraceContext) -> Iterator[TraceContext]:
    """Make ``ctx`` the current trace for the calling thread."""
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    stack.append(ctx)
    try:
        yield ctx
    finally:
        stack.pop()


def current_trace() -> Optional[TraceContext]:
    """The innermost active trace on this thread, if any."""
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else None


def current_trace_id() -> Optional[str]:
    """Shorthand for provenance stamping on the prediction hot path."""
    stack = getattr(_tls, "stack", None)
    return stack[-1].trace_id if stack else None


# -- the incident manager ----------------------------------------------------


def _dead_letter_samples(segments) -> str:
    """The newest :data:`MAX_DEAD_LETTER_SAMPLES` records of a
    dead-letter ring of ``(reason, tenant, RecordBatch)`` segments, one
    ``{"reason", "tenant", "record": <wire row>}`` line each."""
    from repro.fleet.ingest import encode_records

    lines: List[str] = []
    left = MAX_DEAD_LETTER_SAMPLES
    for reason, tenant, batch in reversed(segments):
        if left <= 0:
            break
        tail = batch.slice(max(0, len(batch) - left), len(batch))
        left -= len(tail)
        # each row keeps the codec's bytes, spliced in after the labels
        head = json.dumps({"reason": reason, "tenant": tenant})[:-1]
        rows = encode_records(tail).decode("utf-8").splitlines()
        lines[:0] = [f'{head}, "record": {row}}}\n' for row in rows]
    return "".join(lines)


class IncidentManager:
    """Freezes incident bundles when alerts fire or shards misbehave.

    Disarmed (no directory) the manager only counts triggers — the
    default, so library users pay nothing.  :meth:`arm` points it at a
    bundle directory; :meth:`bind_fleet` wires the per-shard evidence
    sources (record window, predictions, checkpoint).  Capture is
    wrapped in a circuit breaker: after ``failure_threshold`` failed
    writes (disk full, serialization bugs) further captures are
    skipped until the cooldown passes, and a failure **never**
    propagates into the shard that triggered it.
    """

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        retention: int = DEFAULT_RETENTION,
        breaker=None,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.retention = int(retention)
        if breaker is None:
            from repro.resilience.breaker import CircuitBreaker

            breaker = CircuitBreaker(
                "forensics", failure_threshold=3, cooldown_seconds=600.0
            )
        self.breaker = breaker
        self._seq = 0
        self._counts = {
            "triggers": 0, "captured": 0, "failed": 0, "skipped": 0,
        }
        self._last: Optional[dict] = None
        self._sources: Dict[str, Callable] = {}
        self._lock = threading.RLock()
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    # -- wiring --------------------------------------------------------------

    @property
    def armed(self) -> bool:
        return self.directory is not None

    def arm(self, directory: os.PathLike,
            retention: Optional[int] = None) -> None:
        """Point captures at ``directory`` (created if missing)."""
        with self._lock:
            self.directory = Path(directory)
            self.directory.mkdir(parents=True, exist_ok=True)
            if retention is not None:
                self.retention = int(retention)

    def bind(self, **sources: Callable) -> None:
        """Install evidence providers (zero-arg or tenant-arg callables).

        Known names: ``history``, ``slo``, ``profiler``,
        ``supervisor_events``, ``dead_letters``, ``stream_time``,
        ``config`` (zero-arg) and ``window``, ``predictions``,
        ``checkpoint``, ``recorder``, ``lifecycle``, ``trace``,
        ``pick_tenant`` (take the resolved tenant / trigger).
        """
        with self._lock:
            self._sources.update(sources)

    def bind_fleet(self, fleet) -> None:
        """Wire every evidence source to a running fleet."""
        from dataclasses import asdict

        def pick(tenant: Optional[str]):
            shard = fleet.shards.get(tenant) if tenant is not None else None
            if shard is not None:
                return shard
            for ev in reversed(fleet.supervisor.events):
                shard = fleet.shards.get(ev.get("tenant"))
                if shard is not None:
                    return shard
            return max(
                fleet.shards.values(),
                key=lambda s: len(s._unacked),
                default=None,
            )

        def window(tenant):
            shard = pick(tenant)
            return shard._unacked.view() if shard is not None else []

        def predictions(tenant):
            shard = pick(tenant)
            if shard is None:
                return None
            pred = shard.run.predictor
            return {
                "tenant": shard.tenant,
                "cursor": pred.n_records_fed,
                "t_start": shard.t_start,
                "t_end": shard.t_end,
                "predictions": [p.to_dict() for p in pred._predictions],
            }

        def checkpoint(tenant):
            shard = pick(tenant)
            if shard is None or shard.checkpoint_path is None:
                return None
            return (
                shard.checkpoint_path
                if shard.checkpoint_path.exists() else None
            )

        def recorder(tenant):
            shard = pick(tenant)
            return (
                shard.run.predictor.flight_recorder
                if shard is not None else None
            )

        def lifecycle(tenant):
            shard = pick(tenant)
            if shard is None:
                return None
            from repro.resilience.checkpoint import DEFAULT_LIFECYCLE

            return dict(
                shard.run._lifecycle_state() or DEFAULT_LIFECYCLE
            )

        def trace(tenant):
            shard = pick(tenant)
            return getattr(shard, "last_trace", None) if shard else None

        self.bind(
            history=lambda: fleet.history,
            slo=lambda: fleet.slo,
            supervisor_events=lambda: list(fleet.supervisor.events),
            dead_letters=lambda: list(fleet.router.dead_letter),
            stream_time=lambda: fleet.stream_time,
            config=lambda: asdict(fleet.policy),
            window=window,
            predictions=predictions,
            checkpoint=checkpoint,
            recorder=recorder,
            lifecycle=lifecycle,
            trace=trace,
            pick_tenant=lambda trigger: (
                shard.tenant
                if (shard := pick(trigger.get("tenant"))) is not None
                else None
            ),
        )

    def unbind(self) -> None:
        """Drop bound sources (fleet close); defaults take over."""
        with self._lock:
            self._sources.clear()

    def _get(self, name: str) -> Optional[Callable]:
        src = self._sources.get(name)
        if src is not None:
            return src
        # defaults: the process-wide obs singletons
        if name == "history":
            from repro.obs.history import get_history

            return get_history
        if name == "slo":
            from repro.obs.slo import get_slo_engine

            return get_slo_engine
        if name == "profiler":
            from repro.obs.profiler import get_profiler

            return get_profiler
        return None

    # -- triggers ------------------------------------------------------------

    def on_slo_transition(self, transition: dict) -> Optional[Path]:
        """SLOEngine subscription: capture on ``firing`` transitions."""
        if transition.get("to") != "firing":
            return None
        return self.capture("slo_firing", dict(transition))

    def on_supervisor_event(self, event: dict) -> Optional[Path]:
        """Supervisor subscription: capture quarantines and restarts."""
        if event.get("kind") not in _CAPTURED_EVENT_KINDS:
            return None
        trigger = dict(event, detail=dict(event.get("detail", {})))
        return self.capture(f"shard_{event['kind']}", trigger)

    # -- capture -------------------------------------------------------------

    def capture(self, kind: str, trigger: dict) -> Optional[Path]:
        """Freeze one bundle; returns its path, or None (and never raises).

        The failure ladder: disarmed → count only; breaker open → skip;
        a write that raises → breaker failure +
        ``forensics.capture_failures_total``, shard unharmed.
        """
        with self._lock:
            self._counts["triggers"] += 1
            counter("forensics.triggers_total").inc()
            if self.directory is None:
                self._last = {
                    "outcome": "disarmed", "kind": kind, "bundle": None,
                }
                return None
            if not self.breaker.allow():
                self._counts["skipped"] += 1
                counter("forensics.captures_skipped_total").inc()
                self._last = {
                    "outcome": "skipped_breaker", "kind": kind,
                    "bundle": None,
                }
                return None
            self._seq += 1
            bundle_id = f"inc-{self._seq:04d}-{kind}"
            try:
                path = self._write_bundle(bundle_id, kind, trigger)
            except Exception as exc:
                self.breaker.record_failure(exc)
                self._counts["failed"] += 1
                counter("forensics.capture_failures_total").inc()
                self._last = {
                    "outcome": "failed", "kind": kind, "bundle": None,
                    "error": f"{type(exc).__name__}: {exc}",
                }
                log.warning(
                    "incident capture failed",
                    extra={"kind": kind, "error": str(exc)},
                )
                return None
            self.breaker.record_success()
            self._counts["captured"] += 1
            counter("forensics.bundles_captured_total").inc()
            self._last = {
                "outcome": "captured", "kind": kind, "bundle": str(path),
            }
            self._enforce_retention()
            log.info(
                "incident bundle captured",
                extra={"kind": kind, "bundle": str(path)},
            )
            return path

    def _call(self, name: str, *args):
        src = self._get(name)
        return src(*args) if src is not None else None

    def _write_bundle(self, bundle_id: str, kind: str,
                      trigger: dict) -> Path:
        final = self.directory / bundle_id
        tmp = self.directory / f".{bundle_id}.tmp"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)

        pick = self._sources.get("pick_tenant")
        tenant = trigger.get("tenant")
        if pick is not None:
            tenant = pick(trigger)
        artifacts: List[str] = []

        def emit(name: str, text: str) -> None:
            (tmp / name).write_text(text)
            artifacts.append(name)

        history = self._call("history")
        if history is not None:
            emit("history.json", json.dumps(history.state_dict()))
        slo = self._call("slo")
        runbook = None
        if slo is not None:
            alerts = slo.alerts()
            emit("alerts.json", json.dumps(alerts))
            if kind == "slo_firing":
                from repro.obs.slo import runbook_url

                slug = next(
                    (s.runbook for s in slo.specs
                     if s.name == trigger.get("slo")), "",
                )
                runbook = runbook_url(slug)
        recorder = self._call("recorder", tenant)
        if recorder is not None:
            with open(tmp / "provenance.jsonl", "w") as fh:
                recorder.dump_jsonl(fh)
            artifacts.append("provenance.jsonl")
        profiler = self._call("profiler")
        if profiler is not None:
            emit("profile.txt", profiler.collapsed() + "\n")
        from repro.obs.tracing import span_tree

        emit("spans.json", json.dumps(span_tree(include_active=True)))
        events = self._call("supervisor_events")
        if events is not None:
            emit("supervisor.jsonl",
                 "".join(json.dumps(e) + "\n" for e in events))
        dead = self._call("dead_letters")
        if dead is not None:
            emit("dead_letter.jsonl", _dead_letter_samples(dead))
        from repro.fleet.ingest import encode_records

        window = self._call("window", tenant) or []
        emit("records.jsonl", encode_records(window).decode("utf-8"))
        preds = self._call("predictions", tenant)
        if preds is not None:
            emit("predictions.json", json.dumps(preds))
        ckpt_path = self._call("checkpoint", tenant)
        if ckpt_path is not None:
            emit("checkpoint.json", Path(ckpt_path).read_text())

        manifest = {
            "bundle_version": BUNDLE_VERSION,
            "id": bundle_id,
            "kind": kind,
            "trigger": trigger,
            "tenant": tenant,
            "stream_time": self._call("stream_time"),
            "trace_id": self._call("trace", tenant),
            "lifecycle": self._call("lifecycle", tenant),
            "config": self._call("config"),
            "runbook": runbook,
            "cursor": (preds or {}).get("cursor"),
            "t_start": (preds or {}).get("t_start"),
            "t_end": (preds or {}).get("t_end"),
            "records": len(window),
            "predictions": len((preds or {}).get("predictions", [])),
            "artifacts": sorted(artifacts),
        }
        (tmp / MANIFEST).write_text(json.dumps(manifest, indent=2))
        if final.exists():
            shutil.rmtree(final)
        os.replace(tmp, final)
        return final

    def _enforce_retention(self) -> None:
        dirs = self._bundle_dirs()
        while len(dirs) > self.retention:
            victim = dirs.pop(0)
            shutil.rmtree(victim, ignore_errors=True)
        gauge("forensics.bundles_retained").set(float(len(dirs)))

    def _bundle_dirs(self) -> List[Path]:
        if self.directory is None or not self.directory.exists():
            return []
        return sorted(
            p for p in self.directory.iterdir()
            if p.is_dir() and not p.name.startswith(".")
            and (p / MANIFEST).exists()
        )

    # -- views ---------------------------------------------------------------

    def bundles(self) -> List[dict]:
        """Manifests of every retained bundle, oldest first."""
        out = []
        for p in self._bundle_dirs():
            try:
                m = json.loads((p / MANIFEST).read_text())
            except Exception:
                continue
            m["path"] = str(p)
            out.append(m)
        return out

    def state(self) -> dict:
        """The ``incidents`` section of ``/state`` and ``stats --json``."""
        with self._lock:
            dirs = self._bundle_dirs()
            return {
                "armed": self.armed,
                "directory": (
                    str(self.directory) if self.directory else None
                ),
                "active": len(dirs),
                "total": self._counts["captured"],
                "triggers": self._counts["triggers"],
                "failed": self._counts["failed"],
                "skipped": self._counts["skipped"],
                "last_bundle": (
                    (self._last or {}).get("bundle")
                    or (str(dirs[-1]) if dirs else None)
                ),
                "last_outcome": (self._last or {}).get("outcome"),
            }

    def index(self) -> dict:
        """The ``GET /incidents`` document."""
        doc = self.state()
        doc["incidents"] = self.bundles()
        return doc

    def bundle_view(self, bundle_id: str) -> Optional[dict]:
        """The ``GET /incidents/<id>`` document (manifest + artifact
        sizes); None when the bundle is unknown."""
        if self.directory is None:
            return None
        path = self.directory / bundle_id
        if not (path / MANIFEST).exists() or not path.is_dir():
            return None
        manifest = json.loads((path / MANIFEST).read_text())
        manifest["path"] = str(path)
        manifest["files"] = {
            p.name: p.stat().st_size for p in sorted(path.iterdir())
        }
        return manifest

    # -- persistence ---------------------------------------------------------

    @property
    def dirty(self) -> bool:
        """Whether there is anything worth checkpointing."""
        return self.armed or self._counts["triggers"] > 0

    def state_dict(self) -> dict:
        """JSON state for the checkpoint ``obs.incidents`` block."""
        with self._lock:
            return {
                "version": FORENSICS_STATE_VERSION,
                "seq": self._seq,
                "counts": dict(self._counts),
                "last": dict(self._last) if self._last else None,
                "directory": (
                    str(self.directory) if self.directory else None
                ),
                "retention": self.retention,
            }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (re-arms if it was)."""
        if state.get("version") != FORENSICS_STATE_VERSION:
            raise ValueError(
                f"forensics state version {state.get('version')!r} "
                f"not supported"
            )
        with self._lock:
            self._seq = int(state.get("seq", 0))
            self._counts.update(state.get("counts", {}))
            self._last = (
                dict(state["last"]) if state.get("last") else None
            )
            self.retention = int(state.get("retention", self.retention))
            directory = state.get("directory")
            if directory is not None:
                self.directory = Path(directory)


# -- singleton + subscriptions -----------------------------------------------

_default_manager: Optional[IncidentManager] = None
_mgr_lock = threading.Lock()


def get_incident_manager() -> IncidentManager:
    """The process-wide manager (created disarmed on first use)."""
    global _default_manager
    with _mgr_lock:
        if _default_manager is None:
            _default_manager = IncidentManager()
        return _default_manager


def set_incident_manager(manager: Optional[IncidentManager]) -> None:
    """Replace the default manager (tests, custom retention)."""
    global _default_manager
    with _mgr_lock:
        _default_manager = manager


def notify_slo_transition(transition: dict) -> None:
    """SLOEngine → manager hook (called on each transition)."""
    if transition.get("to") != "firing":
        return
    get_incident_manager().on_slo_transition(transition)


def notify_supervisor_event(event: dict) -> None:
    """ShardSupervisor → manager hook (called on each event)."""
    if event.get("kind") not in _CAPTURED_EVENT_KINDS:
        return
    get_incident_manager().on_supervisor_event(event)


def reset_forensics() -> None:
    """Fresh slate: trace counter back to zero, manager dropped."""
    global _trace_counter
    with _trace_lock:
        _trace_counter = 0
    stack = getattr(_tls, "stack", None)
    if stack:
        del stack[:]
    set_incident_manager(None)


# -- replay ------------------------------------------------------------------


def load_bundle(path: os.PathLike) -> dict:
    """Read a bundle directory into one dict (manifest + artifacts)."""
    path = Path(path)
    manifest = json.loads((path / MANIFEST).read_text())
    out = {"path": str(path), "manifest": manifest}
    for name, key in (
        ("alerts.json", "alerts"),
        ("history.json", "history"),
        ("predictions.json", "predictions"),
        ("spans.json", "spans"),
    ):
        f = path / name
        if f.exists():
            out[key] = json.loads(f.read_text())
    for name, key in (
        ("supervisor.jsonl", "supervisor_events"),
        ("provenance.jsonl", "provenance"),
        ("dead_letter.jsonl", "dead_letters"),
        ("records.jsonl", "records"),
    ):
        f = path / name
        if f.exists():
            out[key] = [
                json.loads(line)
                for line in f.read_text().splitlines() if line.strip()
            ]
    return out


def replay_bundle(path: os.PathLike, elsa,
                  chunk_records: Optional[int] = None) -> dict:
    """Deterministically re-run a bundle's record window and diff it.

    Rebuilds a fresh pipeline from the bundle's checkpoint (or from the
    pristine fitted model when the incident beat the first checkpoint),
    feeds the captured window up to the recorded cursor, and compares
    the replayed predictions byte-for-byte against ``predictions.json``.
    ``elsa`` is deep-copied — the caller's model is never mutated.
    A bundle of another :data:`BUNDLE_VERSION` raises ``ValueError``.
    """
    import copy

    from repro.fleet.ingest import decode_batch
    from repro.obs.history import MetricHistory
    from repro.obs.slo import SLOEngine
    from repro.resilience.checkpoint import ResumableRun, load_checkpoint

    path = Path(path)
    manifest = json.loads((path / MANIFEST).read_text())
    version = manifest.get("bundle_version")
    if version != BUNDLE_VERSION:
        raise ValueError(
            f"bundle version {version!r} cannot be replayed "
            f"(replay reads version {BUNDLE_VERSION})"
        )
    recorded = json.loads((path / "predictions.json").read_text())
    records = decode_batch((path / "records.jsonl").read_bytes())
    elsa = copy.deepcopy(elsa)
    # isolated history/SLO: replay must not pollute the live singletons
    history, engine = MetricHistory(), SLOEngine(specs=[])
    ckpt_file = path / "checkpoint.json"
    if ckpt_file.exists():
        ckpt = load_checkpoint(ckpt_file)
        # the replay is a bystander: the bundle's incident-manager
        # counters must not overwrite the live process manager
        obs_block = dict(ckpt.get("obs") or {})
        obs_block.pop("incidents", None)
        ckpt = dict(ckpt, obs=obs_block)
        run = ResumableRun.resume(
            elsa, ckpt, history=history, slo_engine=engine,
        )
    else:
        run = ResumableRun(
            elsa, manifest["t_start"], manifest["t_end"],
            history=history, slo_engine=engine,
        )
    run.history = None
    run.slo = None

    target = manifest.get("cursor")
    start = run.predictor.n_records_fed
    todo = records if target is None else records[: max(0, target - start)]
    truncated = target is not None and start + len(records) < target
    chunk = (
        chunk_records
        or (manifest.get("config") or {}).get("chunk_records")
        or 512
    )
    ctx = mint_trace(
        tenant=manifest.get("tenant"),
        parent_id=manifest.get("trace_id"),
    )
    with trace_scope(ctx):
        for i in range(0, len(todo), chunk):
            run.feed_chunk(todo[i : i + chunk])

    replayed = [p.to_dict() for p in run.predictor._predictions]
    want = recorded.get("predictions", [])
    a = json.dumps(want, sort_keys=True)
    b = json.dumps(replayed, sort_keys=True)
    divergence = None
    if a != b:
        for i, (x, y) in enumerate(zip(want, replayed)):
            if json.dumps(x, sort_keys=True) != json.dumps(
                y, sort_keys=True
            ):
                divergence = i
                break
        else:
            divergence = min(len(want), len(replayed))
    return {
        "bundle": str(path),
        "kind": manifest.get("kind"),
        "tenant": manifest.get("tenant"),
        "trace_id": ctx.trace_id,
        "parent_trace_id": manifest.get("trace_id"),
        "from_checkpoint": ckpt_file.exists(),
        "records_replayed": len(todo),
        "window_truncated": truncated,
        "cursor_recorded": target,
        "cursor_replayed": run.predictor.n_records_fed,
        "recorded_predictions": len(want),
        "replayed_predictions": len(replayed),
        "identical": a == b,
        "first_divergence": divergence,
    }
