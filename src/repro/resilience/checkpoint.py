"""Crash recovery: JSON checkpoint/restore of the online pipeline state.

A ``predict`` run over a multi-day window can die at any record — node
reboot, OOM kill, preemption.  Everything the online phase mutates is
small and serializable: the OnlineHELO template table and miss buffers,
the per-anchor detector windows, the active-chain suppression map, and
the predictions already emitted.  This module snapshots all of it to a
single JSON file (written atomically: temp file + ``os.replace``) and
replays a killed run from the snapshot with output byte-identical to an
uninterrupted one — the property ``tests/test_resilience_checkpoint.py``
enforces.

Format (version 2)::

    {
      "version": 2,
      "kind": "elsa-online-checkpoint",
      "n_records_done": 1234,          # resume cursor into the window
      "helo": {...} | null,            # OnlineHELO.state_dict()
      "predictor": {...},              # HybridPredictor.state_dict()
      "lifecycle": {                   # model-lifecycle position
        "model_version": 1,            # active ModelManager version
        "ladder_rung": 0,              # degradation-ladder rung
        "model_path": null             # pickled snapshot of the active
      },                               # model (non-seed versions)
      "obs": {                         # optional observability block:
        "history": {...},              # MetricHistory.state_dict()
        "slo": {...},                  # SLOEngine.state_dict()
        "incidents": {...}             # IncidentManager.state_dict()
      }                                # (absent on pre-v2-obs files;
    }                                  # every key inside is optional)

Version-1 checkpoints (no ``lifecycle`` block) still load: a migration
shim fills in the seed defaults, so a pre-lifecycle run resumes as
"seed model, top rung" — exactly what it was.  The ``obs`` block is
additive and optional within version 2: old files simply resume with
empty history, and loaders ignore the key entirely when absent — no
migration needed.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Sequence, Union

from repro import obs
from repro.columnar import RecordBatch
from repro.prediction.engine import HybridPredictor, Prediction
from repro.simulation.trace import LogRecord

CHECKPOINT_KIND = "elsa-online-checkpoint"
CHECKPOINT_VERSION = 2

#: the ``lifecycle`` block a pre-lifecycle run implies
DEFAULT_LIFECYCLE = {"model_version": 1, "ladder_rung": 0, "model_path": None}


def save_checkpoint(
    path: os.PathLike,
    predictor: HybridPredictor,
    helo_state: Optional[dict],
    lifecycle: Optional[dict] = None,
    obs_state: Optional[dict] = None,
) -> None:
    """Atomically write the online state to ``path``.

    The temp-file + rename dance means a crash *during* checkpointing
    leaves the previous checkpoint intact — recovery never sees a torn
    file.  ``lifecycle`` carries the active model version and ladder
    rung; plain (non-self-healing) runs omit it and get the seed
    defaults.  ``obs_state`` carries the metric history and SLO alert
    state so burn-rate accounting survives a kill (see
    :mod:`repro.obs.history` / :mod:`repro.obs.slo`).
    """
    state = {
        "version": CHECKPOINT_VERSION,
        "kind": CHECKPOINT_KIND,
        "n_records_done": predictor.n_records_fed,
        "helo": helo_state,
        "predictor": predictor.state_dict(),
        "lifecycle": dict(lifecycle or DEFAULT_LIFECYCLE),
    }
    if obs_state is not None:
        state["obs"] = obs_state
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(state) + "\n")
    os.replace(tmp, path)
    obs.counter("resilience.checkpoints_written").inc()
    obs.gauge("resilience.checkpoint_records_done").set(
        predictor.n_records_fed
    )
    # the /health endpoint turns this into a checkpoint-age check
    obs.gauge("resilience.checkpoint_unix_seconds").set(time.time())


def _migrate_v1(data: dict) -> dict:
    """v1 → v2: fill in the seed lifecycle block."""
    out = dict(data)
    out["version"] = 2
    out["lifecycle"] = dict(DEFAULT_LIFECYCLE)
    return out


#: stepwise migration shims: version -> upgrade-one-step function
_MIGRATIONS = {1: _migrate_v1}


def load_checkpoint(path: os.PathLike) -> dict:
    """Read, migrate if needed, and validate a checkpoint file.

    Older checkpoint versions are upgraded in memory one step at a
    time through ``_MIGRATIONS`` (the file on disk is untouched);
    unknown or future versions are still rejected.
    """
    data = json.loads(Path(path).read_text())
    if data.get("kind") != CHECKPOINT_KIND:
        raise ValueError(f"{path} is not an online checkpoint")
    version = data.get("version")
    while version in _MIGRATIONS and version < CHECKPOINT_VERSION:
        data = _MIGRATIONS[version](data)
        version = data["version"]
        obs.counter("resilience.checkpoints_migrated").inc()
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {data.get('version')!r} not supported"
        )
    obs.counter("resilience.checkpoints_loaded").inc()
    return data


class ResumableRun:
    """Classify → feed → checkpoint orchestration over one test window.

    Drives an :class:`~repro.core.elsa.ELSA` pipeline's streaming
    predictor chunk by chunk, optionally writing a checkpoint every
    ``checkpoint_every`` records.  ``resume`` rebuilds a run from a
    checkpoint; processing then continues after the last consumed record
    with identical downstream output.

    Observability rides along by default: the run samples the metric
    registry into the process :class:`~repro.obs.history.MetricHistory`
    on the *stream* clock (so history is deterministic and replayable)
    and evaluates the :class:`~repro.obs.slo.SLOEngine` after every
    sample; both persist through the checkpoint's ``obs`` block, as do
    the process incident manager's counters.  Pass explicit instances
    to isolate a run from the process singletons; an owner that keeps
    them itself (a fleet shard) sets ``history``, ``slo`` and
    ``incidents`` to ``None``, and the run then neither samples nor
    checkpoints them.
    """

    def __init__(
        self,
        elsa,
        t_start: float,
        t_end: float,
        checkpoint_path: Optional[os.PathLike] = None,
        checkpoint_every: Optional[int] = None,
        batch_size: Optional[int] = None,
        history=None,
        slo_engine=None,
    ) -> None:
        self.elsa = elsa
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self._since_ckpt = 0
        self.predictor = elsa.streaming_predictor(t_start, t_end)
        self.history = history if history is not None else obs.get_history()
        self.slo = (
            slo_engine if slo_engine is not None else obs.get_slo_engine()
        )
        self.incidents = obs.get_incident_manager()
        # firing alerts exemplify with the last emitted predictions
        self.slo.attach_recorder(self.predictor.flight_recorder)

    @classmethod
    def resume(cls, elsa, checkpoint: dict, **kwargs) -> "ResumableRun":
        """Rebuild a run mid-stream from :func:`load_checkpoint` output.

        The one place a checkpoint is read back into a run: builds
        ``cls(elsa, t_start, t_end, **kwargs)`` over the checkpointed
        window, restores the online HELO state, the predictor and the
        ``obs`` blocks, and hands the ``lifecycle`` block to
        :meth:`_restore_lifecycle`.
        """
        pstate = checkpoint["predictor"]
        run = cls(elsa, pstate["t_start"], pstate["t_end"], **kwargs)
        if checkpoint.get("helo") is not None:
            elsa.restore_online_state(checkpoint["helo"])
        run.predictor.load_state(pstate)
        obs_block = checkpoint.get("obs") or {}
        if obs_block.get("history") is not None:
            run.history.load_state(obs_block["history"])
        if obs_block.get("slo") is not None:
            run.slo.load_state(obs_block["slo"])
        if obs_block.get("incidents") is not None:
            run.incidents.load_state(obs_block["incidents"])
        run._restore_lifecycle(
            checkpoint.get("lifecycle") or DEFAULT_LIFECYCLE
        )
        return run

    # -- driving ---------------------------------------------------------------

    def _lifecycle_state(self) -> Optional[dict]:
        """The checkpoint's ``lifecycle`` block (seed defaults here;
        :class:`~repro.lifecycle.healing.SelfHealingRun` overrides)."""
        return None

    def _restore_lifecycle(self, lifecycle: dict) -> None:
        """Hook: adopt a checkpoint's ``lifecycle`` block on resume
        (no-op; a plain run has only the seed model)."""

    def _after_chunk(self, batch: RecordBatch) -> None:
        """Hook between feeding a chunk and checkpointing it (no-op)."""

    def _chunk_size(self) -> int:
        """Records per feed chunk (and per ``_after_chunk`` call).

        ``batch_size`` decouples the feed granularity from the
        checkpoint cadence: larger chunks amortize per-chunk overhead in
        the batched feed without writing checkpoints more often.
        """
        if self.batch_size is not None:
            return self.batch_size
        return self.checkpoint_every or 4096

    def _obs_state(self) -> Optional[dict]:
        """The checkpoint's ``obs`` block (history + SLO alert state +
        incident-manager counters)."""
        out = {}
        if self.history is not None:
            out["history"] = self.history.state_dict()
        if self.slo is not None:
            out["slo"] = self.slo.state_dict()
        if self.incidents is not None and self.incidents.dirty:
            out["incidents"] = self.incidents.state_dict()
        return out or None

    def _maybe_checkpoint(self) -> None:
        if self.checkpoint_path is None:
            return
        save_checkpoint(
            self.checkpoint_path,
            self.predictor,
            self.elsa.online_state_dict(),
            lifecycle=self._lifecycle_state(),
            obs_state=self._obs_state(),
        )

    def feed_chunk(
        self, batch: Union[RecordBatch, Sequence[LogRecord]], local=None
    ) -> int:
        """Classify and feed one pre-windowed chunk; returns records fed.

        This is the single feed step ``process`` loops over, exposed so
        an external scheduler (the fleet shard pump) can drive a run
        chunk by chunk from its own queue.  The caller owns windowing
        and the resume cursor; the run still applies its own checkpoint
        cadence when ``checkpoint_every`` is set.  A record list is
        columnarized once.  ``local`` is an optional
        :class:`~repro.obs.LocalCounters` batching sink — without one,
        counters go straight to the registry.
        """
        if not len(batch):
            return 0
        if not isinstance(batch, RecordBatch):
            batch = RecordBatch.from_records(batch)
        # causal trace: adopt the caller's context (the fleet shard
        # minted one at ingestion) or mint a per-chunk chain, so spans
        # and prediction provenance correlate either way
        ctx = obs.current_trace()
        if ctx is not None:
            scope = nullcontext(ctx)
        else:
            ctx = obs.mint_trace()
            scope = obs.trace_scope(ctx)
        with scope:
            # transient spans: profiler-visible stage attribution
            # without growing a long-lived span's child list per chunk
            with obs.span("classify", transient=True, trace=ctx.trace_id):
                ids = self.elsa.classify(batch)
            t0 = perf_counter()
            with obs.span("feed", transient=True, trace=ctx.trace_id):
                self.predictor.feed(batch, ids)
        obs.histogram(
            "predictor.feed_seconds", buckets=obs.metrics.TIME_BUCKETS
        ).observe(perf_counter() - t0)
        self._after_chunk(batch)
        if local is not None:
            local.inc("resilience.chunks_fed")
            local.inc("resilience.records_fed", len(batch))
        else:
            obs.counter("resilience.chunks_fed").inc()
            obs.counter("resilience.records_fed").inc(len(batch))
        if self.history is not None:
            stream_now = float(batch.timestamps[-1])
            if self.history.due(stream_now):
                # flush buffered counters first so the sample sees
                # this chunk's increments
                if local is not None:
                    local.flush()
                self.history.sample(stream_now)
                if self.slo is not None:
                    self.slo.evaluate(self.history, stream_now)
        if self.checkpoint_every:
            # without an explicit batch_size the chunk IS the
            # checkpoint cadence — checkpoint after every chunk,
            # partial ones included (kill/resume tests rely on
            # this); with one, checkpoint only once at least
            # checkpoint_every records landed since the last
            self._since_ckpt += len(batch)
            if (
                self.batch_size is None
                or self._since_ckpt >= self.checkpoint_every
            ):
                self._maybe_checkpoint()
                self._since_ckpt = 0
        return len(batch)

    def process(
        self,
        records: Union[RecordBatch, Sequence[LogRecord]],
        limit: Optional[int] = None,
    ) -> int:
        """Feed window records beyond the resume cursor; returns it.

        ``records`` is the *full* stream (the run windows and skips
        already-consumed records itself, so callers re-read the same log
        after a crash); a record list is columnarized once.  ``limit``
        stops after that many records for this call — the hook the
        kill-and-resume test uses to "crash" at a chosen point;
        checkpoints land every ``checkpoint_every`` records regardless.
        """
        if not isinstance(records, RecordBatch):
            records = RecordBatch.from_records(records)
        ts = records.timestamps
        mask = (ts >= self.t_start) & (ts < self.t_end)
        window = records if bool(mask.all()) else records.take(mask)
        done = self.predictor.n_records_fed
        todo = window[done:]
        if limit is not None:
            todo = todo[:limit]
        chunk = self._chunk_size()
        # per-chunk counters accumulate locally and flush once per call
        # so metric-lock traffic stays off the feed loop
        with obs.span("stream", records=len(todo), chunk=chunk) as sp, \
                obs.LocalCounters() as local:
            for i in range(0, len(todo), chunk):
                self.feed_chunk(todo[i : i + chunk], local=local)
            if todo and sp.duration > 0:
                sp["records_per_sec"] = round(len(todo) / sp.duration, 1)
        return self.predictor.n_records_fed

    def finish(self) -> List[Prediction]:
        """Seal the stream and return the full sorted prediction list."""
        predictions = self.predictor.finish()
        self._maybe_checkpoint()
        return predictions

    def run(
        self, records: Union[RecordBatch, Sequence[LogRecord]]
    ) -> List[Prediction]:
        """Process everything and finish — the one-call entry point."""
        self.process(records)
        return self.finish()
