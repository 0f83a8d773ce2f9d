"""One tenant's shard: a supervised run + bounded queue + replay buffer.

A :class:`Shard` owns everything one tenant needs and shares nothing
with its siblings: a deep-copied :class:`~repro.core.elsa.ELSA` (the
OnlineHELO mutates during classification, so sharing one would couple
tenants), a :class:`~repro.resilience.checkpoint.ResumableRun` (or
:class:`~repro.lifecycle.healing.SelfHealingRun`) driving the streaming
predictor chunk by chunk via ``feed_chunk``, its own checkpoint file,
and a bounded ingest queue the router fills.

Crash recovery is **at-least-once delivery on top of an exactly-once
cursor**: records popped from the queue enter the ``_unacked`` replay
deque *before* they are fed, and the deque is cleared only when the
run's checkpoint lands (the checkpoint cursor acknowledges everything
fed so far).  A restart therefore resumes the run from its checkpoint
and re-feeds the unacked tail — and because the streaming engine's
output is chunking-invariant (the byte-identity contract
``tests/test_resilience_checkpoint.py`` enforces), the recovered tenant
emits predictions byte-identical to one that never crashed.

Chaos hooks (``inject_kill``/``inject_hang``/``inject_poison``) live on
the shard itself so the fleet chaos matrix can fault precise points of
the pipeline without monkeypatching.
"""

from __future__ import annotations

import copy
import enum
import os
import time
from pathlib import Path
from time import perf_counter
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.columnar import RecordBatch
from repro.fleet.policy import FleetPolicy
from repro.fleet.queue import RecordDeque
from repro.obs.forensics import mint_trace, trace_scope
from repro.resilience.checkpoint import ResumableRun, load_checkpoint
from repro.simulation.trace import Severity

__all__ = ["Shard", "ShardKilled", "ShardState"]

log = obs.get_logger(__name__)


class ShardState(enum.Enum):
    """Where a shard is in its supervision lifecycle."""

    RUNNING = "running"
    BACKOFF = "backoff"          # crashed; restart scheduled
    QUARANTINED = "quarantined"  # flapping; parked and fenced
    STOPPED = "stopped"          # finished; predictions sealed


class ShardKilled(RuntimeError):
    """A chaos-injected shard crash."""


class Shard:
    """A single tenant's isolated slice of the fleet.

    Parameters
    ----------
    tenant:
        Tenant key (rack subtree or hash bucket); labels every metric.
    elsa:
        A fitted ELSA **owned by this shard** (deep-copy before
        constructing; ``Fleet.build`` does).
    t_start, t_end:
        The tenant's test window (records outside are rejected).
    checkpoint_path:
        This shard's private checkpoint file.
    faults:
        Ground truth scoped to this tenant (self-healing scoreboard).
    self_heal:
        Use a :class:`SelfHealingRun` instead of a plain
        :class:`ResumableRun`.
    clock:
        Monotonic supervision clock (injectable; see
        :class:`~repro.fleet.policy.ManualClock`).
    resume:
        Adopt an existing checkpoint at ``checkpoint_path`` on
        construction instead of starting the window fresh — the path a
        restarted ingest server takes so a graceful drain/restart cycle
        continues exactly where it stopped.
    """

    def __init__(
        self,
        tenant: str,
        elsa,
        t_start: float,
        t_end: float,
        policy: Optional[FleetPolicy] = None,
        checkpoint_path: Optional[os.PathLike] = None,
        faults: Sequence = (),
        self_heal: bool = False,
        store_dir: Optional[os.PathLike] = None,
        clock: Callable[[], float] = time.monotonic,
        resume: bool = False,
    ) -> None:
        self.tenant = str(tenant)
        self.elsa = elsa
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self.policy = policy or FleetPolicy()
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.faults = list(faults)
        self.self_heal = bool(self_heal)
        self.store_dir = store_dir
        self.clock = clock
        self.queue = RecordDeque()
        self._unacked = RecordDeque()
        self.state = ShardState.RUNNING
        self.last_beat = clock()
        self.restart_at: Optional[float] = None
        self.restarts = 0
        self.crashes = 0
        self.shed = 0
        self.shed_by_severity: dict = {}
        self.rejected = 0
        self._overflow = 0
        self.last_error: Optional[str] = None
        self.predictions: Optional[list] = None
        # causal tracing: the router mints a context when it starts a
        # fresh batch-epoch on an idle queue; step() consumes it
        self.pending_trace = None
        self.last_trace: Optional[str] = None
        # chaos injection points — a *list* so stacked --kill specs for
        # the same tenant queue up instead of overwriting each other
        # (repeated kills are how the CLI drives flapping → quarantine)
        self._kill_at: List[int] = []
        self._hang_seconds: float = 0.0
        self._poisoned = False
        # pristine template state, for a restart before any checkpoint
        self._helo_seed = copy.deepcopy(elsa.online_state_dict())
        self.run = self._build_run(resume and self._has_checkpoint())
        self.records_fed = self.run.predictor.n_records_fed

    # -- run construction ----------------------------------------------------

    def _has_checkpoint(self) -> bool:
        return (
            self.checkpoint_path is not None and self.checkpoint_path.exists()
        )

    def _build_run(self, resume: bool) -> ResumableRun:
        """The shard's run, fresh or resumed from its checkpoint file.

        The fleet samples history/SLOs centrally on its own stream
        clock (per-shard sampling would interleave out-of-order
        timestamps from tenants at different stream positions) and owns
        the process incident manager, so the run keeps none of them: a
        shard checkpoint carries no ``obs`` block.  ``batch_size`` ==
        chunk makes ``feed_chunk`` checkpoint only once
        ``checkpoint_every`` records accumulate, not after every chunk.
        """
        cls = ResumableRun
        kwargs = dict(
            checkpoint_path=self.checkpoint_path,
            checkpoint_every=self.policy.checkpoint_every,
            batch_size=self.policy.chunk_records,
        )
        if self.self_heal:
            from repro.lifecycle.healing import SelfHealingRun

            cls = SelfHealingRun
            kwargs.update(faults=self.faults, store_dir=self.store_dir)
        if resume:
            run = cls.resume(
                self.elsa, load_checkpoint(self.checkpoint_path), **kwargs
            )
        else:
            run = cls(self.elsa, self.t_start, self.t_end, **kwargs)
        run.history = run.slo = run.incidents = None
        return run

    # -- ingest --------------------------------------------------------------

    def offer_batch(self, batch: RecordBatch) -> dict:
        """Admit a routed batch; returns ``{verdict: count}``.

        ``"rejected"`` — outside this tenant's window; ``"accepted"`` —
        queued, as one segment; ``"shed"`` — dropped by backpressure
        sampling.  In-window rows fill the queue up to
        ``queue_capacity``; past it, SEVERE and above are always
        admitted, and of the other rows only every
        ``overflow_stride``-th (counted across calls) is.  Since the
        queue cannot shrink inside one call, the rows past the free
        slots are exactly the ones that find it full, so the rule is
        applied to them in one cumulative count.
        """
        ts = batch.timestamps
        rows = np.flatnonzero((ts >= self.t_start) & (ts < self.t_end))
        n_in = rows.size
        self.rejected += len(batch) - n_in
        free = self.free_slots()
        if n_in > free:
            over = rows[free:]
            sevs = batch.severities[over]
            soft = sevs < int(Severity.SEVERE)
            nth = self._overflow + np.cumsum(soft)
            self._overflow += int(soft.sum())
            shed = soft & (nth % self.policy.overflow_stride != 0)
            if shed.any():
                self._count_shed(sevs[shed])
                rows = np.concatenate((rows[:free], over[~shed]))
        if rows.size:
            self.queue.extend(
                batch if rows.size == len(batch) else batch.take(rows)
            )
        return {
            "accepted": int(rows.size),
            "rejected": len(batch) - n_in,
            "shed": n_in - int(rows.size),
        }

    def _count_shed(self, sevs: np.ndarray) -> None:
        """Add shed rows to ``shed`` and ``shed_by_severity`` (names in
        first-shed order)."""
        self.shed += int(sevs.size)
        codes, first, counts = np.unique(
            sevs, return_index=True, return_counts=True
        )
        for i in np.argsort(first):
            name = Severity(int(codes[i])).name
            self.shed_by_severity[name] = (
                self.shed_by_severity.get(name, 0) + int(counts[i])
            )

    def free_slots(self) -> int:
        """Queue headroom before severity-aware shedding would engage.

        The ingest frontend's admission control rejects batches larger
        than this (``429 Retry-After``) so overload is pushed back to
        the client *before* the router has to shed — the zero-loss
        guarantee for admitted batches.
        """
        return max(0, self.policy.queue_capacity - len(self.queue))

    # -- stepping ------------------------------------------------------------

    def step(self) -> int:
        """Feed up to ``chunk_records`` queued records; returns how many.

        Raises whatever the pipeline raises (including injected chaos);
        the supervisor owns the crash, the shard only keeps its replay
        buffer consistent: records join ``_unacked`` *before* feeding,
        so a mid-feed crash loses no input.
        """
        if self.state is not ShardState.RUNNING or not self.queue:
            return 0
        if self._hang_seconds > 0.0:
            # a stall: supervision time passes, no progress, no beat
            seconds, self._hang_seconds = self._hang_seconds, 0.0
            advance = getattr(self.clock, "advance", None)
            if advance is not None:
                advance(seconds)
            return 0
        if self._poisoned:
            raise ShardKilled(f"shard {self.tenant} poisoned")
        n = min(self.policy.chunk_records, len(self.queue))
        batch = self.queue.popn(n)
        self._unacked.extend(batch)
        ctx = self.pending_trace or mint_trace(tenant=self.tenant)
        self.pending_trace = None
        self.last_trace = ctx.trace_id
        if self._kill_at and self.records_fed + n > self._kill_at[0]:
            # crash mid-chunk: feed up to the kill point, then die —
            # the partial work is exactly what recovery must redo
            k = self._kill_at.pop(0) - self.records_fed
            if k > 0:
                with trace_scope(ctx):
                    self.run.feed_chunk(batch[:k])
            raise ShardKilled(
                f"chaos kill of {self.tenant} at "
                f"{self.records_fed + max(k, 0)} records"
            )
        t0 = perf_counter()
        with trace_scope(ctx):
            fed = self.run.feed_chunk(batch)
        obs.histogram(
            "fleet.feed_seconds", buckets=obs.metrics.TIME_BUCKETS
        ).labels(tenant=self.tenant).observe(perf_counter() - t0)
        self.records_fed += fed
        obs.counter("fleet.records_fed").inc(fed)
        obs.counter("fleet.records_fed").labels(tenant=self.tenant).inc(fed)
        self._maybe_ack()
        self.last_beat = self.clock()
        return fed

    def _maybe_ack(self) -> None:
        # feed_chunk resets _since_ckpt to 0 exactly when it wrote a
        # checkpoint; that checkpoint's cursor covers every record fed,
        # so the replay buffer is acknowledged wholesale
        if self.checkpoint_path is not None and self.run._since_ckpt == 0:
            self._unacked.clear()

    # -- crash / restart -----------------------------------------------------

    def mark_crashed(self, exc: BaseException, restart_at: Optional[float]
                     ) -> None:
        """Record a crash; ``restart_at=None`` means quarantined."""
        self.crashes += 1
        self.last_error = f"{type(exc).__name__}: {exc}"
        if restart_at is None:
            self.state = ShardState.QUARANTINED
            self.restart_at = None
        else:
            self.state = ShardState.BACKOFF
            self.restart_at = float(restart_at)

    def fence(self) -> RecordBatch:
        """Hand over the queue (quarantine → dead-letter drain)."""
        return self.queue.drain()

    def restart(self, now: float) -> None:
        """Rebuild the run from the last checkpoint and replay unacked.

        With no checkpoint yet (the crash beat the first write), the
        shard restores its pristine template state and starts the
        window over — every delivered record is still in ``_unacked``,
        so nothing is lost either way.
        """
        self.restarts += 1
        replay = self._unacked.drain()
        have_ckpt = self._has_checkpoint()
        if not have_ckpt:
            self.elsa.restore_online_state(copy.deepcopy(self._helo_seed))
        run = self._build_run(resume=have_ckpt)
        if have_ckpt:
            # defensive: skip any replay prefix the cursor already covers
            acked = self.records_fed - len(replay)
            skip = max(0, run.predictor.n_records_fed - acked)
            replay = replay[skip:]
        self.run = run
        self.records_fed = run.predictor.n_records_fed
        chunk = self.policy.chunk_records
        # the replayed tail is a new causal chain, parented on the one
        # that crashed — postmortems link the restart to its incident
        ctx = mint_trace(tenant=self.tenant, parent_id=self.last_trace)
        self.last_trace = ctx.trace_id
        with trace_scope(ctx):
            for i in range(0, len(replay), chunk):
                part = replay[i : i + chunk]
                # back into the replay buffer before feeding — a crash
                # during replay must not lose the tail either
                self._unacked.extend(part)
                fed = run.feed_chunk(part)
                self.records_fed += fed
                self._maybe_ack()
        self.state = ShardState.RUNNING
        self.restart_at = None
        self.last_error = None
        self.last_beat = now
        log.info(
            "shard restarted from checkpoint",
            extra=obs.logging.kv(
                tenant=self.tenant, restarts=self.restarts,
                cursor=self.records_fed, replayed=len(replay),
            ),
        )

    def finish(self) -> list:
        """Drain nothing further; seal the stream and keep predictions."""
        if self.predictions is None:
            self.predictions = self.run.finish()
            if self.state is not ShardState.QUARANTINED:
                self.state = ShardState.STOPPED
        return self.predictions

    def force_checkpoint(self) -> bool:
        """Checkpoint now regardless of cadence (graceful-drain path).

        Unlike :meth:`finish` this does **not** seal the stream — a
        restarted server resumes from here and keeps feeding.  Returns
        whether a checkpoint was written.
        """
        if self.checkpoint_path is None or self.predictions is not None:
            return False
        self.run._maybe_checkpoint()
        self.run._since_ckpt = 0
        self._maybe_ack()
        return True

    def partial_predictions(self) -> list:
        """Predictions emitted so far, without sealing the stream.

        Once sealed, the sealed list is returned instead (it is the
        same data, finish() only sorts and stops the clock).
        """
        if self.predictions is not None:
            return list(self.predictions)
        preds = list(getattr(self.run.predictor, "_predictions", ()))
        preds.sort(key=lambda p: p.emitted_at)
        return preds

    # -- chaos hooks ---------------------------------------------------------

    def inject_kill(self, after_records: int) -> None:
        """Crash once when the feed cursor crosses ``after_records``.

        Kill points stack: each call queues another crash, so repeated
        ``--kill TENANT:N`` specs drive the flap counter all the way to
        quarantine instead of silently replacing one another.
        """
        self._kill_at.append(int(after_records))
        self._kill_at.sort()

    def inject_hang(self, seconds: float) -> None:
        """Stall the next step for ``seconds`` of supervision time."""
        self._hang_seconds = float(seconds)

    def inject_poison(self) -> None:
        """Crash on every step until :meth:`heal` — a flapping shard."""
        self._poisoned = True

    def heal(self) -> None:
        """Clear the poison injection."""
        self._poisoned = False

    # -- reporting -----------------------------------------------------------

    def info(self) -> dict:
        """The ``/fleet`` row for this shard."""
        rung = None
        ladder = getattr(self.run, "ladder", None)
        if ladder is not None:
            rung = int(ladder.rung)
        return {
            "tenant": self.tenant,
            "state": self.state.value,
            "queue_depth": len(self.queue),
            "unacked": len(self._unacked),
            "records_fed": self.records_fed,
            "restarts": self.restarts,
            "crashes": self.crashes,
            "shed": self.shed,
            "shed_by_severity": dict(self.shed_by_severity),
            "rejected": self.rejected,
            "restart_at": self.restart_at,
            "last_beat": self.last_beat,
            "last_error": self.last_error,
            "last_trace": self.last_trace,
            "ladder_rung": rung,
            "predictions": (
                len(self.predictions) if self.predictions is not None
                else None
            ),
        }
