"""The self-healing loop: drift-triggered shadow retraining + hot-swap.

The paper leans on online retraining to survive system evolution
("systems experience software upgrades ... phase shifts in behavior",
section I) and PR 3's :class:`~repro.prediction.scoreboard.DriftDetector`
*notices* when the stream has stopped looking like the training data —
but nothing acts on it.  :class:`SelfHealingRun` closes that loop
around a :class:`~repro.resilience.checkpoint.ResumableRun`:

1. **Trigger** — a drift-alert rising edge (the detector's ``on_drift``
   hook) or the scoreboard's sliding-window recall sinking below a
   floor marks the incumbent model as degraded.
2. **Shadow retrain** — a candidate model is learned from a bounded
   recent-window buffer of the fed batch segments via
   :meth:`~repro.core.elsa.ELSA.learn_candidate` (template ids stay
   stable; new message shapes mint new ids), holding out the most
   recent slice.
3. **Validation gate** — candidate and incumbent both replay the
   held-out slice through fresh batch engines and are scored against
   the holdout's ground-truth faults with the exact matching rules the
   scoreboard enforces (``evaluate_predictions``; the two are equal by
   the tested scoreboard property).  The candidate must *beat* the
   incumbent.
4. **Hot-swap or rollback** — a winner is registered with the
   :class:`~repro.lifecycle.manager.ModelManager`, activated, and
   swapped into the streaming predictor atomically
   (:meth:`~repro.prediction.engine.HybridPredictor.swap_model`:
   no prediction dropped or duplicated); a loser is rolled back and the
   next attempt waits out an exponential backoff.

Every transition is a ``lifecycle.*`` metric, a provenance event in the
manager's flight recorder, and part of the ``lifecycle`` section of
``/state``.  Checkpoints carry the active model version and ladder
rung, so a killed run resumes on the *swapped* model, not the seed.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Sequence

import numpy as np

from repro import obs
from repro.columnar import RecordBatch
from repro.lifecycle.ladder import DegradationLadder
from repro.lifecycle.manager import ModelManager
from repro.prediction.engine import HybridPredictor, TestStream
from repro.prediction.evaluation import evaluate_predictions
from repro.resilience.checkpoint import (
    DEFAULT_LIFECYCLE,
    ResumableRun,
)

__all__ = ["LifecyclePolicy", "SelfHealingRun"]

log = obs.get_logger(__name__)


@dataclass
class LifecyclePolicy:
    """Knobs of the self-healing loop.

    Times are stream seconds (the simulated clock), not wall clock —
    the loop must behave identically in replay and live deployment.
    """

    #: bounded recent-window buffer the shadow retrainer learns from
    retrain_window_seconds: float = 43200.0
    #: most recent fraction of the buffer held out for validation
    holdout_fraction: float = 0.25
    #: holdout faults needed for a conclusive verdict; fewer → reject
    min_holdout_faults: int = 1
    #: records needed in the train slice before an attempt is made
    min_train_records: int = 500
    #: sliding-window recall below this (with enough window faults)
    #: triggers a retrain even without a drift alert
    recall_trigger_threshold: float = 0.35
    #: window faults needed before the recall trigger may fire
    min_recall_faults: int = 3
    #: candidate must beat the incumbent's holdout recall by this much
    margin: float = 0.0
    #: minimum stream seconds between successful swaps
    cooldown_seconds: float = 3600.0
    #: rejected-candidate backoff: initial, growth factor, cap
    backoff_initial_seconds: float = 1800.0
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 86400.0
    #: on a drift trigger, prefer learning from records after the
    #: drift started (the post-shift regime) when enough exist
    prefer_post_trigger_window: bool = True
    #: soft watchdog on the shadow-retrain span (wall seconds)
    retrain_deadline_s: float = 300.0
    #: records per feed chunk — the trigger-check cadence; a plain
    #: resumable run feeds 4096 at a time, far too coarse for healing
    heal_check_records: int = 1024
    #: drift-detector alert threshold override (``None`` = its default);
    #: raise it on noisy systems so natural rate variance does not burn
    #: the retrain budget before a real shift arrives
    drift_threshold: Optional[float] = None


class SelfHealingRun(ResumableRun):
    """A :class:`ResumableRun` that retrains, validates and hot-swaps.

    Parameters
    ----------
    elsa:
        A fitted :class:`~repro.core.elsa.ELSA`; its ``model`` is the
        seed (version 1) and is replaced in place on every accepted
        swap, so classification follows the active model.
    faults:
        Ground-truth faults: drives the in-stream scoreboard *and* the
        validation gate's holdout scoring.  Empty disables the recall
        trigger and makes every validation inconclusive (rejected), so
        without ground truth the run never swaps — by design: an
        unvalidated swap is how self-healing loops break themselves.
    store_dir:
        Passed to the :class:`ModelManager`; with it every version is
        pickled and a resumed run restores the swapped model.
    """

    def __init__(
        self,
        elsa,
        t_start: float,
        t_end: float,
        faults: Sequence = (),
        policy: Optional[LifecyclePolicy] = None,
        manager: Optional[ModelManager] = None,
        store_dir: Optional[os.PathLike] = None,
        checkpoint_path: Optional[os.PathLike] = None,
        checkpoint_every: Optional[int] = None,
        batch_size: Optional[int] = None,
        seed_version: int = 1,
        history=None,
        slo_engine=None,
    ) -> None:
        super().__init__(
            elsa, t_start, t_end,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            batch_size=batch_size,
            history=history,
            slo_engine=slo_engine,
        )
        self.policy = policy or LifecyclePolicy()
        self.manager = manager or ModelManager(store_dir=store_dir)
        self.faults = [
            f for f in faults if t_start <= f.fail_time < t_end
        ]
        reason = "seed" if seed_version == 1 else "resume"
        self.manager.register(
            elsa.model, reason=reason, stream_time=t_start,
            version=seed_version,
        )
        self.manager.activate(seed_version, t_start)
        # the degradation ladder follows the predictor's breakers
        self.ladder = DegradationLadder()
        self.predictor.attach_ladder(self.ladder)
        # ladder moves and lifecycle decisions land in the metric
        # history as annotated events next to the series they explain
        self.ladder.on_transition = self._annotate_ladder
        self.scoreboard = None
        if self.faults:
            from repro.prediction.scoreboard import OnlineScoreboard

            self.scoreboard = OnlineScoreboard(faults=self.faults)
            self.predictor.attach_scoreboard(self.scoreboard)
        self.drift = self._attach_drift_detector()
        # bounded recent-window buffer the shadow retrainer learns
        # from: the fed chunks, trimmed at the front
        self._buffer: Deque[RecordBatch] = deque()
        self._clock = float(t_start)  # last fed record timestamp
        self._trigger: Optional[str] = None
        self._drift_started_at: Optional[float] = None
        self._not_before = float(t_start)
        self._backoff = self.policy.backoff_initial_seconds
        self.retrains = 0
        self.swaps = 0
        self.rollbacks = 0
        #: set by :meth:`resume` when a missing model snapshot forced a
        #: fresh fit on the seed model instead of a true resume
        self.resumed_degraded = False
        obs.register_state_section("lifecycle", self.state)

    @classmethod
    def resume(cls, elsa, checkpoint: dict, **kwargs) -> "SelfHealingRun":
        """Rebuild a self-healing run on the checkpoint's model.

        This only decides which model the run resumes on; everything
        else is :meth:`ResumableRun.resume`.  The checkpoint's
        ``lifecycle`` block names the active model version; for a
        non-seed version the pickled snapshot is loaded from
        ``model_path`` and installed as ``elsa.model`` *before* the
        predictor is rebuilt — the resumed run continues on the swapped
        model, not the seed (the CI soak job's assertion).

        When the checkpoint references a swapped model whose snapshot
        can no longer be loaded (``model_path`` absent, the file gone,
        or unpicklable), the run **degrades to a fresh fit** instead of
        crashing: it keeps the caller's seed model and replays the test
        window from ``t_start`` — the same recovery a brand-new run
        would make — and reports it via the
        ``lifecycle.resume_snapshot_missing`` counter and a warning.
        ``resumed_degraded`` on the returned run records which path was
        taken.
        """
        lc = checkpoint.get("lifecycle") or DEFAULT_LIFECYCLE
        version = int(lc.get("model_version", 1))
        if version == 1:
            return super().resume(elsa, checkpoint, **kwargs)
        path = lc.get("model_path")
        snapshot = None
        if path:
            try:
                snapshot = ModelManager.load_snapshot(path)
            except (OSError, pickle.UnpicklingError, EOFError):
                pass
        if snapshot is not None:
            elsa.model = snapshot
            return super().resume(
                elsa, checkpoint, seed_version=version, **kwargs
            )
        # the swapped model is unrecoverable: restart the window on the
        # seed model rather than refusing to resume — predictor and
        # template state describe the swapped model's behaviour, so
        # they are discarded with it
        obs.counter("lifecycle.resume_snapshot_missing").inc()
        log.warning(
            "checkpoint model snapshot unavailable; "
            "degrading to a fresh fit on the seed model",
            extra=obs.logging.kv(model_version=version, model_path=path),
        )
        pstate = checkpoint["predictor"]
        run = cls(elsa, pstate["t_start"], pstate["t_end"], **kwargs)
        run.resumed_degraded = True
        if run.history is not None:
            run.history.annotate(
                "resume_snapshot_missing", run.t_start,
                {"lost_model_version": version},
            )
        return run

    def _annotate_ladder(self, old, new) -> None:
        """History annotation for every degradation-ladder move."""
        if self.history is None:
            return
        self.history.annotate(
            "ladder_transition", self._clock,
            {"from": old.name.lower(), "to": new.name.lower()},
        )

    # -- ResumableRun hooks --------------------------------------------------

    def _after_chunk(self, batch: RecordBatch) -> None:
        """Buffer the chunk, then consider healing at its horizon.

        Records leave the buffer's front while they are older than the
        retrain window, stopping at the first one that is not.
        """
        self._clock = float(batch.timestamps[-1])
        self._buffer.append(batch)
        horizon = self._clock - self.policy.retrain_window_seconds
        while self._buffer:
            old = self._buffer[0].timestamps < horizon
            if old.all():
                self._buffer.popleft()
                continue
            keep = int(np.argmin(old))
            if keep:
                self._buffer[0] = self._buffer[0].slice(
                    keep, len(self._buffer[0])
                )
            break
        self._maybe_heal(self._clock)

    def _chunk_size(self) -> int:
        chunk = self.policy.heal_check_records
        if self.batch_size is not None:
            chunk = min(chunk, self.batch_size)
        if self.checkpoint_every:
            chunk = min(chunk, self.checkpoint_every)
        return chunk

    def _lifecycle_state(self) -> dict:
        mv = self.manager.version_info(self.manager.active_version)
        return {
            "model_version": self.manager.active_version,
            "ladder_rung": int(self.ladder.rung),
            "model_path": mv.path,
        }

    def _restore_lifecycle(self, lifecycle: dict) -> None:
        # restoring a checkpointed rung is not a live transition —
        # don't annotate it as one
        self.ladder.on_transition = None
        self.ladder.restore(int(lifecycle.get("ladder_rung", 0)))
        self.ladder.on_transition = self._annotate_ladder
        # stream clock resumes at the last closed sample; the record
        # buffer restarts empty and refills from the live stream
        self._clock = self.t_start + (
            self.predictor._k * self.predictor.sampling_period
        )

    # -- triggers ------------------------------------------------------------

    def _attach_drift_detector(self):
        """Attach a detector for the *current* model's baseline."""
        detector = None
        if self.policy.drift_threshold is not None:
            from repro.prediction.scoreboard import DriftDetector

            detector = DriftDetector.from_behaviors(
                self.predictor.behaviors,
                self.predictor._anchors,
                threshold=self.policy.drift_threshold,
            )
        detector = self.predictor.attach_drift_detector(detector)
        detector.on_drift = self._on_drift
        return detector

    def _on_drift(self, detector) -> None:
        """Rising-edge drift alert → mark the incumbent degraded."""
        self._drift_started_at = self._clock
        if self.history is not None:
            self.history.annotate(
                "drift_alert", self._clock,
                {"score": round(detector.score, 3)},
            )
        if self._trigger is None:
            self._trigger = "drift"
            obs.counter("lifecycle.trigger_drift").inc()
            self.manager.events.append(
                obs.LifecycleEvent(
                    "trigger", self._clock,
                    {"reason": "drift", "score": round(detector.score, 3)},
                )
            )

    def _check_recall_trigger(self) -> None:
        if self._trigger is not None or self.scoreboard is None:
            return
        sb = self.scoreboard
        if (
            sb.window_fault_count >= self.policy.min_recall_faults
            and sb.window_recall < self.policy.recall_trigger_threshold
        ):
            self._trigger = "recall"
            obs.counter("lifecycle.trigger_recall").inc()
            self.manager.events.append(
                obs.LifecycleEvent(
                    "trigger", self._clock,
                    {
                        "reason": "recall",
                        "window_recall": round(sb.window_recall, 3),
                        "window_faults": sb.window_fault_count,
                    },
                )
            )

    def request_retrain(self, reason: str = "manual") -> None:
        """Arm the loop explicitly (operator override, tests)."""
        if self._trigger is None:
            self._trigger = reason

    # -- the loop ------------------------------------------------------------

    def _maybe_heal(self, now: float) -> None:
        self._check_recall_trigger()
        if self._trigger is None or now < self._not_before:
            return
        self._shadow_retrain(now, self._trigger)

    def _split_buffer(self, now: float, reason: str):
        """Train/holdout batches of the buffer, or ``None`` if too thin."""
        if not self._buffer:
            return None
        buf = RecordBatch.concat(list(self._buffer))
        ts = buf.timestamps
        t0 = float(ts[0])
        holdout_start = now - self.policy.holdout_fraction * (now - t0)
        if (
            reason == "drift"
            and self.policy.prefer_post_trigger_window
            and self._drift_started_at is not None
            and self._drift_started_at > t0
        ):
            # learn the post-shift regime, not a blend of both
            post = ts >= self._drift_started_at
            n_train = int(np.count_nonzero(post & (ts < holdout_start)))
            if n_train >= self.policy.min_train_records:
                buf = buf.take(post)
                ts = buf.timestamps
                t0 = self._drift_started_at
        early = ts < holdout_start
        train, holdout = buf.take(early), buf.take(~early)
        if len(train) < self.policy.min_train_records or not len(holdout):
            return None
        return train, holdout, t0, holdout_start

    def _shadow_retrain(self, now: float, reason: str) -> None:
        split = self._split_buffer(now, reason)
        if split is None:
            return  # buffer still filling; retry at the next chunk
        train, holdout, t0, holdout_start = split
        self.retrains += 1
        obs.counter("lifecycle.retrains").inc()
        policy = self.policy
        with obs.span(
            "shadow_retrain",
            deadline_s=policy.retrain_deadline_s,
            trigger=reason,
            train_records=len(train),
            holdout_records=len(holdout),
        ) as sp:
            try:
                candidate = self.elsa.learn_candidate(
                    train, t0, holdout_start
                )
            except Exception as exc:
                sp["error"] = f"{type(exc).__name__}: {exc}"
                self._reject(now, reason, {"reason": "retrain-failed",
                                           "error": str(exc)})
                return
            # the newest record sits exactly at ``now``; pad the replay
            # window one sample so signal extraction accepts it
            val_end = now + self.elsa.config.sampling_period
            holdout_faults = [
                f for f in self.faults
                if holdout_start <= f.fail_time < val_end
            ]
            if len(holdout_faults) < policy.min_holdout_faults:
                self._reject(now, reason, {
                    "reason": "validation-inconclusive",
                    "holdout_faults": len(holdout_faults),
                })
                return
            cand = self._validate(
                candidate, holdout, holdout_start, val_end, holdout_faults
            )
            incumbent = self._validate(
                self.elsa.model, holdout, holdout_start, val_end,
                holdout_faults,
            )
            sp["candidate_recall"] = round(cand["recall"], 3)
            sp["incumbent_recall"] = round(incumbent["recall"], 3)
            beats = cand["recall"] > incumbent["recall"] + policy.margin or (
                cand["recall"] >= incumbent["recall"]
                and cand["precision"] > incumbent["precision"] + policy.margin
            )
            if not beats:
                # the incumbent won: the alarm is adjudicated false, so
                # disarm it — a real regression re-arms via the next
                # drift edge or the recall floor, after the backoff
                self._reject(now, reason, {
                    "reason": "validation-lost",
                    "candidate": cand,
                    "incumbent": incumbent,
                }, clear_trigger=True)
                return
            self._swap(candidate, now, reason, cand, incumbent)

    def _validate(
        self, model, holdout: RecordBatch, t_start: float, t_end: float,
        faults,
    ) -> dict:
        """Replay the holdout through a fresh predictor's ``run``; score it.

        Classification uses a *copy* of the online HELO state so the
        replay cannot mutate the live classifier; the stream reads ids
        against the scored model's own ``n_types`` (each model sees
        exactly the templates it knows).
        """
        from repro.helo.online import OnlineHELO

        helo = OnlineHELO.from_state(self.elsa.online_state_dict())
        cfg = self.elsa.config
        stream = TestStream(
            batch=holdout,
            event_ids=self.elsa.classify(holdout, helo),
            n_types=model.n_types,
            t_start=t_start,
            t_end=t_end,
            sampling_period=cfg.sampling_period,
        )
        predictions = HybridPredictor.from_model(model, cfg).run(stream)
        result = evaluate_predictions(predictions, faults)
        return {
            "recall": result.recall,
            "precision": result.precision,
            "predictions": len(predictions),
        }

    def _swap(self, candidate, now, reason, cand, incumbent) -> None:
        mv = self.manager.register(
            candidate, reason=reason, stream_time=now,
            scores={
                "candidate_recall": cand["recall"],
                "candidate_precision": cand["precision"],
                "incumbent_recall": incumbent["recall"],
                "incumbent_precision": incumbent["precision"],
            },
        )
        self.manager.activate(mv.version, now)
        self.elsa.model = candidate
        self.predictor.swap_model(candidate)
        self.swaps += 1
        obs.counter("lifecycle.swaps").inc()
        if self.history is not None:
            self.history.annotate(
                "model_swap", now,
                {
                    "version": mv.version,
                    "trigger": reason,
                    "candidate_recall": round(cand["recall"], 3),
                    "incumbent_recall": round(incumbent["recall"], 3),
                },
            )
        # fresh drift baseline from the new characterization — the old
        # detector would keep alerting against the model we just retired
        self.drift = self._attach_drift_detector()
        self._trigger = None
        self._drift_started_at = None
        self._backoff = self.policy.backoff_initial_seconds
        obs.gauge("lifecycle.backoff_seconds").set(0.0)
        self._not_before = now + self.policy.cooldown_seconds
        log.info(
            "model hot-swapped",
            extra=obs.logging.kv(
                version=mv.version,
                trigger=reason,
                candidate_recall=round(cand["recall"], 3),
                incumbent_recall=round(incumbent["recall"], 3),
            ),
        )

    def _reject(
        self, now: float, trigger: str, detail: dict,
        clear_trigger: bool = False,
    ) -> None:
        self.rollbacks += 1
        self.manager.rollback(now, dict(detail, trigger=trigger))
        if self.history is not None:
            self.history.annotate(
                "model_rollback", now, dict(detail, trigger=trigger)
            )
        self._not_before = now + self._backoff
        obs.gauge("lifecycle.backoff_seconds").set(self._backoff)
        self._backoff = min(
            self._backoff * self.policy.backoff_factor,
            self.policy.backoff_max_seconds,
        )
        if clear_trigger:
            self._trigger = None
            self._drift_started_at = None

    # -- reporting -----------------------------------------------------------

    def state(self) -> dict:
        """The ``lifecycle`` section of ``/state``."""
        return {
            "active_version": self.manager.active_version,
            "ladder": self.ladder.state(),
            "trigger": self._trigger,
            "retrains": self.retrains,
            "swaps": self.swaps,
            "rollbacks": self.rollbacks,
            "backoff_seconds": self._backoff,
            "not_before": self._not_before,
            "buffer_records": sum(len(b) for b in self._buffer),
            "breakers": self.predictor.breakers.states(),
            "manager": self.manager.state(),
        }

    def summary(self) -> str:
        """One status line for the console."""
        return (
            f"lifecycle: model v{self.manager.active_version} "
            f"rung={self.ladder.rung.name.lower()} "
            f"retrains={self.retrains} swaps={self.swaps} "
            f"rollbacks={self.rollbacks}"
        )
