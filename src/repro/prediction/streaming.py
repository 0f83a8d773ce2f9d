"""The online engine: per-sample hybrid prediction with checkpointable state.

Every prediction comes from :class:`StreamingHybridPredictor`: batch
``HybridPredictor.run`` feeds it a whole window, ``ResumableRun``, the
fleet and ``serve`` feed it chunk by chunk.  The engine keeps per-sample
state:

* one method, :meth:`StreamingHybridPredictor._close`, closes every
  sample — ``feed`` the samples a chunk completes, ``finish`` the ones
  still open — stepping every anchor's online detector for all of them
  in one :class:`~repro.signals.bank.VectorizedDetectorBank` call;
* chain triggering, suppression, and location attachment run per closed
  sample;
* everything mutable (detector windows, active-chain suppression map,
  partial sample accumulators, emitted predictions) serializes to a
  JSON-ready dict via :meth:`state_dict` and restores via
  :meth:`load_state`.

The invariant the crash-recovery tests enforce: feeding the same
records through ``feed``/``finish`` — in any chunking, with any number
of ``state_dict``/``load_state`` round-trips in between — yields
byte-identical predictions, equal to the reference engines in
``tests/reference/`` and to the committed golden digests.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.columnar import RecordBatch, event_id_array
from repro.lifecycle.ladder import Rung
from repro.prediction.analysis_time import AnalysisTimeModel
from repro.prediction.engine import HybridPredictor, Prediction
from repro.signals.bank import BankLayoutError, VectorizedDetectorBank
from repro.simulation.trace import LogRecord


#: bump when the serialized layout changes incompatibly
STATE_VERSION = 1


def _add_type_counts(counts: Dict[int, int], tids: np.ndarray) -> None:
    """Add the classified ids among ``tids`` to per-type ``counts``."""
    seg = tids[tids >= 0]
    if seg.size:
        uniq, cnt = np.unique(seg, return_counts=True)
        for t, c in zip(uniq.tolist(), cnt.tolist()):
            counts[t] = counts.get(t, 0) + c


class StreamingHybridPredictor(HybridPredictor):
    """The online hybrid engine: resumable, one closed sample at a time.

    Construct with the same model artifacts as ``HybridPredictor`` plus
    the stream geometry (``t_start``/``t_end``/``sampling_period``); then
    ``feed`` classified record chunks in timestamp order and ``finish``
    once the stream ends.  ``state_dict``/``load_state`` snapshot and
    restore all mutable state between chunks.
    """

    def __init__(
        self,
        *args,
        t_start: float,
        t_end: float,
        sampling_period: float = 10.0,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._init_stream(t_start, t_end, sampling_period)

    @classmethod
    def from_predictor(
        cls,
        predictor: HybridPredictor,
        t_start: float,
        t_end: float,
        sampling_period: float = 10.0,
    ) -> "StreamingHybridPredictor":
        """A fresh stream engine over ``predictor``'s own instance state.

        Shares the model artifacts, breakers, ladder, flight recorder
        and location model, and keeps instance overrides (a patched
        ``_make_detector``, say); all stream state starts empty.
        """
        engine = cls.__new__(cls)
        engine.__dict__.update(predictor.__dict__)
        # a class attribute on the baselines, so not in __dict__
        engine.source_name = predictor.source_name
        engine._init_stream(t_start, t_end, sampling_period)
        return engine

    def _init_stream(
        self, t_start: float, t_end: float, sampling_period: float
    ) -> None:
        if t_end <= t_start:
            raise ValueError("empty stream window")
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self.sampling_period = float(sampling_period)
        self.n_samples = int(
            np.ceil((self.t_end - self.t_start) / self.sampling_period)
        )
        self._set_anchors()
        # mutable stream state -------------------------------------------------
        self._k = 0  # sample currently accumulating
        self._n_fed = 0  # records consumed so far
        self._finished = False
        self._cur_msg_count = 0
        self._cur_anchor_counts: Dict[int, int] = {}
        self._cur_anchor_locs: Dict[int, List[str]] = {}
        # full per-type counts, kept only while a drift detector is
        # attached (advisory telemetry — not part of checkpoint state)
        self._cur_type_counts: Dict[int, int] = {}
        self._active: Dict[Tuple, float] = {}
        self._predictions: List[Prediction] = []
        self.chain_usage = Counter()
        self.n_too_late = 0
        self.degraded_anchors = []
        #: optional live self-evaluation / drift watchers (see
        #: :mod:`repro.prediction.scoreboard`); both are advisory and
        #: never change a prediction.
        self.scoreboard = None
        self.drift_detector = None

    # -- detectors and chains ------------------------------------------------

    def _set_anchors(self) -> None:
        """Anchors, detector bank and chain index for ``self.chains``.

        The bank holds the detectors :meth:`_make_detector` returns, one
        per anchor, in anchor order; a detector class it cannot hold
        raises :class:`~repro.signals.bank.BankLayoutError`.  With no
        anchors there is no bank.  Chain positions are grouped by
        anchor, in ``self.chains`` order: :meth:`_trigger_chains` walks
        only the chains whose anchor flagged, merging groups back into
        original-index order so the suppression/emission sequence is
        identical to the full scan.
        """
        self._anchors = sorted({c.anchor for c in self.chains})
        self._anchor_arr = np.asarray(self._anchors, dtype=np.int64)
        self._bank = (
            VectorizedDetectorBank(
                [self._make_detector(t) for t in self._anchors]
            )
            if self._anchors
            else None
        )
        self._chains_by_anchor: Dict[int, List[int]] = {}
        for i, chain in enumerate(self.chains):
            self._chains_by_anchor.setdefault(chain.anchor, []).append(i)

    def _skip_anchor(self, tid: int, value: float) -> bool:
        """One anchor's detector was unavailable for one closed sample.

        Records the anchor in ``degraded_anchors`` (once, in
        first-degraded order), counts the skip in
        ``predictor.anchors_degraded``, and returns whether the bottom
        rung's rate baseline flags ``value`` instead.
        """
        if tid not in self.degraded_anchors:
            self.degraded_anchors.append(tid)
        obs.counter("predictor.anchors_degraded").inc()
        if self.ladder is None or self.ladder.rung != Rung.RATE_BASELINE:
            return False
        nb = self.behaviors.get(tid)
        return self.ladder.rate_baseline_outlier(
            value, nb.mean_rate if nb is not None else None
        )

    # -- feeding -------------------------------------------------------------

    def feed(
        self,
        records: Union[RecordBatch, Sequence[LogRecord]],
        event_ids: Union[np.ndarray, Sequence[Optional[int]]],
    ) -> None:
        """Consume a chunk of classified records (sample order).

        ``records`` is a :class:`~repro.columnar.RecordBatch` (a record
        list is columnarized once); ``event_ids`` parallels it, an int64
        array with ``-1`` = unclassified or a list with ``None``.  The
        timestamp and id arrays are read directly, and location strings
        are looked up only for anchor hits.

        The chunk is validated and binned per sampling interval with
        numpy; a chunk containing an out-of-window or out-of-order
        record is rejected before any of it is consumed.  The samples
        the chunk completes close in one :meth:`_close` call, and its
        trailing rows join the still-open sample.
        """
        if len(records) != len(event_ids):
            raise ValueError("event_ids must parallel records")
        if self._finished:
            raise RuntimeError("stream already finished")
        n = len(records)
        if n == 0:
            return
        if not isinstance(records, RecordBatch):
            records = RecordBatch.from_records(records)
        ts = records.timestamps
        bad = (ts < self.t_start) | (ts >= self.t_end)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"record at {ts[i]} outside the stream window"
            )
        s_arr = ((ts - self.t_start) / self.sampling_period).astype(np.int64)
        if s_arr[0] < self._k or (s_arr[1:] < s_arr[:-1]).any():
            raise ValueError("records must arrive in sample order")
        tids = event_id_array(event_ids)
        hits = np.isin(tids, self._anchor_arr)
        rel = s_arr - self._k
        m = int(rel[-1])  # samples this chunk completes
        if m:
            self._close(m, records, rel, tids, hits)
        a = int(np.searchsorted(rel, m, "left"))  # first open-sample row
        self._cur_msg_count += n - a
        self._add_anchor_rows(
            self._cur_anchor_counts, self._cur_anchor_locs,
            records, tids, hits, a, n,
        )
        if self.drift_detector is not None:
            _add_type_counts(self._cur_type_counts, tids[a:])
        self._n_fed += n

    @staticmethod
    def _add_anchor_rows(
        counts: Dict[int, int],
        locs: Dict[int, List[str]],
        records: RecordBatch,
        tids: np.ndarray,
        hits: np.ndarray,
        a: int,
        b: int,
    ) -> None:
        """Add the anchor hits among rows ``[a, b)`` to per-anchor
        ``counts`` and ``locs``."""
        for idx in (np.flatnonzero(hits[a:b]) + a).tolist():
            t = int(tids[idx])
            counts[t] = counts.get(t, 0) + 1
            locs.setdefault(t, []).append(records.location(idx))

    def finish(self) -> List[Prediction]:
        """Close all remaining samples; returns the full prediction list.

        The samples still open close in one :meth:`_close` call.  The
        list covers the whole run including any state restored from a
        checkpoint, sorted by ``emitted_at``.
        """
        m = self.n_samples - self._k
        if m > 0:
            none = np.zeros(0, dtype=np.int64)
            self._close(
                m, RecordBatch.empty(), none, none, np.zeros(0, dtype=bool)
            )
        self._finished = True
        predictions = sorted(self._predictions, key=lambda p: p.emitted_at)
        self._predictions = predictions
        if self.scoreboard is not None:
            self.scoreboard.advance(self.t_end)
            self.scoreboard.finalize()
        obs.counter("predictor.runs").inc()
        obs.counter("predictor.predictions_issued").inc(len(predictions))
        obs.counter("predictor.predictions_too_late").inc(self.n_too_late)
        return predictions

    # -- the sample close ----------------------------------------------------

    def _close(
        self,
        m: int,
        records: RecordBatch,
        rel: np.ndarray,
        tids: np.ndarray,
        hits: np.ndarray,
    ) -> None:
        """Close the ``m`` samples from ``self._k`` on: detect, trigger.

        ``records`` is the chunk being fed (empty from :meth:`finish`)
        with each row's sample offset from ``self._k`` (``rel``, sorted),
        event id and anchor-hit mask; its rows with ``rel < m`` belong to
        the closing samples, and the open sample's accumulators join the
        first of them.  Location strings and per-type counts are read
        only for the samples that need them.

        One :meth:`VectorizedDetectorBank.tick_many` call inside one
        ``signals`` error boundary detects every sample — a failure
        degrades every anchor for the whole block.  One loop then steps
        the ladder, triggers chains and feeds the drift detector and
        scoreboard, sample by sample.  With detection healthy and no
        watcher attached, only the flagged samples have bookkeeping at
        all, and flags are rare, so only those are visited.
        """
        k0 = self._k
        anchors = self._anchors
        a = int(np.searchsorted(rel, m, "left"))  # the closing rows
        values = np.zeros((len(anchors), m), dtype=np.float64)
        hm = hits[:a]
        np.add.at(
            values,
            (np.searchsorted(self._anchor_arr, tids[:a][hm]), rel[:a][hm]),
            1.0,
        )
        for t, c in self._cur_anchor_counts.items():
            values[int(np.searchsorted(self._anchor_arr, t)), 0] += c
        msg = np.bincount(rel[:a], minlength=m)
        msg[0] += self._cur_msg_count
        flags = None
        if self._bank is not None:
            result = self.breakers.guarded(
                "signals", lambda: self._bank.tick_many(values)
            )
            if result is not None:
                flags = result[0]
        drift = self.drift_detector
        if flags is not None and (
            self.ladder is None and self.scoreboard is None and drift is None
        ):
            samples = np.flatnonzero(flags.any(axis=0)).tolist()
        else:
            samples = range(m)
        for j in samples:
            if self.ladder is not None:
                # one rung step per closed sample, following the breakers
                self.ladder.update(self.breakers.tripped())
            if flags is not None:
                flagged = {
                    anchors[i]: True for i in np.flatnonzero(flags[:, j])
                }
            else:
                flagged = {
                    tid: True
                    for i, tid in enumerate(anchors)
                    if self._skip_anchor(tid, float(values[i, j]))
                }
            if flagged or drift is not None:
                a = int(np.searchsorted(rel, j, "left"))
                b = int(np.searchsorted(rel, j, "right"))
            n_before = len(self._predictions)
            if flagged:
                counts = {
                    anchors[i]: int(values[i, j])
                    for i in np.flatnonzero(values[:, j])
                }
                locs: Dict[int, List[str]] = {}
                if j == 0:
                    for t, ls in self._cur_anchor_locs.items():
                        locs[t] = list(ls)
                self._add_anchor_rows({}, locs, records, tids, hits, a, b)
                self._trigger_chains(
                    k0 + j, flagged, counts, locs,
                    self.analysis_model.time_for(int(msg[j])),
                )
            if drift is not None:
                tc = dict(self._cur_type_counts) if j == 0 else {}
                _add_type_counts(tc, tids[a:b])
                drift.observe(int(msg[j]), tc)
            if self.scoreboard is not None:
                for pred in self._predictions[n_before:]:
                    self.scoreboard.record_prediction(pred)
                self.scoreboard.advance(
                    self.t_start + (k0 + j + 1) * self.sampling_period
                )
        self._k = k0 + m
        self._cur_msg_count = 0
        self._cur_anchor_counts = {}
        self._cur_anchor_locs = {}
        self._cur_type_counts = {}

    # -- live self-evaluation -----------------------------------------------

    def attach_scoreboard(self, scoreboard) -> None:
        """Attach an :class:`~repro.prediction.scoreboard.OnlineScoreboard`.

        From then on every emitted prediction is registered with it and
        the scoreboard clock advances as samples close, so its
        sliding-window gauges update live (attach before feeding).
        """
        self.scoreboard = scoreboard

    def attach_drift_detector(self, detector=None):
        """Watch the live stream for divergence from the fitted model.

        ``detector`` defaults to a
        :class:`~repro.prediction.scoreboard.DriftDetector` whose
        baseline comes from the trained per-signal characterization.
        Returns the attached detector.
        """
        if detector is None:
            from repro.prediction.scoreboard import DriftDetector

            detector = DriftDetector.from_behaviors(
                self.behaviors, self._anchors
            )
        self.drift_detector = detector
        return detector

    # -- model hot-swap -------------------------------------------------------

    def swap_model(self, model) -> None:
        """Atomically replace the model artifacts mid-stream.

        ``model`` is a :class:`~repro.core.model.TrainedModel` (a
        validated candidate from the self-healing shadow retrainer).
        Chains, behaviours, locations, prediction windows and the
        per-anchor detectors are rebuilt from it; the *stream* state —
        sample cursor, resume cursor, emitted predictions, suppression
        map, partial-sample accumulators — is untouched, so no
        prediction is dropped or duplicated across the swap boundary.
        Fresh detectors restart their warmup; suppression entries for
        chains the new model no longer arms simply expire.  Call
        between ``feed`` chunks (the lifecycle loop does).
        """
        if self._finished:
            raise RuntimeError("stream already finished")
        self.chains = [
            c for c in model.predictive_chains
            if c.confidence >= self.config.min_chain_confidence
        ]
        self.behaviors = dict(model.behaviors)
        self.location_predictor = model.location_predictor
        self.span_quantiles = dict(model.span_quantiles)
        self.analysis_model = AnalysisTimeModel.hybrid(len(self.chains))
        self._set_anchors()
        obs.counter("lifecycle.predictor_swaps").inc()

    def _trigger_chains(
        self,
        s: int,
        flagged: Dict[int, bool],
        counts: Dict[int, int],
        locs: Dict[int, List[str]],
        analysis_t: float,
    ) -> None:
        """Open, price and emit the chains of one sample's flagged
        anchors."""
        cfg = self.config
        period = self.sampling_period
        t_anchor = self.t_start + s * period
        t_trigger = t_anchor + period
        t_emit = t_trigger + analysis_t
        by_anchor = self._chains_by_anchor
        if len(flagged) == 1:
            idxs = by_anchor.get(next(iter(flagged)), [])
        else:
            # merge the flagged anchors' groups back into original chain
            # order — identical iteration sequence to the full scan
            idxs = sorted(
                i for a in flagged for i in by_anchor.get(a, ())
            )
        for ci in idxs:
            chain = self.chains[ci]
            if not flagged.get(chain.anchor):
                continue
            ckey = self._chain_key(chain)
            quantiles = self.span_quantiles.get(ckey)
            if quantiles is not None:
                q_lo, q_med, q_hi = quantiles
                t_pred = t_anchor + q_med * period + period
                t_pred_lo = t_anchor + q_lo * period + period
                t_pred_hi = t_anchor + q_hi * period + period
            else:
                t_pred = t_anchor + chain.span * period + period
                t_pred_lo = t_pred_hi = None
            if t_pred - t_emit < cfg.min_visible_window or t_pred <= t_emit:
                self.n_too_late += 1
                continue
            anchor_locs = locs.get(chain.anchor, [])
            anchor_loc = anchor_locs[0] if anchor_locs else "unknown"
            skey = (ckey, anchor_loc)
            until = self._active.get(skey)
            if until is not None and t_trigger <= until:
                continue
            self._active[skey] = (
                (t_pred_hi if t_pred_hi is not None else t_pred)
                + cfg.suppression_slack
            )
            locations = self._attach_locations(chain, anchor_loc)
            pred = Prediction(
                trigger_time=t_trigger,
                emitted_at=t_emit,
                predicted_time=t_pred,
                locations=locations,
                chain_key=ckey,
                anchor_event=chain.anchor,
                fatal_event=chain.items[-1].event_type,
                source=self.source_name,
                predicted_lo=t_pred_lo,
                predicted_hi=t_pred_hi,
            )
            self._predictions.append(pred)
            self.chain_usage[pred.chain_key] += 1
            self._record_provenance(
                pred, chain, s,
                anchor_value=float(counts.get(chain.anchor, 0)),
                quantiles=quantiles, anchor_loc=anchor_loc,
            )

    # -- checkpoint serialization ---------------------------------------------

    @property
    def n_records_fed(self) -> int:
        """Records consumed so far (the resume cursor)."""
        return self._n_fed

    def state_dict(self) -> dict:
        """All mutable stream state, JSON-ready."""
        # the bank writes each anchor's detector in the scalar
        # ``state_dict`` format, so checkpoints cross with the oracles
        detectors = self._bank.state_dicts() if self._bank is not None else []
        return {
            "version": STATE_VERSION,
            "n_chains": len(self.chains),
            "n_samples": self.n_samples,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "sampling_period": self.sampling_period,
            "k": self._k,
            "n_fed": self._n_fed,
            "cur": {
                "msg_count": self._cur_msg_count,
                "anchor_counts": {
                    str(t): n for t, n in self._cur_anchor_counts.items()
                },
                "anchor_locs": {
                    str(t): list(l) for t, l in self._cur_anchor_locs.items()
                },
            },
            "active": [
                [[list(item) for item in ckey], loc, until]
                for (ckey, loc), until in self._active.items()
            ],
            "chain_usage": [
                [[list(item) for item in ckey], n]
                for ckey, n in self.chain_usage.items()
            ],
            "n_too_late": self.n_too_late,
            "detectors": dict(zip(map(str, self._anchors), detectors)),
            "predictions": [p.to_dict() for p in self._predictions],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this instance.

        The instance must have been built from the same trained model
        and stream geometry, and the checkpoint must hold one detector
        per anchor that the bank can hold; mismatches raise
        ``ValueError`` before any state changes, instead of silently
        resuming into a different run.
        """
        if state.get("version") != STATE_VERSION:
            raise ValueError(
                f"checkpoint version {state.get('version')!r} not supported"
            )
        for key, mine in (
            ("n_chains", len(self.chains)),
            ("n_samples", self.n_samples),
            ("t_start", self.t_start),
            ("t_end", self.t_end),
            ("sampling_period", self.sampling_period),
        ):
            if state[key] != mine:
                raise ValueError(
                    f"checkpoint mismatch: {key}={state[key]!r}, "
                    f"this run has {mine!r}"
                )
        detectors = {int(t): d for t, d in state["detectors"].items()}
        if sorted(detectors) != self._anchors:
            raise ValueError(
                "checkpoint mismatch: detectors for anchors "
                f"{sorted(detectors)}, this run has {self._anchors}"
            )
        bank = None
        if self._anchors:
            try:
                bank = VectorizedDetectorBank.from_states(
                    [detectors[t] for t in self._anchors]
                )
            except BankLayoutError as exc:
                raise ValueError(
                    f"checkpoint mismatch: detectors {exc}"
                ) from exc
        self._k = int(state["k"])
        self._n_fed = int(state["n_fed"])
        cur = state["cur"]
        self._cur_msg_count = int(cur["msg_count"])
        self._cur_anchor_counts = {
            int(t): int(n) for t, n in cur["anchor_counts"].items()
        }
        self._cur_anchor_locs = {
            int(t): list(l) for t, l in cur["anchor_locs"].items()
        }
        self._active = {
            (tuple(tuple(item) for item in ckey), loc): float(until)
            for ckey, loc, until in state["active"]
        }
        self.chain_usage = Counter(
            {
                tuple(tuple(item) for item in ckey): int(n)
                for ckey, n in state["chain_usage"]
            }
        )
        self.n_too_late = int(state["n_too_late"])
        self._bank = bank
        self._predictions = [
            Prediction.from_dict(d) for d in state["predictions"]
        ]
        self._finished = False
