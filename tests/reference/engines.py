"""Scalar prediction engines: the oracles of the one online engine."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.prediction.engine import HybridPredictor, Prediction
from repro.signals.outliers import restore_detector


class ScalarEngine(HybridPredictor):
    """The online engine with one scalar detector per anchor.

    Fed record by record through :func:`feed_scalar`, it closes samples
    one at a time in :meth:`close_sample`, each anchor's detector in its
    own ``signals`` error boundary; the detector bank is never used.
    :meth:`state_dict` writes the same per-anchor detector states the
    bank does, so checkpoints cross between the two engines.
    """

    def _set_anchors(self) -> None:
        super()._set_anchors()
        self._bank = None
        self._detectors = {t: self._make_detector(t) for t in self._anchors}

    def close_sample(self) -> None:
        """Seal sample ``self._k``: detect outliers, trigger chains."""
        s = self._k
        counts = self._cur_anchor_counts
        if self.ladder is not None:
            # one rung step per closed sample, following the breakers
            self.ladder.update(self.breakers.tripped())
        flagged: Dict[int, bool] = {}
        for tid in self._anchors:
            value = float(counts.get(tid, 0))
            result = self.breakers.guarded(
                "signals", lambda: self._detectors[tid].process(value)
            )
            if result is None:
                if self._skip_anchor(tid, value):
                    flagged[tid] = True
            elif result[0]:
                flagged[tid] = True
        n_before = len(self._predictions)
        if flagged:
            self._trigger_chains(
                s, flagged, counts, self._cur_anchor_locs,
                self.analysis_model.time_for(self._cur_msg_count),
            )
        if self.drift_detector is not None:
            self.drift_detector.observe(
                self._cur_msg_count, self._cur_type_counts
            )
        if self.scoreboard is not None:
            for pred in self._predictions[n_before:]:
                self.scoreboard.record_prediction(pred)
            self.scoreboard.advance(
                self.t_start + (s + 1) * self.sampling_period
            )
        self._k += 1
        self._cur_msg_count = 0
        self._cur_anchor_counts = {}
        self._cur_anchor_locs = {}
        self._cur_type_counts = {}

    def finish(self) -> List[Prediction]:
        while self._k < self.n_samples:
            self.close_sample()
        return super().finish()

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["detectors"] = {
            str(t): d.state_dict() for t, d in self._detectors.items()
        }
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._bank = None
        self._detectors = {
            int(t): restore_detector(d) for t, d in state["detectors"].items()
        }


def scalar_engine(elsa, t_start: float, t_end: float, state=None):
    """A :class:`ScalarEngine` over ``elsa``'s model and stream window.

    ``state`` (a ``state_dict`` of either engine) restores a mid-stream
    snapshot first.
    """
    predictor = ScalarEngine.from_model(
        elsa.model, elsa.config, t_start=t_start, t_end=t_end
    )
    if state is not None:
        predictor.load_state(state)
    return predictor


def feed_scalar(
    predictor,
    records: Sequence,
    event_ids: Sequence[Optional[int]],
) -> None:
    """Record-at-a-time feed loop over a :class:`ScalarEngine`."""
    for rec, tid in zip(records, event_ids):
        if not predictor.t_start <= rec.timestamp < predictor.t_end:
            raise ValueError(
                f"record at {rec.timestamp} outside the stream window"
            )
        s = int(
            (rec.timestamp - predictor.t_start) / predictor.sampling_period
        )
        if s < predictor._k:
            raise ValueError("records must arrive in sample order")
        while predictor._k < s:
            predictor.close_sample()
        predictor._cur_msg_count += 1
        if tid is not None and tid in predictor._detectors:
            predictor._cur_anchor_counts[tid] = (
                predictor._cur_anchor_counts.get(tid, 0) + 1
            )
            predictor._cur_anchor_locs.setdefault(tid, []).append(
                rec.location
            )
        if predictor.drift_detector is not None and tid is not None:
            predictor._cur_type_counts[tid] = (
                predictor._cur_type_counts.get(tid, 0) + 1
            )
        predictor._n_fed += 1


def batch_predict(predictor, stream) -> Tuple[List[Prediction], int]:
    """The whole-window batch engine; ``(predictions, n_too_late)``.

    Extracts the stream's signals, scans each anchor's signal with a
    fresh detector's ``process_array`` inside the signals error
    boundary, walks every trigger in time order (ties in chain order),
    and takes each trigger's anchor location from the stream's
    ``LocationIndex``.
    """
    cfg = predictor.config
    signals = stream.signals
    period = stream.sampling_period
    analysis = predictor.analysis_model.times_for(stream.message_counts)
    outliers = {}
    for tid in sorted({c.anchor for c in predictor.chains}):
        detector = predictor._make_detector(tid)
        result = predictor.breakers.guarded(
            "signals",
            lambda: detector.process_array(signals.signal(tid)),
        )
        if result is not None:
            outliers[tid] = result.indices
    index = stream.location_index

    triggers = []
    for chain in predictor.chains:
        for s in outliers.get(chain.anchor, ()):  # sample indices
            triggers.append((int(s), chain))
    triggers.sort(key=lambda t: t[0])

    active: Dict[Tuple, float] = {}
    predictions: List[Prediction] = []
    n_too_late = 0
    for s, chain in triggers:
        t_trigger = signals.sample_time(s) + period  # sample closes
        t_emit = t_trigger + float(analysis[s])
        t_anchor = signals.sample_time(s)
        ckey = predictor._chain_key(chain)
        quantiles = predictor.span_quantiles.get(ckey)
        if quantiles is not None:
            q_lo, q_med, q_hi = quantiles
            t_pred = t_anchor + q_med * period + period
            t_pred_lo = t_anchor + q_lo * period + period
            t_pred_hi = t_anchor + q_hi * period + period
        else:
            t_pred = t_anchor + chain.span * period + period
            t_pred_lo = t_pred_hi = None
        if t_pred - t_emit < cfg.min_visible_window or t_pred <= t_emit:
            n_too_late += 1
            continue
        anchor_locs = index.locations_near(chain.anchor, s, 0)
        anchor_loc = anchor_locs[0] if anchor_locs else "unknown"
        skey = (ckey, anchor_loc)
        until = active.get(skey)
        if until is not None and t_trigger <= until:
            continue
        active[skey] = (
            (t_pred_hi if t_pred_hi is not None else t_pred)
            + cfg.suppression_slack
        )
        predictions.append(
            Prediction(
                trigger_time=t_trigger,
                emitted_at=t_emit,
                predicted_time=t_pred,
                locations=predictor._attach_locations(chain, anchor_loc),
                chain_key=ckey,
                anchor_event=chain.anchor,
                fatal_event=chain.items[-1].event_type,
                source=predictor.source_name,
                predicted_lo=t_pred_lo,
                predicted_hi=t_pred_hi,
            )
        )
    predictions.sort(key=lambda p: p.emitted_at)
    return predictions, n_too_late
