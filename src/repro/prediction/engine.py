"""The hybrid online predictor (sections III and VI).

The online phase consumes the classified event stream sample by sample
(the per-sample engine is
:class:`~repro.prediction.streaming.StreamingHybridPredictor`;
:meth:`HybridPredictor.run` feeds it a whole window):

1. per-signal **outlier detection** with the causal moving-median filter,
   using the thresholds derived offline;
2. **chain triggering** — an outlier on a chain's anchor signal opens a
   prediction: the chain's remaining events are expected at their learned
   delays, so the failure (the chain's last event) is predicted at
   ``t_anchor + span``;
3. **location attachment** via the learned per-chain propagation profile;
4. **analysis-time accounting** — the prediction becomes *visible* only
   after the analysis window closes; predictions whose window is consumed
   entirely by analysis are dropped and counted (the paper reports the
   faults missed "because the outlier detection and prediction took too
   long").

Re-triggering is suppressed while a chain instance is active: "If the
incoming event type is already in an active correlation list, we do not
investigate it further."
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.columnar import RecordBatch, event_id_array
from repro.obs.forensics import current_trace_id
from repro.obs.metrics import TIME_BUCKETS
from repro.obs.provenance import FlightRecorder, PredictionProvenance
from repro.location.propagation import LocationIndex, LocationPredictor
from repro.mining.correlations import CorrelationChain
from repro.mining.grite import GriteConfig
from repro.prediction.analysis_time import AnalysisTimeModel
from repro.resilience.breaker import ComponentBreakers
from repro.signals.characterize import NormalBehavior
from repro.signals.extraction import SignalSet, extract_signals
from repro.signals.outliers import OnlineOutlierDetector, OnlinePeriodicDetector
from repro.simulation.templates import SignalClass
from repro.simulation.trace import LogRecord

#: records per ``feed`` call when :meth:`HybridPredictor.run` drives the
#: stream engine over a whole window
RUN_CHUNK = 4096


@dataclass
class TestStream:
    """The online phase's input: classified records over a time window."""

    #: not a pytest class, despite the name
    __test__ = False

    records: Sequence[LogRecord]
    event_ids: Sequence[Optional[int]]
    n_types: int
    t_start: float
    t_end: float
    sampling_period: float = 10.0

    def __post_init__(self) -> None:
        if len(self.records) != len(self.event_ids):
            raise ValueError("event_ids must parallel records")
        if self.t_end <= self.t_start:
            raise ValueError("empty stream window")
        self._signals: Optional[SignalSet] = None
        self._index: Optional[LocationIndex] = None
        self._msg_counts: Optional[np.ndarray] = None

    @property
    def signals(self) -> SignalSet:
        """Signal set of the stream (lazy, cached)."""
        if self._signals is None:
            self._signals = extract_signals(
                self.records,
                self.event_ids,
                n_types=self.n_types,
                sampling_period=self.sampling_period,
                t_start=self.t_start,
                t_end=self.t_end,
            )
        return self._signals

    @property
    def location_index(self) -> LocationIndex:
        """Per-event-type location lookup (lazy, cached)."""
        if self._index is None:
            self._index = LocationIndex(
                self.records,
                self.event_ids,
                sampling_period=self.sampling_period,
                t_start=self.t_start,
            )
        return self._index

    @property
    def message_counts(self) -> np.ndarray:
        """Raw messages per sample (drives the analysis-time model)."""
        if self._msg_counts is None:
            n = self.signals.n_samples
            idx = np.array(
                [
                    int((r.timestamp - self.t_start) / self.sampling_period)
                    for r in self.records
                ],
                dtype=np.int64,
            )
            idx = idx[(idx >= 0) & (idx < n)]
            self._msg_counts = np.bincount(idx, minlength=n)
        return self._msg_counts


@dataclass(frozen=True)
class Prediction:
    """One emitted failure prediction.

    ``trigger_time`` is the end of the observation sample;
    ``emitted_at = trigger_time + analysis_time`` is when the prediction
    becomes visible (Fig. 8); ``predicted_time`` is when the chain's last
    event is expected.  ``locations`` is the predicted affected set.

    ``predicted_lo``/``predicted_hi`` bound the adaptive prediction
    interval when the chain's training-time span distribution is known
    (per-chain windows, after the authors' SLAML'11 adaptive-window
    work); both default to ``predicted_time`` for point predictions.
    """

    trigger_time: float
    emitted_at: float
    predicted_time: float
    locations: Tuple[str, ...]
    chain_key: Tuple
    anchor_event: int
    fatal_event: int
    source: str = "hybrid"
    predicted_lo: Optional[float] = None
    predicted_hi: Optional[float] = None

    @property
    def interval(self) -> Tuple[float, float]:
        """The prediction interval (collapses to a point when unknown)."""
        lo = self.predicted_lo if self.predicted_lo is not None else self.predicted_time
        hi = self.predicted_hi if self.predicted_hi is not None else self.predicted_time
        return lo, hi

    @property
    def visible_window(self) -> float:
        """Usable seconds between visibility and the predicted failure."""
        return self.predicted_time - self.emitted_at

    @property
    def analysis_time(self) -> float:
        """Seconds spent analyzing before the prediction was visible."""
        return self.emitted_at - self.trigger_time

    def to_dict(self) -> dict:
        """JSON-ready form (CLI output files, checkpoints).

        Numpy scalars (chain delays, quantile arithmetic) are coerced to
        native types so ``json.dumps`` needs no fallback hook.
        """
        return {
            "trigger_time": float(self.trigger_time),
            "emitted_at": float(self.emitted_at),
            "predicted_time": float(self.predicted_time),
            "predicted_lo": (
                None if self.predicted_lo is None else float(self.predicted_lo)
            ),
            "predicted_hi": (
                None if self.predicted_hi is None else float(self.predicted_hi)
            ),
            "locations": list(self.locations),
            "chain_key": [
                [int(x) for x in item] for item in self.chain_key
            ],
            "anchor_event": int(self.anchor_event),
            "fatal_event": int(self.fatal_event),
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Prediction":
        """Inverse of :meth:`to_dict` (floats round-trip exactly)."""
        def _opt(key: str) -> Optional[float]:
            value = d.get(key)
            return None if value is None else float(value)

        return cls(
            trigger_time=float(d["trigger_time"]),
            emitted_at=float(d["emitted_at"]),
            predicted_time=float(d["predicted_time"]),
            locations=tuple(d["locations"]),
            chain_key=tuple(tuple(item) for item in d["chain_key"]),
            anchor_event=int(d["anchor_event"]),
            fatal_event=int(d["fatal_event"]),
            source=str(d.get("source", "hybrid")),
            predicted_lo=_opt("predicted_lo"),
            predicted_hi=_opt("predicted_hi"),
        )


@dataclass
class PredictorConfig:
    """Online-engine knobs.

    ``detector_window`` is N of the causal median filter, in samples (the
    paper uses two months; scaled scenarios use less).
    ``min_visible_window`` drops predictions whose window closed during
    analysis.  ``suppression_slack`` extends the active period of a
    triggered chain beyond its predicted time.
    """

    detector_window: int = 8640  # one day at 10 s
    detector_warmup: int = 30
    min_visible_window: float = 0.0
    suppression_slack: float = 60.0
    default_threshold: float = 0.5
    #: chains below this training confidence are not armed online — the
    #: paper's hybrid keeps "only the most frequent subset", which is why
    #: its online correlation set is small (62) and its precision high.
    min_chain_confidence: float = 0.5


class HybridPredictor:
    """ELSA hybrid online predictor.

    Parameters
    ----------
    chains:
        Predictive correlation chains from the offline phase (already
        filtered for severity — INFO-only chains removed).
    behaviors:
        Per-event-type :class:`NormalBehavior` from training; event types
        unseen in training default to silent behaviour.
    location_predictor:
        Learned per-chain propagation profiles.
    analysis_model:
        Analysis-time cost model; defaults to the hybrid calibration.
    breakers:
        Per-component circuit breakers guarding the signal-analysis and
        location-attachment paths; defaults to a fresh set.  A component
        that throws repeatedly is tripped open and the run degrades (no
        outliers for the failing anchor / anchor-only locations) instead
        of crashing; the breaker half-opens after its cooldown.
    """

    source_name = "hybrid"

    def __init__(
        self,
        chains: Sequence[CorrelationChain],
        behaviors: Mapping[int, NormalBehavior],
        location_predictor: LocationPredictor,
        analysis_model: Optional[AnalysisTimeModel] = None,
        grite_config: Optional[GriteConfig] = None,
        config: Optional[PredictorConfig] = None,
        span_quantiles: Optional[Mapping[Tuple, Tuple[int, int, int]]] = None,
        breakers: Optional[ComponentBreakers] = None,
    ) -> None:
        self.config = config or PredictorConfig()
        self.span_quantiles = dict(span_quantiles or {})
        self.chains = [
            c
            for c in chains
            if c.confidence >= self.config.min_chain_confidence
        ]
        self.behaviors = dict(behaviors)
        self.location_predictor = location_predictor
        self.analysis_model = analysis_model or AnalysisTimeModel.hybrid(
            len(self.chains)
        )
        self.grite_config = grite_config or GriteConfig()
        self.breakers = breakers or ComponentBreakers()
        #: chain_key -> number of predictions it produced in the last run
        self.chain_usage: Counter = Counter()
        #: predictions dropped because analysis consumed their window
        self.n_too_late: int = 0
        #: anchors whose detection degraded in the last run (error
        #: boundary), each once, in first-degraded order
        self.degraded_anchors: List[int] = []
        #: audit records of the last emitted predictions (ring buffer)
        self.flight_recorder = FlightRecorder()
        #: optional graceful-degradation ladder (see :meth:`attach_ladder`)
        self.ladder = None

    def attach_ladder(self, ladder) -> None:
        """Drive a :class:`~repro.lifecycle.ladder.DegradationLadder`.

        The ladder follows this predictor's circuit breakers — one rung
        per update, reported through ``lifecycle.ladder_rung`` — and
        arms the bottom rung's per-type rate baseline: while on
        ``RATE_BASELINE``, an anchor whose guarded detector is
        unavailable falls back to the crude mean-rate threshold instead
        of going silent.
        """
        self.ladder = ladder

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _chain_key(chain: CorrelationChain) -> Tuple:
        return tuple((it.event_type, it.delay) for it in chain.items)

    def _threshold_for(self, event_type: int) -> float:
        nb = self.behaviors.get(event_type)
        if nb is None:
            return self.config.default_threshold
        return nb.threshold

    def _detector_meta(self, tid: int) -> Dict[str, float]:
        """The provenance description of the detector guarding ``tid``.

        Mirrors :meth:`_make_detector`'s construction exactly, so the
        audit record states the parameters the detector actually ran
        with.
        """
        nb = self.behaviors.get(tid)
        if (
            nb is not None
            and nb.signal_class == SignalClass.PERIODIC
            and nb.period
        ):
            return {
                "kind": "periodic",
                "period": float(nb.period),
                "amplitude": float(max(nb.mean_rate * nb.period, 1.0)),
            }
        return {
            "kind": "median",
            "threshold": float(self._threshold_for(tid)),
            "window": float(self.config.detector_window),
            "warmup": float(self.config.detector_warmup),
        }

    @staticmethod
    def _window_meta(
        quantiles: Optional[Tuple[int, int, int]], chain: CorrelationChain
    ) -> Dict[str, float]:
        """Provenance for the outlier-train window that shaped the
        prediction interval: adaptive quantiles when learned, the fixed
        chain span otherwise."""
        if quantiles is not None:
            q_lo, q_med, q_hi = quantiles
            return {
                "kind": "quantile",
                "lo": float(q_lo),
                "med": float(q_med),
                "hi": float(q_hi),
            }
        return {"kind": "span", "span": float(chain.span)}

    def _record_provenance(
        self,
        pred: Prediction,
        chain: CorrelationChain,
        s: int,
        anchor_value: float,
        quantiles: Optional[Tuple[int, int, int]],
        anchor_loc: str,
    ) -> None:
        """Append the audit record for one emitted prediction."""
        self.flight_recorder.append(
            PredictionProvenance(
                source=self.source_name,
                chain=pred.chain_key,
                anchor_event=pred.anchor_event,
                fatal_event=pred.fatal_event,
                anchor_sample=int(s),
                anchor_value=float(anchor_value),
                detector=self._detector_meta(chain.anchor),
                window=self._window_meta(quantiles, chain),
                anchor_location=anchor_loc,
                locations=pred.locations,
                trigger_time=pred.trigger_time,
                emitted_at=pred.emitted_at,
                predicted_time=pred.predicted_time,
                trace_id=current_trace_id(),
            )
        )

    def _make_detector(self, tid: int):
        """The online detector for one anchor (median or periodic)."""
        nb = self.behaviors.get(tid)
        if (
            nb is not None
            and nb.signal_class == SignalClass.PERIODIC
            and nb.period
        ):
            # Absence/burst detection for beat signals — the online
            # path behind "lack of messages" failure syndromes.
            return OnlinePeriodicDetector(
                period=nb.period,
                amplitude=max(nb.mean_rate * nb.period, 1.0),
            )
        return OnlineOutlierDetector(
            threshold=self._threshold_for(tid),
            window=self.config.detector_window,
            warmup=self.config.detector_warmup,
        )

    def _attach_locations(
        self, chain: CorrelationChain, anchor_loc: str
    ) -> Tuple[str, ...]:
        """Location attachment behind the "locations" error boundary.

        When the location model is unhealthy (tripped breaker) the
        prediction still goes out, degraded to the anchor's own node —
        a late-but-somewhere prediction beats a crashed predictor.
        """
        locations = self.breakers.guarded(
            "locations",
            lambda: tuple(self.location_predictor.predict(chain, anchor_loc)),
        )
        if locations is None:
            obs.counter("predictor.locations_degraded").inc()
            return (anchor_loc,)
        return locations

    # -- main ------------------------------------------------------------------

    def run(self, stream: TestStream) -> List[Prediction]:
        """Run the online phase over a test stream; returns predictions.

        Builds the online engine
        (:class:`~repro.prediction.streaming.StreamingHybridPredictor`)
        from this predictor's own state (breakers, ladder, flight
        recorder, location model, instance overrides), columnarizes the
        window's records once, feeds them stable-sorted by sample index,
        and finishes it.  ``chain_usage``, ``n_too_late`` and
        ``degraded_anchors`` come back onto this predictor.
        """
        from repro.prediction.streaming import StreamingHybridPredictor

        with obs.span(
            "predict", source=self.source_name, chains=len(self.chains)
        ) as sp:
            engine = StreamingHybridPredictor.from_predictor(
                self, stream.t_start, stream.t_end, stream.sampling_period
            )
            t0, t1 = engine.t_start, engine.t_end
            batch = RecordBatch.from_records(stream.records)
            ids = event_id_array(stream.event_ids)
            ts = batch.timestamps
            # the engine's own binning expression, so the order it
            # checks is the order it gets
            s = ((ts - t0) / engine.sampling_period).astype(np.int64)
            window = np.flatnonzero((ts >= t0) & (ts < t1))
            order = window[np.argsort(s[window], kind="stable")]
            batch = batch.take(order)
            ids = ids[order]
            for a in range(0, len(batch), RUN_CHUNK):
                engine.feed(
                    batch.slice(a, a + RUN_CHUNK), ids[a:a + RUN_CHUNK]
                )
            predictions = engine.finish()
            self.chain_usage = engine.chain_usage
            self.n_too_late = engine.n_too_late
            self.degraded_anchors = engine.degraded_anchors
            sp["predictions"] = len(predictions)
            sp["too_late"] = self.n_too_late
            if self.ladder is not None:
                sp["ladder_rung"] = int(self.ladder.rung)
        self._record_metrics(predictions, sp.t_wall)
        return predictions

    def _record_metrics(
        self, predictions: List[Prediction], wall_seconds: float
    ) -> None:
        """Domain metrics for one online run.

        The analysis-time histogram holds the *modeled* per-prediction
        cost (section VI.A's linear model); ``run_wall_seconds`` and the
        ratio gauge hold the *observed* cost of this implementation, so
        the dump cross-checks the model against reality.  Run and
        prediction counts come from the stream engine's ``finish``.
        """
        obs.histogram(
            "predictor.analysis_time_seconds", buckets=TIME_BUCKETS
        ).observe_many([p.analysis_time for p in predictions])
        obs.histogram(
            "predictor.run_wall_seconds", buckets=TIME_BUCKETS
        ).observe(wall_seconds)
        modeled = sum(p.analysis_time for p in predictions)
        if modeled > 0:
            obs.gauge("predictor.analysis_model_wall_ratio").set(
                wall_seconds / modeled
            )
