"""The hybrid online predictor (sections III and VI): the one online engine.

Every prediction comes from :class:`HybridPredictor`:
:meth:`HybridPredictor.run` feeds it a whole window, ``ResumableRun``,
the fleet and ``serve`` chunk by chunk.  The online phase consumes the
classified event stream sample by sample:

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

One method, :meth:`HybridPredictor._close`, closes every sample —
``feed`` the samples a chunk completes, ``finish`` the ones still open
— stepping every anchor's online detector for all of them in one
:class:`~repro.signals.bank.VectorizedDetectorBank` call.  Everything
mutable (detector windows, active-chain suppression map, partial
sample accumulators, emitted predictions) serializes to a JSON-ready
dict via :meth:`HybridPredictor.state_dict` and restores via
:meth:`HybridPredictor.load_state`.

The invariant the crash-recovery tests enforce: feeding the same
records through ``feed``/``finish`` — in any chunking, with any number
of ``state_dict``/``load_state`` round-trips in between — yields
byte-identical predictions, equal to the reference engines in
``tests/reference/`` and to the committed golden digests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.columnar import RecordBatch
from repro.lifecycle.ladder import Rung
from repro.obs.forensics import current_trace_id
from repro.obs.metrics import TIME_BUCKETS
from repro.obs.provenance import FlightRecorder, PredictionProvenance
from repro.location.propagation import LocationIndex, LocationPredictor
from repro.mining.correlations import CorrelationChain
from repro.mining.grite import GriteConfig
from repro.prediction.analysis_time import AnalysisTimeModel
from repro.resilience.breaker import ComponentBreakers
from repro.signals.bank import BankLayoutError, VectorizedDetectorBank
from repro.signals.characterize import NormalBehavior
from repro.signals.extraction import SignalSet, extract_signals
from repro.signals.outliers import OnlineOutlierDetector, OnlinePeriodicDetector
from repro.simulation.templates import SignalClass

#: records per ``feed`` call when :meth:`HybridPredictor.run` feeds a
#: whole window
RUN_CHUNK = 4096

#: bump when the serialized layout changes incompatibly
STATE_VERSION = 1


def _add_type_counts(counts: Dict[int, int], tids: np.ndarray) -> None:
    """Add the classified ids among ``tids`` to per-type ``counts``."""
    seg = tids[tids >= 0]
    if seg.size:
        uniq, cnt = np.unique(seg, return_counts=True)
        for t, c in zip(uniq.tolist(), cnt.tolist()):
            counts[t] = counts.get(t, 0) + c


@dataclass
class TestStream:
    """The online phase's input: one classified window of records.

    ``batch`` holds the window's records and ``event_ids`` parallels
    it: int64, ``-1`` = unclassified.  An id at or above ``n_types`` is
    unknown to the model and reads as ``-1``.
    """

    #: not a pytest class, despite the name
    __test__ = False

    batch: RecordBatch
    event_ids: np.ndarray
    n_types: int
    t_start: float
    t_end: float
    sampling_period: float = 10.0

    def __post_init__(self) -> None:
        ids = np.asarray(self.event_ids, dtype=np.int64)
        if len(self.batch) != len(ids):
            raise ValueError("event_ids must parallel the batch")
        if self.t_end <= self.t_start:
            raise ValueError("empty stream window")
        self.event_ids = np.where(ids < self.n_types, ids, -1)
        self._signals: Optional[SignalSet] = None
        self._index: Optional[LocationIndex] = None
        self._msg_counts: Optional[np.ndarray] = None

    @property
    def signals(self) -> SignalSet:
        """Signal set of the stream (lazy, cached)."""
        if self._signals is None:
            self._signals = extract_signals(
                self.batch,
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
                self.batch,
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
            idx = (
                (self.batch.timestamps - self.t_start) / self.sampling_period
            ).astype(np.int64)
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
    """ELSA hybrid online predictor: resumable, one closed sample at a time.

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
    t_start, t_end, sampling_period:
        A stream window to start at construction: ``feed`` classified
        record chunks in timestamp order, then ``finish``.  Without one,
        :meth:`run` starts a stream over each :class:`TestStream`.
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
        *,
        t_start: Optional[float] = None,
        t_end: Optional[float] = None,
        sampling_period: float = 10.0,
    ) -> None:
        self.config = config or PredictorConfig()
        self._set_model(
            chains, behaviors, location_predictor, span_quantiles,
            analysis_model,
        )
        self.grite_config = grite_config or GriteConfig()
        self.breakers = breakers or ComponentBreakers()
        #: audit records of the last emitted predictions (ring buffer)
        self.flight_recorder = FlightRecorder()
        #: optional graceful-degradation ladder (see :meth:`attach_ladder`)
        self.ladder = None
        #: optional live self-evaluation / drift watchers (see
        #: :mod:`repro.prediction.scoreboard`); both are advisory and
        #: never change a prediction.
        self.scoreboard = None
        self.drift_detector = None
        if t_start is not None:
            self._init_stream(t_start, t_end, sampling_period)

    @classmethod
    def from_model(cls, model, pipeline_config, **window) -> "HybridPredictor":
        """The hybrid method over a :class:`~repro.core.model.TrainedModel`.

        ``pipeline_config`` (a :class:`~repro.core.config.PipelineConfig`)
        supplies the GRITE and predictor settings and the sampling
        period; ``window`` (``t_start``, ``t_end``) starts a stream at
        construction.
        """
        return cls(
            model.predictive_chains,
            model.behaviors,
            model.location_predictor,
            grite_config=pipeline_config.grite,
            config=pipeline_config.predictor,
            span_quantiles=model.span_quantiles,
            sampling_period=pipeline_config.sampling_period,
            **window,
        )

    def _set_model(
        self,
        chains: Sequence[CorrelationChain],
        behaviors: Mapping[int, NormalBehavior],
        location_predictor: LocationPredictor,
        span_quantiles: Optional[Mapping[Tuple, Tuple[int, int, int]]],
        analysis_model: Optional[AnalysisTimeModel] = None,
    ) -> None:
        """Take a trained model's artifacts.

        Arms the chains at or above ``config.min_chain_confidence``; the
        analysis-time model defaults to the hybrid calibration for
        them.
        """
        self.chains = [
            c
            for c in chains
            if c.confidence >= self.config.min_chain_confidence
        ]
        self.behaviors = dict(behaviors)
        self.location_predictor = location_predictor
        self.span_quantiles = dict(span_quantiles or {})
        self.analysis_model = analysis_model or AnalysisTimeModel.hybrid(
            len(self.chains)
        )

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

    def _detector_meta(self, tid: int) -> Dict[str, float]:
        """The provenance description of the detector guarding ``tid``:
        the kind and parameters of the one :meth:`_make_detector`
        builds, so the audit record states what the detector ran with."""
        det = self._make_detector(tid)
        if isinstance(det, OnlinePeriodicDetector):
            return {
                "kind": "periodic",
                "period": float(det.period),
                "amplitude": det.amplitude,
            }
        return {
            "kind": "median",
            "threshold": det.threshold,
            "window": float(det.window),
            "warmup": float(det.warmup),
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
            threshold=(
                nb.threshold if nb is not None
                else self.config.default_threshold
            ),
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

        Starts a stream over ``stream``'s window on this predictor (the
        model, breakers, ladder, flight recorder and any attached
        scoreboard or drift detector carry over; stream state starts
        empty), feeds the stream's in-window rows stable-sorted by
        sample index in ``RUN_CHUNK``-record slices, and finishes.
        """
        with obs.span(
            "predict", source=self.source_name, chains=len(self.chains)
        ) as sp:
            self._init_stream(
                stream.t_start, stream.t_end, stream.sampling_period
            )
            t0, t1 = self.t_start, self.t_end
            batch, ids = stream.batch, stream.event_ids
            ts = batch.timestamps
            # ``feed``'s own binning expression, so the order it checks
            # is the order it gets
            s = ((ts - t0) / self.sampling_period).astype(np.int64)
            window = np.flatnonzero((ts >= t0) & (ts < t1))
            order = window[np.argsort(s[window], kind="stable")]
            batch = batch.take(order)
            ids = ids[order]
            for a in range(0, len(batch), RUN_CHUNK):
                self.feed(batch.slice(a, a + RUN_CHUNK), ids[a:a + RUN_CHUNK])
            predictions = self.finish()
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
        prediction counts come from :meth:`finish`.
        """
        analysis = obs.histogram(
            "predictor.analysis_time_seconds", buckets=TIME_BUCKETS
        )
        for p in predictions:
            analysis.observe(p.analysis_time)
        obs.histogram(
            "predictor.run_wall_seconds", buckets=TIME_BUCKETS
        ).observe(wall_seconds)
        modeled = sum(p.analysis_time for p in predictions)
        if modeled > 0:
            obs.gauge("predictor.analysis_model_wall_ratio").set(
                wall_seconds / modeled
            )

    def _init_stream(
        self, t_start: float, t_end: float, sampling_period: float
    ) -> None:
        """Start a stream over ``[t_start, t_end)``: fresh detectors and
        empty stream state; attached watchers stay attached."""
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
        #: chain_key -> number of predictions it produced in this stream
        self.chain_usage: Counter = Counter()
        #: predictions dropped because analysis consumed their window
        self.n_too_late: int = 0
        #: anchors whose detection degraded in this stream (error
        #: boundary), each once, in first-degraded order
        self.degraded_anchors: List[int] = []

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

    def feed(self, records: RecordBatch, event_ids: np.ndarray) -> None:
        """Consume a chunk of classified records (sample order).

        ``event_ids`` parallels the batch ``records``: int64, ``-1`` =
        unclassified; an id the model does not know matches no anchor
        and is ignored like ``-1``.  The timestamp and id arrays are read
        directly, and location strings are looked up only for anchor
        hits.

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
        tids = event_ids
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
        sliding-window gauges update live (attach before feeding, or
        after :meth:`load_state`: the restored predictions are
        registered at once).
        """
        self.scoreboard = scoreboard
        self._register_restored()

    def _register_restored(self) -> None:
        """Register the predictions of the samples already closed (say,
        a restored checkpoint's) with the attached scoreboard, and move
        its clock to the end of the last of them, as if it had watched
        them close."""
        if self.scoreboard is None or not self._k:
            return
        for pred in self._predictions:
            self.scoreboard.record_prediction(pred)
        self.scoreboard.advance(self.t_start + self._k * self.sampling_period)

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
        self._set_model(
            model.predictive_chains,
            model.behaviors,
            model.location_predictor,
            model.span_quantiles,
        )
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
        resuming into a different run.  An attached scoreboard is handed
        the restored predictions.
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
        self._register_restored()
