"""The two comparison methods of Table III.

**Signal-only (prior ELSA)** — the paper's earlier purely signal-analysis
predictor: it uses the raw 2-pair cross-correlations (no GRITE pruning
into multi-event chains), which means a larger, noisier correlation set
and a much heavier online analysis ("the on-line outlier detection puts
extra stress on the analysis making the analysis window exceed 30 seconds
when the system experiences bursts").

**Data-mining-only** — fixed-window association rules in the style of
Zheng et al. [29]: for every FAILURE-severity event, the event types seen
in a fixed look-back window become rule candidates; rules are kept by
support and confidence computed over raw event *occurrences* (not
outliers).  The method "assumes faults manifest themselves in the same
way": it cannot see absence-of-message anomalies, cannot adapt its window
per event type, and attaches no propagation information — which is why
its recall collapses (15.7 % in the paper) while its precision stays high
(the surviving rules are the blatant ones).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.columnar import RecordBatch, rows_by_type
from repro.location.propagation import LocationPredictor
from repro.mining.correlations import CorrelationChain, GradualItem
from repro.mining.grite import GriteConfig
from repro.prediction.analysis_time import AnalysisTimeModel
from repro.prediction.engine import (
    HybridPredictor,
    Prediction,
    PredictorConfig,
    TestStream,
)
from repro.signals.characterize import NormalBehavior
from repro.simulation.trace import Severity


class SignalOnlyPredictor(HybridPredictor):
    """Prior-ELSA baseline: pairs only, heavier online analysis.

    Construct via :meth:`from_seed_pairs` with the raw pair correlations
    collected during GRITE seeding; every pair becomes a 2-event chain,
    so the correlation set is larger ("117" vs "62" in Table III) and the
    per-message analysis cost is an order of magnitude higher.
    """

    source_name = "signal"

    @classmethod
    def from_seed_pairs(
        cls,
        seed_pairs: Sequence[Tuple[int, int, object]],
        behaviors: Mapping[int, NormalBehavior],
        location_predictor: LocationPredictor,
        grite_config: Optional[GriteConfig] = None,
        config: Optional[PredictorConfig] = None,
        predictive_types: Optional[set] = None,
    ) -> "SignalOnlyPredictor":
        """Build from the (src, dst, PairCorrelation) seeding output.

        ``predictive_types`` optionally filters pairs whose two events are
        both non-error (the severity filter applies to this method too —
        the paper applies it to all three).
        """
        chains: List[CorrelationChain] = []
        for a, b, pc in seed_pairs:
            if a == b:
                continue
            if predictive_types is not None and (
                a not in predictive_types and b not in predictive_types
            ):
                continue
            try:
                chain = CorrelationChain(
                    items=(GradualItem(0, a), GradualItem(pc.delay, b)),
                    support=pc.n_matches,
                    confidence=pc.strength,
                )
            except ValueError:
                continue
            chains.append(chain)
        if config is None:
            # The pure signal-analysis method has no data-mining pruning
            # stage, so its online correlation set keeps lower-confidence
            # pairs — larger set, noisier triggers, slower analysis.
            config = PredictorConfig(min_chain_confidence=0.3)
        return cls(
            chains=chains,
            behaviors=behaviors,
            location_predictor=location_predictor,
            analysis_model=AnalysisTimeModel.signal_only(len(chains)),
            grite_config=grite_config,
            config=config,
        )


@dataclass(frozen=True)
class AssociationRule:
    """A fixed-window rule: precursor event → fatal event.

    ``confidence`` is P(fatal within the window | precursor occurred);
    ``median_lead`` is the observed median precursor→fatal gap, kept for
    reporting only — the online prediction window stays fixed, which is
    precisely the limitation the paper criticizes.
    """

    precursor: int
    fatal: int
    support: int
    confidence: float
    median_lead: float


@dataclass
class DataMiningConfig:
    """Fixed-window rule mining knobs (Zheng-style baseline)."""

    window_seconds: float = 45.0
    min_support: int = 3
    min_confidence: float = 0.5
    min_median_lead: float = 10.0


class DataMiningPredictor:
    """Fixed-window association-rule baseline.

    Train with :meth:`fit` on the classified training batch; run with
    :meth:`run` on a :class:`TestStream`.  The interface mirrors
    :class:`HybridPredictor` so the Table III harness treats all three
    methods uniformly.
    """

    source_name = "datamining"

    def __init__(self, config: Optional[DataMiningConfig] = None) -> None:
        self.config = config or DataMiningConfig()
        self.rules: List[AssociationRule] = []
        self.analysis_model = AnalysisTimeModel.data_mining(0)
        self.chain_usage: Counter = Counter()
        self.n_too_late = 0

    # -- training -----------------------------------------------------------

    def fit(
        self,
        batch: RecordBatch,
        event_ids: np.ndarray,
        severities: Mapping[int, Severity],
    ) -> "DataMiningPredictor":
        """Mine precursor → fatal rules from the training batch.

        ``event_ids`` parallels ``batch`` (int64, ``-1`` =
        unclassified).  ``severities`` maps event-type ids to their
        (majority) severity; fatal events are those with FAILURE
        severity — the same signal the paper uses to identify failures
        on Blue Gene/L.
        """
        cfg = self.config
        # each classified type's timestamps, in record order
        trains = {
            tid: batch.timestamps[rows]
            for tid, rows in rows_by_type(event_ids).items()
        }
        fatal_types = [
            tid for tid in trains
            if severities.get(tid, Severity.INFO) == Severity.FAILURE
        ]

        # Candidate pairs: precursor types seen in the look-back window of
        # at least one fatal occurrence.
        candidates: set = set()
        for f in fatal_types:
            for t in trains[f]:
                for p, tp in trains.items():
                    if p == f:
                        continue
                    lo = np.searchsorted(tp, t - cfg.window_seconds)
                    hi = np.searchsorted(tp, t, side="left")
                    if hi > lo:
                        candidates.add((p, f))

        rules: List[AssociationRule] = []
        for p, f in sorted(candidates):
            tp, tf = trains[p], trains[f]
            lo = np.searchsorted(tf, tp, side="right")
            hi = np.searchsorted(tf, tp + cfg.window_seconds, side="right")
            matched = hi > lo
            support = int(matched.sum())
            if support < cfg.min_support:
                continue
            confidence = support / tp.size
            if confidence < cfg.min_confidence:
                continue
            leads = tf[lo[matched]] - tp[matched]
            median_lead = float(np.median(leads)) if leads.size else 0.0
            if median_lead < cfg.min_median_lead:
                continue
            rules.append(
                AssociationRule(
                    precursor=int(p),
                    fatal=int(f),
                    support=support,
                    confidence=float(confidence),
                    median_lead=median_lead,
                )
            )
        self.rules = rules
        self.analysis_model = AnalysisTimeModel.data_mining(len(rules))
        return self

    # -- online --------------------------------------------------------------

    def run(self, stream: TestStream) -> List[Prediction]:
        """Apply the rules to a test stream.

        Each precursor occurrence predicts its fatal event within the
        fixed window, at the precursor's own location (the method carries
        no propagation model).  Re-triggering of the same (rule,
        location) is suppressed while a prediction is active.
        """
        with obs.span(
            "predict", source=self.source_name, rules=len(self.rules)
        ) as sp:
            predictions = self._run_traced(stream)
            sp["predictions"] = len(predictions)
            sp["too_late"] = self.n_too_late
        obs.counter("predictor.runs").inc()
        obs.counter("predictor.predictions_issued").inc(len(predictions))
        obs.counter("predictor.predictions_too_late").inc(self.n_too_late)
        return predictions

    def _run_traced(self, stream: TestStream) -> List[Prediction]:
        cfg = self.config
        by_precursor: Dict[int, List[AssociationRule]] = defaultdict(list)
        for r in self.rules:
            by_precursor[r.precursor].append(r)

        analysis = self.analysis_model.times_for(stream.message_counts)
        n_samples = stream.signals.n_samples
        self.chain_usage = Counter()
        self.n_too_late = 0
        active: Dict[Tuple, float] = {}
        predictions: List[Prediction] = []
        batch, ids = stream.batch, stream.event_ids
        rows = np.flatnonzero(np.isin(ids, list(by_precursor)))
        for i in rows.tolist():
            tid = int(ids[i])
            t = float(batch.timestamps[i])
            s = int((t - stream.t_start) / stream.sampling_period)
            if not 0 <= s < n_samples:
                continue
            location = batch.location(i)
            t_emit = t + float(analysis[s])
            t_pred = t + cfg.window_seconds
            for rule in by_precursor[tid]:
                key = (rule.precursor, rule.fatal, location)
                until = active.get(key)
                if until is not None and t <= until:
                    continue
                if t_pred <= t_emit:
                    self.n_too_late += 1
                    continue
                active[key] = t_pred
                chain_key = ((rule.precursor, 0), (rule.fatal, -1))
                predictions.append(
                    Prediction(
                        trigger_time=t,
                        emitted_at=t_emit,
                        predicted_time=t_pred,
                        locations=(location,),
                        chain_key=chain_key,
                        anchor_event=rule.precursor,
                        fatal_event=rule.fatal,
                        source=self.source_name,
                    )
                )
                self.chain_usage[chain_key] += 1
        predictions.sort(key=lambda p: p.emitted_at)
        return predictions
