"""Prediction scoring: precision, recall, and the paper's breakdowns.

"Precision is the fraction of failure predictions that turn out to be
correct.  Recall is the fraction of failures that are predicted."
(section VI).  A prediction is correct when a real failure lands inside
its acceptance window *and* the predicted location set covers the failure
(the location-aware scoring is what drops the hybrid's precision from
~94 % to ~91 % in the paper).

Besides Table III's headline numbers, this module computes the Fig. 9
per-category recall breakdown, the visible-prediction-window distribution
of section VI.A, and the chain-usage statistics ("3.12 % of sequences are
never used … 23.4 % are used in the majority of the cases").
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set

import numpy as np

from repro.prediction.engine import Prediction
from repro.simulation.trace import FaultEvent


@dataclass
class EvaluationConfig:
    """Matching rules.

    A prediction is *correct* (precision side) when a fault's fatal
    record lands in ``[emitted_at, predicted_time + slack]`` with
    ``slack = max(slack_seconds, rel_slack · (predicted_time −
    trigger_time))`` — the relative part mirrors the delay jitter the
    correlation tolerance already accepts — and the predicted location
    set overlaps the affected nodes (the alarm pointed at a genuinely
    failing component).

    A fault is *predicted* (recall side) only when the union of the
    locations of its correct predictions covers at least
    ``coverage_threshold`` of the affected nodes — a proactive action
    protecting one node of a ten-node failure has not avoided the
    failure.  This asymmetry is the paper's observation that "the recall
    of the prediction system will be more affected by the location
    predictor than its precision" (section V).
    """

    coverage_threshold: float = 0.5
    slack_seconds: float = 30.0
    rel_slack: float = 0.5

    def slack_for(self, prediction: Prediction) -> float:
        """Acceptance slack past the prediction's upper bound.

        Interval-valued predictions (adaptive per-chain windows) already
        carry their jitter in ``predicted_hi``, so only the fixed slack
        applies; point predictions fall back to the relative slack.
        """
        if prediction.predicted_hi is not None:
            return self.slack_seconds
        horizon = prediction.predicted_time - prediction.trigger_time
        return max(self.slack_seconds, self.rel_slack * horizon)

    def acceptance_end(self, prediction: Prediction) -> float:
        """Latest failure time the prediction claims."""
        _, hi = prediction.interval
        return hi + self.slack_for(prediction)


@dataclass
class CategoryStats:
    """Per-failure-category tallies for the Fig. 9 breakdown."""

    n_faults: int = 0
    n_predicted: int = 0

    @property
    def recall(self) -> float:
        """Fraction of this category's failures that were predicted."""
        return self.n_predicted / self.n_faults if self.n_faults else 0.0


@dataclass
class EvaluationResult:
    """Everything Table III / Fig. 9 / section VI.A report for one method."""

    n_predictions: int
    n_correct_predictions: int
    n_faults: int
    n_predicted_faults: int
    per_category: Dict[str, CategoryStats]
    visible_windows: np.ndarray
    chains_total: int
    chains_used: int
    chain_usage: Counter
    n_too_late: int

    @property
    def precision(self) -> float:
        """Correct predictions / all predictions."""
        if self.n_predictions == 0:
            return 0.0
        return self.n_correct_predictions / self.n_predictions

    @property
    def recall(self) -> float:
        """Predicted failures / all failures."""
        if self.n_faults == 0:
            return 0.0
        return self.n_predicted_faults / self.n_faults

    @property
    def chains_used_fraction(self) -> float:
        """Fraction of the correlation set that fired at least once."""
        if self.chains_total == 0:
            return 0.0
        return self.chains_used / self.chains_total

    def window_fractions(
        self, edges_seconds: Sequence[float] = (10.0, 60.0, 600.0)
    ) -> Dict[str, float]:
        """Visible-window mass per bucket (section VI.A's 85 %/50 %/6 %).

        Returns fractions of correct predictions whose visible window
        exceeds each edge, keyed ``">10s"``-style.
        """
        w = self.visible_windows
        if w.size == 0:
            return {f">{int(e)}s": 0.0 for e in edges_seconds}
        return {
            f">{int(e)}s": float((w > e).mean()) for e in edges_seconds
        }

    def summary(self) -> str:
        """One Table III row, human-readable."""
        return (
            f"precision={self.precision:.1%} recall={self.recall:.1%} "
            f"chains used={self.chains_used}/{self.chains_total} "
            f"({self.chains_used_fraction:.1%}) "
            f"predicted failures={self.n_predicted_faults}"
        )


def evaluate_predictions(
    predictions: Sequence[Prediction],
    faults: Sequence[FaultEvent],
    config: Optional[EvaluationConfig] = None,
    chains_total: Optional[int] = None,
    chain_usage: Optional[Counter] = None,
    n_too_late: int = 0,
    check_locations: bool = True,
) -> EvaluationResult:
    """Score predictions against ground-truth faults.

    ``check_locations=False`` reproduces the paper's "when running our
    method without checking the location, we obtain a precision of around
    94 %" ablation.
    """
    cfg = config or EvaluationConfig()
    faults = sorted(faults, key=lambda f: f.fail_time)
    fail_times = np.array([f.fail_time for f in faults])

    covered_locations: Dict[int, Set[str]] = defaultdict(set)
    window_of_fault: Dict[int, float] = {}
    n_correct = 0
    for pred in predictions:
        lo = int(np.searchsorted(fail_times, pred.emitted_at, side="left"))
        hi = int(
            np.searchsorted(fail_times, cfg.acceptance_end(pred), side="right")
        )
        matched = False
        for k in range(lo, hi):
            fault = faults[k]
            overlap = set(fault.locations).intersection(pred.locations)
            if check_locations and not overlap:
                continue
            matched = True
            covered_locations[fault.fault_id].update(
                overlap if check_locations else fault.locations
            )
            lead = fault.fail_time - pred.emitted_at
            prev = window_of_fault.get(fault.fault_id)
            if prev is None or lead > prev:
                window_of_fault[fault.fault_id] = lead
        if matched:
            n_correct += 1

    predicted_faults: Set[int] = set()
    per_category: Dict[str, CategoryStats] = defaultdict(CategoryStats)
    for f in faults:
        stats = per_category[f.category]
        stats.n_faults += 1
        cov = (
            len(covered_locations.get(f.fault_id, ())) / len(f.locations)
            if f.locations
            else 0.0
        )
        if cov >= cfg.coverage_threshold:
            predicted_faults.add(f.fault_id)
            stats.n_predicted += 1
    window_of_fault = {
        fid: w for fid, w in window_of_fault.items() if fid in predicted_faults
    }

    usage = chain_usage if chain_usage is not None else Counter()
    total_chains = (
        chains_total if chains_total is not None else len(usage)
    )
    return EvaluationResult(
        n_predictions=len(predictions),
        n_correct_predictions=n_correct,
        n_faults=len(faults),
        n_predicted_faults=len(predicted_faults),
        per_category=dict(per_category),
        visible_windows=np.array(sorted(window_of_fault.values())),
        chains_total=total_chains,
        chains_used=len(usage),
        chain_usage=usage if isinstance(usage, Counter) else Counter(usage),
        n_too_late=n_too_late,
    )
