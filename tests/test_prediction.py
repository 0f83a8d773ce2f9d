"""Tests for the online prediction engine, baselines, and evaluation."""

import numpy as np
import pytest

from repro.columnar import RecordBatch
from repro.location.propagation import LocationPredictor
from repro.mining.correlations import CorrelationChain, GradualItem
from repro.prediction.analysis_time import AnalysisTimeModel
from repro.prediction.baselines import (
    DataMiningConfig,
    DataMiningPredictor,
    SignalOnlyPredictor,
)
from repro.prediction.engine import (
    HybridPredictor,
    Prediction,
    PredictorConfig,
    TestStream,
)
from repro.prediction.evaluation import (
    EvaluationConfig,
    evaluate_predictions,
)
from repro.signals.characterize import NormalBehavior
from repro.simulation.templates import SignalClass
from repro.simulation.topology import build_bluegene_machine
from repro.simulation.trace import FaultEvent, LogRecord, Severity
from tests.conftest import ground_truth


@pytest.fixture(scope="module")
def machine():
    return build_bluegene_machine(n_racks=1)


def _silent_behavior():
    return NormalBehavior(
        signal_class=SignalClass.SILENT, median=0.0, mad=0.0, threshold=0.5,
        occupancy=0.001, mean_rate=0.001,
    )


def _stream(machine, events, t_end=4000.0, n_types=4):
    """events: (timestamp, node_index, event_type)."""
    records = [
        LogRecord(t, machine.nodes[n], Severity.WARNING, f"ev{e}",
                  event_type=e)
        for t, n, e in sorted(events)
    ]
    batch, ids = ground_truth(records)
    return TestStream(
        batch=batch,
        event_ids=ids,
        n_types=n_types,
        t_start=0.0,
        t_end=t_end,
    )


def _chain(delay=6):
    return CorrelationChain(
        items=(GradualItem(0, 0), GradualItem(delay, 1)),
        support=10, confidence=1.0,
    )


class TestAnalysisTimeModel:
    def test_paper_calibration(self):
        m = AnalysisTimeModel.hybrid(n_chains=60)
        # ~5 msg/s -> 50 msgs per 10 s window: negligible
        assert m.time_for(50) < 0.5
        # ~100 msg/s -> 1000 msgs: around 2.5 s
        assert 2.0 < m.time_for(1000) < 3.5

    def test_signal_only_slower(self):
        h = AnalysisTimeModel.hybrid(60)
        s = AnalysisTimeModel.signal_only(120)
        assert s.time_for(1000) > 30.0 > h.time_for(1000)

    def test_vectorized_matches_scalar(self):
        m = AnalysisTimeModel.hybrid(10)
        counts = np.array([0, 10, 500])
        assert np.allclose(
            m.times_for(counts), [m.time_for(int(c)) for c in counts]
        )

    def test_negative_rejected(self):
        m = AnalysisTimeModel()
        with pytest.raises(ValueError):
            m.time_for(-1)
        with pytest.raises(ValueError):
            m.times_for(np.array([-1]))


class TestHybridPredictor:
    def _predictor(self, machine, chains=None, **cfg_kw):
        chains = chains if chains is not None else [_chain()]
        return HybridPredictor(
            chains=chains,
            behaviors={0: _silent_behavior(), 1: _silent_behavior()},
            location_predictor=LocationPredictor(machine, []),
            config=PredictorConfig(detector_window=50, detector_warmup=2,
                                   **cfg_kw),
        )

    def test_predicts_on_anchor_outlier(self, machine):
        events = [(1000.0, 3, 0), (1060.0, 3, 1)]
        stream = _stream(machine, events)
        preds = self._predictor(machine).run(stream)
        assert len(preds) == 1
        p = preds[0]
        assert p.anchor_event == 0
        assert p.fatal_event == 1
        assert p.locations == (machine.nodes[3],)
        assert 1050.0 <= p.predicted_time <= 1090.0
        assert p.emitted_at > p.trigger_time

    def test_no_outliers_no_predictions(self, machine):
        stream = _stream(machine, [])
        assert self._predictor(machine).run(stream) == []

    def test_zero_span_chain_always_late(self, machine):
        chain = CorrelationChain(
            items=(GradualItem(0, 0), GradualItem(0, 1)),
            support=5, confidence=1.0,
        )
        events = [(1000.0, 3, 0), (1000.0, 3, 1)]
        pred = self._predictor(machine, chains=[chain])
        out = pred.run(_stream(machine, events))
        assert out == []
        assert pred.n_too_late >= 1

    def test_suppression_of_retrigger(self, machine):
        # two anchor outliers within the active window: one prediction
        events = [(1000.0, 3, 0), (1020.0, 3, 0)]
        preds = self._predictor(machine).run(_stream(machine, events))
        assert len(preds) == 1

    def test_distinct_locations_not_suppressed(self, machine):
        events = [(1000.0, 3, 0), (1020.0, 9, 0)]
        preds = self._predictor(machine).run(_stream(machine, events))
        assert len(preds) == 2

    def test_low_confidence_chain_not_armed(self, machine):
        weak = CorrelationChain(
            items=(GradualItem(0, 0), GradualItem(6, 1)),
            support=5, confidence=0.2,
        )
        pred = self._predictor(machine, chains=[weak])
        assert pred.chains == []

    def test_chain_usage_tracked(self, machine):
        events = [(1000.0, 3, 0), (2000.0, 5, 0)]
        pred = self._predictor(machine)
        pred.run(_stream(machine, events))
        assert sum(pred.chain_usage.values()) == 2

    def test_min_visible_window_drops_tight_predictions(self, machine):
        events = [(1000.0, 3, 0)]
        pred = self._predictor(machine, min_visible_window=1e6)
        assert pred.run(_stream(machine, events)) == []
        assert pred.n_too_late == 1


class TestTestStream:
    def test_caches(self, machine):
        stream = _stream(machine, [(100.0, 0, 0)])
        assert stream.signals is stream.signals
        assert stream.location_index is stream.location_index

    def test_message_counts(self, machine):
        stream = _stream(machine, [(5.0, 0, 0), (7.0, 1, 1), (25.0, 0, 0)])
        counts = stream.message_counts
        assert counts[0] == 2
        assert counts[2] == 1

    def test_validation(self, machine):
        with pytest.raises(ValueError):
            TestStream(batch=RecordBatch.empty(), event_ids=np.array([1]),
                       n_types=1, t_start=0.0, t_end=10.0)
        with pytest.raises(ValueError):
            TestStream(batch=RecordBatch.empty(),
                       event_ids=np.empty(0, dtype=np.int64), n_types=1,
                       t_start=10.0, t_end=10.0)

    def test_ids_unknown_to_the_model_read_as_unclassified(self, machine):
        stream = _stream(machine, [(5.0, 0, 0), (7.0, 1, 3)], n_types=2)
        assert stream.event_ids.tolist() == [0, -1]


class TestDataMiningBaseline:
    def _train_records(self, machine):
        """Precursor (type 0) then fatal (type 1) 30 s later, x6; plus an
        unreliable precursor (type 2) that mostly fires alone."""
        recs = []
        for k in range(6):
            t0 = 2000.0 * k + 100.0
            recs.append(LogRecord(t0, machine.nodes[1], Severity.WARNING,
                                  "pre", event_type=0))
            recs.append(LogRecord(t0 + 30.0, machine.nodes[1],
                                  Severity.FAILURE, "boom", event_type=1))
        for k in range(20):
            recs.append(LogRecord(13000.0 + 50.0 * k, machine.nodes[2],
                                  Severity.WARNING, "meh", event_type=2))
        recs.sort(key=lambda r: r.timestamp)
        return recs

    def test_rule_mining(self, machine):
        recs = self._train_records(machine)
        dm = DataMiningPredictor().fit(
            *ground_truth(recs),
            severities={0: Severity.WARNING, 1: Severity.FAILURE,
                        2: Severity.WARNING},
        )
        assert len(dm.rules) == 1
        rule = dm.rules[0]
        assert (rule.precursor, rule.fatal) == (0, 1)
        assert rule.confidence == pytest.approx(1.0)
        assert 25.0 <= rule.median_lead <= 35.0

    def test_simultaneous_rules_dropped(self, machine):
        recs = []
        for k in range(6):
            t0 = 1000.0 * k
            recs.append(LogRecord(t0, machine.nodes[0], Severity.WARNING,
                                  "a", event_type=0))
            recs.append(LogRecord(t0 + 1.0, machine.nodes[0],
                                  Severity.FAILURE, "b", event_type=1))
        dm = DataMiningPredictor().fit(
            *ground_truth(recs),
            severities={0: Severity.WARNING, 1: Severity.FAILURE},
        )
        assert dm.rules == []  # median lead below min_median_lead

    def test_online_prediction(self, machine):
        recs = self._train_records(machine)
        dm = DataMiningPredictor().fit(
            *ground_truth(recs),
            severities={0: Severity.WARNING, 1: Severity.FAILURE,
                        2: Severity.WARNING},
        )
        stream = _stream(machine, [(500.0, 4, 0)])
        preds = dm.run(stream)
        assert len(preds) == 1
        assert preds[0].locations == (machine.nodes[4],)
        assert preds[0].predicted_time == pytest.approx(
            500.0 + dm.config.window_seconds
        )

    def test_suppression(self, machine):
        recs = self._train_records(machine)
        dm = DataMiningPredictor().fit(
            *ground_truth(recs),
            severities={0: Severity.WARNING, 1: Severity.FAILURE,
                        2: Severity.WARNING},
        )
        stream = _stream(machine, [(500.0, 4, 0), (505.0, 4, 0)])
        assert len(dm.run(stream)) == 1


class TestSignalOnlyBaseline:
    def test_from_seed_pairs(self, machine):
        from repro.signals.crosscorr import PairCorrelation
        pairs = [
            (0, 1, PairCorrelation(delay=6, strength=0.9, n_matches=9,
                                   n_a=10, n_b=10)),
            (2, 3, PairCorrelation(delay=2, strength=0.1, n_matches=1,
                                   n_a=10, n_b=10)),
        ]
        sp = SignalOnlyPredictor.from_seed_pairs(
            pairs,
            behaviors={i: _silent_behavior() for i in range(4)},
            location_predictor=LocationPredictor(machine, []),
        )
        # weak pair filtered by the signal method's own 0.3 floor
        assert len(sp.chains) == 1
        assert sp.analysis_model.per_message > 0.01

    def test_severity_filter(self, machine):
        from repro.signals.crosscorr import PairCorrelation
        pc = PairCorrelation(delay=6, strength=0.9, n_matches=9, n_a=10,
                             n_b=10)
        sp = SignalOnlyPredictor.from_seed_pairs(
            [(0, 1, pc), (2, 3, pc)],
            behaviors={i: _silent_behavior() for i in range(4)},
            location_predictor=LocationPredictor(machine, []),
            predictive_types={0},
        )
        assert len(sp.chains) == 1
        assert sp.chains[0].anchor == 0


def _fault(fid, fail_time, locations, category="memory"):
    return FaultEvent(fid, "ft", category, onset_time=fail_time - 60.0,
                      fail_time=fail_time, locations=tuple(locations))


def _pred(emitted, predicted, locations):
    return Prediction(
        trigger_time=emitted - 0.5, emitted_at=emitted,
        predicted_time=predicted, locations=tuple(locations),
        chain_key=((0, 0), (1, 6)), anchor_event=0, fatal_event=1,
    )


class TestEvaluation:
    def test_perfect_match(self):
        faults = [_fault(0, 100.0, ["n0"])]
        preds = [_pred(50.0, 100.0, ["n0"])]
        res = evaluate_predictions(preds, faults)
        assert res.precision == 1.0
        assert res.recall == 1.0
        assert res.n_predicted_faults == 1

    def test_wrong_location_is_false_positive(self):
        faults = [_fault(0, 100.0, ["n0"])]
        preds = [_pred(50.0, 100.0, ["n9"])]
        res = evaluate_predictions(preds, faults)
        assert res.precision == 0.0
        assert res.recall == 0.0

    def test_late_prediction_no_match(self):
        faults = [_fault(0, 100.0, ["n0"])]
        preds = [_pred(150.0, 200.0, ["n0"])]
        res = evaluate_predictions(preds, faults)
        assert res.recall == 0.0

    def test_overlap_counts_for_precision_not_recall(self):
        # One node of a four-node failure: the alarm is correct, the
        # failure is NOT adequately covered (the paper's asymmetry).
        faults = [_fault(0, 100.0, ["n0", "n1", "n2", "n3"])]
        preds = [_pred(50.0, 100.0, ["n0"])]
        res = evaluate_predictions(preds, faults)
        assert res.precision == 1.0
        assert res.recall == 0.0

    def test_union_coverage_accumulates(self):
        faults = [_fault(0, 100.0, ["n0", "n1"])]
        preds = [
            _pred(50.0, 100.0, ["n0"]),
            _pred(55.0, 100.0, ["n1"]),
        ]
        res = evaluate_predictions(preds, faults)
        assert res.recall == 1.0

    def test_no_location_check(self):
        faults = [_fault(0, 100.0, ["n0"])]
        preds = [_pred(50.0, 100.0, ["n9"])]
        res = evaluate_predictions(preds, faults, check_locations=False)
        assert res.precision == 1.0
        assert res.recall == 1.0

    def test_per_category_breakdown(self):
        faults = [
            _fault(0, 100.0, ["n0"], category="memory"),
            _fault(1, 500.0, ["n1"], category="cache"),
        ]
        preds = [_pred(50.0, 100.0, ["n0"])]
        res = evaluate_predictions(preds, faults)
        assert res.per_category["memory"].recall == 1.0
        assert res.per_category["cache"].recall == 0.0

    def test_window_fractions(self):
        faults = [
            _fault(0, 100.0, ["n0"]),
            _fault(1, 1000.0, ["n1"]),
        ]
        preds = [
            _pred(95.0, 100.0, ["n0"]),      # 5 s visible
            _pred(880.0, 1000.0, ["n1"]),    # 120 s visible
        ]
        res = evaluate_predictions(preds, faults)
        frac = res.window_fractions()
        assert frac[">10s"] == pytest.approx(0.5)
        assert frac[">60s"] == pytest.approx(0.5)
        assert frac[">600s"] == 0.0

    def test_empty_inputs(self):
        res = evaluate_predictions([], [])
        assert res.precision == 0.0
        assert res.recall == 0.0
        assert res.window_fractions()[">10s"] == 0.0

    def test_slack_scales_with_horizon(self):
        cfg = EvaluationConfig(slack_seconds=30.0, rel_slack=0.5)
        p = _pred(50.0, 1050.0, ["n0"])
        assert cfg.slack_for(p) == pytest.approx(0.5 * (1050.0 - 49.5))

    def test_summary_renders(self):
        faults = [_fault(0, 100.0, ["n0"])]
        preds = [_pred(50.0, 100.0, ["n0"])]
        res = evaluate_predictions(preds, faults)
        assert "precision=100.0%" in res.summary()
