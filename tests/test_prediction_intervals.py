"""Tests for adaptive per-chain prediction intervals (SLAML'11 windows)."""

import numpy as np
import pytest

from repro.columnar import RecordBatch
from repro.location.propagation import LocationPredictor
from repro.mining.correlations import CorrelationChain, GradualItem
from repro.mining.grite import GriteMiner
from repro.prediction.engine import (
    HybridPredictor,
    Prediction,
    PredictorConfig,
    TestStream,
)
from repro.prediction.evaluation import EvaluationConfig
from repro.signals.characterize import NormalBehavior
from repro.simulation.templates import SignalClass
from repro.simulation.topology import build_bluegene_machine
from repro.simulation.trace import LogRecord, Severity


class TestChainSpanQuantiles:
    def test_exact_spans(self):
        rng = np.random.default_rng(0)
        anchors = np.sort(rng.choice(50000, 40, replace=False)).astype(np.int64)
        trains = {0: anchors, 1: anchors + 10}
        miner = GriteMiner()
        chain = CorrelationChain(
            items=(GradualItem(0, 0), GradualItem(10, 1)), support=40,
            confidence=1.0,
        )
        q = miner.chain_span_quantiles(chain, trains)
        assert q == (10, 10, 10)

    def test_jittered_spans(self):
        rng = np.random.default_rng(1)
        anchors = np.sort(rng.choice(80000, 60, replace=False)).astype(np.int64)
        jitter = rng.integers(-5, 6, size=60)
        trains = {0: anchors, 1: anchors + 30 + jitter}
        miner = GriteMiner()
        chain = CorrelationChain(
            items=(GradualItem(0, 0), GradualItem(30, 1)), support=60,
            confidence=1.0,
        )
        q = miner.chain_span_quantiles(chain, trains)
        assert q is not None
        lo, med, hi = q
        assert lo <= med <= hi
        assert 24 <= lo and hi <= 36
        assert hi - lo >= 4  # jitter visible in the interval

    def test_no_occurrences(self):
        miner = GriteMiner()
        chain = CorrelationChain(
            items=(GradualItem(0, 5), GradualItem(4, 6)), support=0,
            confidence=0.0,
        )
        assert miner.chain_span_quantiles(chain, {5: np.array([1])}) is None


class TestPredictionInterval:
    def test_point_prediction_interval_collapses(self):
        p = Prediction(
            trigger_time=0.0, emitted_at=1.0, predicted_time=50.0,
            locations=("n",), chain_key=((0, 0),), anchor_event=0,
            fatal_event=1,
        )
        assert p.interval == (50.0, 50.0)

    def test_interval_prediction(self):
        p = Prediction(
            trigger_time=0.0, emitted_at=1.0, predicted_time=50.0,
            locations=("n",), chain_key=((0, 0),), anchor_event=0,
            fatal_event=1, predicted_lo=40.0, predicted_hi=70.0,
        )
        assert p.interval == (40.0, 70.0)

    def test_eval_slack_fixed_for_intervals(self):
        cfg = EvaluationConfig(slack_seconds=30.0, rel_slack=0.5)
        p_interval = Prediction(
            trigger_time=0.0, emitted_at=1.0, predicted_time=1000.0,
            locations=("n",), chain_key=((0, 0),), anchor_event=0,
            fatal_event=1, predicted_lo=900.0, predicted_hi=1100.0,
        )
        assert cfg.slack_for(p_interval) == 30.0
        assert cfg.acceptance_end(p_interval) == pytest.approx(1130.0)
        p_point = Prediction(
            trigger_time=0.0, emitted_at=1.0, predicted_time=1000.0,
            locations=("n",), chain_key=((0, 0),), anchor_event=0,
            fatal_event=1,
        )
        assert cfg.slack_for(p_point) == pytest.approx(500.0)


class TestEngineEmitsIntervals:
    def test_quantiles_flow_through(self):
        machine = build_bluegene_machine(n_racks=1)
        chain = CorrelationChain(
            items=(GradualItem(0, 0), GradualItem(6, 1)),
            support=10, confidence=1.0,
        )
        nb = NormalBehavior(
            signal_class=SignalClass.SILENT, median=0.0, mad=0.0,
            threshold=0.5, occupancy=0.001, mean_rate=0.001,
        )
        key = ((0, 0), (1, 6))
        engine = HybridPredictor(
            chains=[chain],
            behaviors={0: nb, 1: nb},
            location_predictor=LocationPredictor(machine, []),
            config=PredictorConfig(detector_window=50, detector_warmup=2),
            span_quantiles={key: (4, 6, 9)},
        )
        records = [
            LogRecord(1000.0, machine.nodes[0], Severity.WARNING, "a",
                      event_type=0),
        ]
        stream = TestStream(batch=RecordBatch.from_records(records),
                            event_ids=np.array([0]), n_types=2,
                            t_start=0.0, t_end=2000.0)
        preds = engine.run(stream)
        assert len(preds) == 1
        p = preds[0]
        assert p.predicted_lo is not None and p.predicted_hi is not None
        assert p.predicted_lo < p.predicted_time < p.predicted_hi
        # q10=4, q50=6, q90=9 samples after the anchor sample
        assert p.predicted_hi - p.predicted_lo == pytest.approx(50.0)

    def test_without_quantiles_point_prediction(self, fitted_elsa,
                                                small_scenario):
        sc = small_scenario
        m = fitted_elsa.model
        stream = fitted_elsa.make_stream(sc.records, sc.train_end, sc.t_end)
        engine = HybridPredictor(
            chains=m.predictive_chains,
            behaviors=m.behaviors,
            location_predictor=m.location_predictor,
        )
        preds = engine.run(stream)
        assert preds
        assert all(p.predicted_lo is None for p in preds)

    def test_pipeline_emits_intervals(self, fitted_elsa, small_scenario):
        sc = small_scenario
        preds = fitted_elsa.predict(sc.records, sc.train_end, sc.t_end)
        assert any(p.predicted_hi is not None for p in preds)
        for p in preds:
            lo, hi = p.interval
            assert lo <= hi
