"""Tests for the TrainedModel container and engine detector selection."""

import numpy as np
import pytest

from repro.core.model import TrainedModel
from repro.helo.template import MinedTemplate, TemplateTable
from repro.location.propagation import LocationPredictor
from repro.mining.correlations import CorrelationChain, GradualItem
from repro.prediction.engine import HybridPredictor, PredictorConfig, TestStream
from repro.signals.characterize import NormalBehavior
from repro.simulation.templates import SignalClass
from repro.simulation.topology import build_bluegene_machine
from repro.simulation.trace import LogRecord, Severity
from tests.conftest import ground_truth


def _model(**overrides):
    machine = build_bluegene_machine(n_racks=1)
    chain = CorrelationChain(
        items=(GradualItem(0, 0), GradualItem(3, 1)), support=5,
        confidence=1.0,
    )
    table = TemplateTable([
        MinedTemplate(tokens=("link", "error", None)),
        MinedTemplate(tokens=("node", "card", "failed")),
    ])
    defaults = dict(
        table=table,
        n_types=2,
        behaviors={},
        trains={},
        chains=[chain],
        predictive_chains=[chain],
        info_chains=[],
        severities={0: Severity.WARNING},
        profiles=[],
        location_predictor=LocationPredictor(machine, []),
        seed_pairs=[],
        t_train_start=0.0,
        t_train_end=100.0,
    )
    defaults.update(overrides)
    return TrainedModel(**defaults)


class TestTrainedModel:
    def test_event_name_without_table(self):
        """Every model carries its mined table (there is no table-less
        model any more): an event is named by its template skeleton."""
        m = _model()
        assert m.event_name(0) == "link error *"
        assert m.event_name(1) == "node card failed"

    def test_info_fraction_empty(self):
        m = _model(chains=[], predictive_chains=[], info_chains=[])
        assert m.info_chain_fraction == 0.0

    def test_info_fraction(self):
        chain = CorrelationChain(
            items=(GradualItem(0, 0), GradualItem(3, 1)), support=5,
            confidence=1.0,
        )
        m = _model(chains=[chain, chain], info_chains=[chain])
        assert m.info_chain_fraction == pytest.approx(0.5)

    def test_describe_chain_without_table(self):
        """A chain is listed by its members' template skeletons (there
        is no ``event<i>`` fallback for a table-less model any more)."""
        m = _model()
        text = m.describe_chain(m.predictive_chains[0])
        assert text == "link error *\nafter 3 time unit(s): node card failed"

    def test_span_quantiles_default_empty(self):
        assert _model().span_quantiles == {}


class TestEngineDetectorSelection:
    def test_periodic_anchor_uses_absence_detector(self):
        """A periodic-class anchor whose beats stop must trigger a
        prediction even though no anchor *message* ever arrives."""
        machine = build_bluegene_machine(n_racks=1)
        chain = CorrelationChain(
            items=(GradualItem(0, 0), GradualItem(12, 1)),
            support=8, confidence=1.0,
        )
        behaviors = {
            0: NormalBehavior(
                signal_class=SignalClass.PERIODIC, median=0.0, mad=0.0,
                threshold=0.5, occupancy=0.2, mean_rate=0.2, period=5,
            ),
            1: NormalBehavior(
                signal_class=SignalClass.SILENT, median=0.0, mad=0.0,
                threshold=0.5, occupancy=0.001, mean_rate=0.001,
            ),
        }
        engine = HybridPredictor(
            chains=[chain],
            behaviors=behaviors,
            location_predictor=LocationPredictor(machine, []),
            config=PredictorConfig(detector_window=50, detector_warmup=2),
        )
        node = machine.nodes[0]
        # heartbeats every 50 s, then silence from t=2000 on
        records = [
            LogRecord(t, node, Severity.INFO, "beat", event_type=0)
            for t in np.arange(0.0, 2000.0, 50.0)
        ]
        batch, ids = ground_truth(records)
        stream = TestStream(
            batch=batch,
            event_ids=ids,
            n_types=2,
            t_start=0.0,
            t_end=4000.0,
        )
        preds = engine.run(stream)
        assert len(preds) == 1
        p = preds[0]
        # absence detected shortly after 1.8 periods of silence
        assert 2000.0 < p.trigger_time < 2600.0
        # no anchor record exists at the trigger: location falls back
        assert p.locations

    def test_noise_anchor_uses_median_detector(self):
        machine = build_bluegene_machine(n_racks=1)
        chain = CorrelationChain(
            items=(GradualItem(0, 0), GradualItem(6, 1)),
            support=8, confidence=1.0,
        )
        behaviors = {
            0: NormalBehavior(
                signal_class=SignalClass.NOISE, median=1.0, mad=0.5,
                threshold=4.0, occupancy=0.5, mean_rate=1.0,
            ),
        }
        engine = HybridPredictor(
            chains=[chain],
            behaviors=behaviors,
            location_predictor=LocationPredictor(machine, []),
            config=PredictorConfig(detector_window=50, detector_warmup=2),
        )
        node = machine.nodes[0]
        rng = np.random.default_rng(0)
        records = []
        for s in range(400):
            for _ in range(int(rng.poisson(1.0))):
                records.append(LogRecord(s * 10.0 + 1.0, node,
                                         Severity.WARNING, "n",
                                         event_type=0))
        # burst at sample 300
        for k in range(20):
            records.append(LogRecord(3000.0 + 0.1 * k, node,
                                     Severity.WARNING, "n", event_type=0))
        records.sort(key=lambda r: r.timestamp)
        batch, ids = ground_truth(records)
        stream = TestStream(
            batch=batch,
            event_ids=ids,
            n_types=2,
            t_start=0.0,
            t_end=4000.0,
        )
        preds = engine.run(stream)
        assert len(preds) >= 1
        assert any(2990.0 < p.trigger_time < 3100.0 for p in preds)
