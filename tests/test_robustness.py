"""Robustness: degenerate and hostile inputs must not crash the pipeline."""

import numpy as np
import pytest

from repro import ELSA, evaluate_predictions
from repro.columnar import RecordBatch
from repro.helo import HELOMiner, OnlineHELO
from repro.mining.grite import GriteMiner
from repro.prediction.engine import TestStream
from repro.signals.characterize import characterize_signal
from repro.signals.extraction import extract_signals
from repro.simulation.topology import build_bluegene_machine
from repro.simulation.trace import LogRecord, Severity
from tests.conftest import ground_truth


@pytest.fixture(scope="module")
def machine():
    return build_bluegene_machine(n_racks=1)


class TestDegenerateMining:
    def test_empty_trains(self):
        assert GriteMiner().mine({}) == []

    def test_single_train(self):
        assert GriteMiner().mine({0: np.array([1, 5, 9])}) == []

    def test_all_empty_trains(self):
        assert GriteMiner().mine({0: np.array([]), 1: np.array([])}) == []

    def test_identical_trains_zero_delay(self):
        t = np.arange(0, 5000, 100, dtype=np.int64)
        chains = GriteMiner().mine({0: t, 1: t})
        # perfectly simultaneous events: one chain, zero delay
        assert len(chains) <= 1
        if chains:
            assert chains[0].span == 0


class TestDegenerateHELO:
    def test_single_message(self):
        table, ids = HELOMiner().fit_transform(["hello world"])
        assert ids == [0]

    def test_identical_messages(self):
        table, ids = HELOMiner().fit_transform(["same msg"] * 100)
        assert len(table) == 1
        assert table[0].support == 100

    def test_pathological_long_message(self):
        msg = " ".join(f"tok{i}" for i in range(500))
        table, ids = HELOMiner().fit_transform([msg, msg])
        assert ids == [0, 0]

    def test_online_empty_message(self):
        online = OnlineHELO()
        assert online.observe("") is None
        assert online.observe("   ") is None

    def test_online_unicode(self):
        online = OnlineHELO()
        for _ in range(5):
            online.observe("tempéra ture ♥ sensor überheat")
        # eventually mints a template and keeps classifying
        assert online.observe("tempéra ture ♥ sensor überheat") is not None


class TestDegenerateSignals:
    def test_single_sample_signal(self):
        nb = characterize_signal(np.array([5.0]))
        assert nb.median == 5.0

    def test_extract_from_empty_records(self):
        s = extract_signals(RecordBatch.empty(), np.empty(0, dtype=np.int64),
                            n_types=3, t_end=100.0)
        assert s.total_counts().sum() == 0

    def test_huge_counts(self):
        x = np.full(100, 1e9)
        nb = characterize_signal(x)
        assert np.isfinite(nb.threshold)


class TestDegenerateStreams:
    def test_predictor_on_empty_stream(self, fitted_elsa, machine):
        stream = TestStream(batch=RecordBatch.empty(),
                            event_ids=np.empty(0, dtype=np.int64),
                            n_types=fitted_elsa.model.n_types,
                            t_start=0.0, t_end=100.0)
        assert fitted_elsa.hybrid_predictor().run(stream) == []

    def test_unknown_locations_tolerated(self, fitted_elsa):
        m = fitted_elsa.model
        anchor = m.predictive_chains[0].anchor
        name = None
        # craft a record classified as the anchor but at a bogus location
        records = [
            LogRecord(1000.0, "not-a-real-node", Severity.WARNING,
                      "whatever", event_type=anchor)
        ]
        batch, ids = ground_truth(records)
        stream = TestStream(batch=batch, event_ids=ids,
                            n_types=m.n_types, t_start=0.0, t_end=5000.0)
        preds = fitted_elsa.hybrid_predictor().run(stream)
        for p in preds:
            assert p.locations  # falls back, never empty

    def test_duplicate_timestamps(self, fitted_elsa):
        m = fitted_elsa.model
        anchor = m.predictive_chains[0].anchor
        records = [
            LogRecord(500.0, "n", Severity.WARNING, "x", event_type=anchor)
            for _ in range(50)
        ]
        batch, ids = ground_truth(records)
        stream = TestStream(batch=batch, event_ids=ids,
                            n_types=m.n_types, t_start=0.0, t_end=2000.0)
        preds = fitted_elsa.hybrid_predictor().run(stream)
        # suppression bounds the burst to at most one per chain
        assert len(preds) <= len(fitted_elsa.hybrid_predictor().chains)


class TestDegenerateEvaluation:
    def test_no_faults(self):
        res = evaluate_predictions([], [])
        assert res.n_faults == 0 and res.recall == 0.0

    def test_faults_without_predictions(self, small_scenario):
        res = evaluate_predictions([], small_scenario.test_faults)
        assert res.precision == 0.0
        assert res.recall == 0.0
        assert res.n_faults == len(small_scenario.test_faults)


class TestFitEdgeCases:
    def test_training_on_pure_background(self, machine):
        """No faults in training: fit succeeds, few/no predictive chains."""
        from repro.simulation.generator import GeneratorConfig, LogGenerator
        from repro.simulation.faults import FaultCatalog
        from repro.simulation.templates import bluegene_templates
        from repro.simulation.workload import WorkloadConfig
        from repro.simulation.faults import bluegene_fault_catalog

        templates = bluegene_templates()
        empty_faults = FaultCatalog(
            [next(iter(bluegene_fault_catalog()))]
        )
        cfg = GeneratorConfig(
            duration_days=0.3, seed=1, fault_rate_scale=1e-9,
            workload=WorkloadConfig(base_rate_per_sec=0.1),
        )
        records, gt = LogGenerator(machine, templates, empty_faults,
                                   cfg).generate()
        assert len(gt) == 0
        elsa = ELSA(machine)
        model = elsa.fit(records, t_train_end=0.3 * 86400.0)
        # nothing fault-like to learn: the predictive set is empty-ish
        assert len(model.predictive_chains) <= 2
        preds = elsa.predict(records, 0.0, 0.3 * 86400.0)
        assert isinstance(preds, list)
