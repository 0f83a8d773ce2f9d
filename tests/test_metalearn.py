"""Tests for the dynamic meta-learning ensemble."""

import pytest

from repro.prediction.engine import Prediction, TestStream
from repro.prediction.metalearn import MetaConfig, MetaPredictor, RuleStats
from repro.simulation.topology import build_bluegene_machine
from repro.simulation.trace import LogRecord, Severity
from tests.conftest import ground_truth


@pytest.fixture(scope="module")
def machine():
    return build_bluegene_machine(n_racks=1)


class _Stub:
    """A base predictor replaying canned predictions."""

    def __init__(self, predictions):
        self._predictions = list(predictions)

    def run(self, stream):
        return list(self._predictions)


def _stream(machine, events, t_end=100000.0):
    records = [
        LogRecord(t, machine.nodes[n], Severity.FAILURE, f"ev{e}",
                  event_type=e)
        for t, n, e in sorted(events)
    ]
    batch, ids = ground_truth(records)
    return TestStream(
        batch=batch,
        event_ids=ids,
        n_types=5,
        t_start=0.0,
        t_end=t_end,
    )


def _pred(emitted, predicted, node, anchor=0, fatal=1):
    return Prediction(
        trigger_time=emitted - 1.0,
        emitted_at=emitted,
        predicted_time=predicted,
        locations=(node,),
        chain_key=((anchor, 0), (fatal, 5)),
        anchor_event=anchor,
        fatal_event=fatal,
    )


class TestRuleStats:
    def test_prior(self):
        cfg = MetaConfig(prior_confirmed=1.0, prior_total=2.0)
        assert RuleStats().reliability(cfg) == pytest.approx(0.5)

    def test_updates(self):
        cfg = MetaConfig(prior_confirmed=0.0, prior_total=0.0)
        s = RuleStats(confirmed=3, total=4)
        assert s.reliability(cfg) == pytest.approx(0.75)


class TestMetaPredictor:
    def test_requires_predictors(self):
        with pytest.raises(ValueError):
            MetaPredictor({})

    def test_reliable_rule_survives(self, machine):
        node = machine.nodes[0]
        # predicted fatal events really occur -> confirmations accumulate
        events = [(1000.0 * k + 500.0, 0, 1) for k in range(1, 9)]
        preds = [
            _pred(1000.0 * k + 440.0, 1000.0 * k + 500.0, node)
            for k in range(1, 9)
        ]
        stream = _stream(machine, events)
        meta = MetaPredictor({"good": _Stub(preds)})
        kept = meta.run(stream)
        assert len(kept) >= 6
        assert all(p.source == "meta:good" for p in kept)
        rel = meta.reliability_table()[("good", 0)]
        assert rel > 0.8

    def test_unreliable_rule_gated(self, machine):
        node = machine.nodes[0]
        # predictions whose fatal event never arrives
        preds = [
            _pred(1000.0 * k + 440.0, 1000.0 * k + 500.0, node)
            for k in range(1, 12)
        ]
        stream = _stream(machine, [(50.0, 1, 3)])  # unrelated traffic
        meta = MetaPredictor({"bad": _Stub(preds)})
        kept = meta.run(stream)
        # probation lets a few through, then the gate closes
        assert meta.n_suppressed >= 5
        assert len(kept) < len(preds) / 2
        assert meta.reliability_table()[("bad", 0)] < 0.5

    def test_cross_method_dedupe(self, machine):
        node = machine.nodes[0]
        events = [(500.0, 0, 1)]
        p = _pred(440.0, 500.0, node)
        stream = _stream(machine, events)
        meta = MetaPredictor({"a": _Stub([p]), "b": _Stub([p])})
        kept = meta.run(stream)
        assert len(kept) == 1

    def test_different_locations_not_deduped(self, machine):
        events = [(500.0, 0, 1), (500.0, 5, 1)]
        pa = _pred(440.0, 500.0, machine.nodes[0])
        pb = _pred(441.0, 500.0, machine.nodes[5])
        stream = _stream(machine, events)
        meta = MetaPredictor({"a": _Stub([pa]), "b": _Stub([pb])})
        assert len(meta.run(stream)) == 2

    def test_confirmation_requires_location_overlap(self, machine):
        # fatal event occurs, but on a different node: not confirmed
        events = [(1000.0 * k + 500.0, 7, 1) for k in range(1, 10)]
        preds = [
            _pred(1000.0 * k + 440.0, 1000.0 * k + 500.0, machine.nodes[0])
            for k in range(1, 10)
        ]
        meta = MetaPredictor({"m": _Stub(preds)})
        meta.run(_stream(machine, events))
        assert meta.reliability_table()[("m", 0)] < 0.55

    def test_integration_beats_or_matches_best_base(self, fitted_elsa,
                                                    small_scenario):
        from repro import evaluate_predictions

        sc = small_scenario
        stream = fitted_elsa.make_stream(sc.records, sc.train_end, sc.t_end)
        bases = {
            "hybrid": fitted_elsa.hybrid_predictor(),
            "datamining": fitted_elsa.datamining_predictor(sc.records),
        }
        base_recalls = {}
        for name, b in bases.items():
            r = evaluate_predictions(b.run(stream), sc.test_faults)
            base_recalls[name] = r.recall
        meta = MetaPredictor(bases)
        res = evaluate_predictions(meta.run(stream), sc.test_faults)
        assert res.recall >= max(base_recalls.values()) - 0.05
        assert res.precision > 0.5
