"""Prediction provenance: ring buffer, JSONL round trip, engine parity."""

import io
import json

import pytest

from repro import obs
from repro.obs.provenance import (
    FlightRecorder,
    PredictionProvenance,
    load_jsonl,
    render_record,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


def make_prov(i=0, **over):
    base = dict(
        source="hybrid",
        chain=((3, 0), (5, 7)),
        anchor_event=3,
        fatal_event=5,
        anchor_sample=100 + i,
        anchor_value=4.0,
        detector={"kind": "median", "threshold": 0.5},
        window={"kind": "quantile", "lo": 5.0, "med": 6.0, "hi": 8.0},
        anchor_location="R00-N0",
        locations=("R00-N0", "R00-N1"),
        trigger_time=1000.0 + 10 * i,
        emitted_at=1000.5 + 10 * i,
        predicted_time=1060.0 + 10 * i,
    )
    base.update(over)
    return PredictionProvenance(**base)


class TestProvenanceRecord:
    def test_derived_times(self):
        p = make_prov()
        assert p.analysis_time == pytest.approx(0.5)
        assert p.lead_time == pytest.approx(59.5)

    def test_dict_round_trip(self):
        p = make_prov()
        d = json.loads(json.dumps(p.to_dict()))
        assert PredictionProvenance.from_dict(d) == p
        assert d["analysis_time"] == pytest.approx(p.analysis_time)
        assert d["lead_time"] == pytest.approx(p.lead_time)


class TestFlightRecorder:
    def test_ring_bounds(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.append(make_prov(i))
        assert len(rec) == 4
        assert rec.appended == 10
        assert rec.dropped == 6
        # oldest first, only the newest four survive
        assert [r.anchor_sample for r in rec.records()] == [106, 107, 108, 109]

    def test_clear_keeps_totals(self):
        rec = FlightRecorder(capacity=8)
        rec.append(make_prov())
        rec.clear()
        assert len(rec) == 0
        assert rec.appended == 1

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_jsonl_round_trip(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        for i in range(3):
            rec.append(make_prov(i))
        buf = io.StringIO()
        assert rec.dump_jsonl(buf) == 3
        path = tmp_path / "prov.jsonl"
        path.write_text(buf.getvalue())
        loaded = load_jsonl(path)
        assert [PredictionProvenance.from_dict(d) for d in loaded] == (
            rec.records()
        )

    def test_load_rejects_garbage_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(make_prov().to_dict()) + "\nnot json at all\n"
        )
        with pytest.raises(ValueError, match=r":2: not a provenance line"):
            load_jsonl(path)


class TestRender:
    def test_render_mentions_the_chain_and_times(self):
        text = render_record(make_prov().to_dict(), index=0)
        assert "#0" in text
        assert "lead time" in text
        assert "R00-N0" in text

    def test_event_name_resolution(self):
        names = {3: "fan speed warning", 5: "node card failure"}
        text = render_record(
            make_prov().to_dict(), event_name=lambda tid: names[tid]
        )
        assert "fan speed warning" in text
        assert "node card failure" in text


class TestEngineParity:
    """Batch and streaming runs leave identical audit trails."""

    @pytest.fixture()
    def classified(self, fitted_elsa, small_scenario):
        helo_state = fitted_elsa.online_state_dict()
        stream = fitted_elsa.make_stream(
            small_scenario.records,
            small_scenario.train_end,
            small_scenario.t_end,
        )
        yield stream
        fitted_elsa.restore_online_state(helo_state)

    def test_batch_and_streaming_provenance_identical(
        self, fitted_elsa, small_scenario, classified
    ):
        batch = fitted_elsa.hybrid_predictor()
        batch_preds = batch.run(classified)
        streaming = fitted_elsa.streaming_predictor(
            small_scenario.train_end, small_scenario.t_end
        )
        streaming.feed(classified.batch, classified.event_ids)
        stream_preds = streaming.finish()
        assert [p.to_dict() for p in stream_preds] == (
            [p.to_dict() for p in batch_preds]
        )
        b = [r.to_dict() for r in batch.flight_recorder.records()]
        s = [r.to_dict() for r in streaming.flight_recorder.records()]
        assert b == s
        assert len(b) == len(batch_preds)

    def test_provenance_chain_matches_its_prediction(
        self, fitted_elsa, small_scenario, classified
    ):
        predictor = fitted_elsa.hybrid_predictor()
        predictions = predictor.run(classified)
        for pred, prov in zip(
            predictions, predictor.flight_recorder.records()
        ):
            assert prov.anchor_event == pred.anchor_event
            assert prov.fatal_event == pred.fatal_event
            assert prov.emitted_at == pred.emitted_at
            assert prov.predicted_time == pred.predicted_time
            assert tuple(prov.locations) == tuple(pred.locations)
            # the recorded chain starts at the anchor and ends at the
            # fatal event, delays non-decreasing from zero
            events = [t for t, _ in prov.chain]
            delays = [d for _, d in prov.chain]
            assert events[0] == prov.anchor_event
            assert prov.fatal_event in events
            assert delays[0] == 0
            assert delays == sorted(delays)
