"""One record representation below the entry points.

Below ``ELSA.fit``, ``make_stream``, ``predict``, ``learn_candidate``,
``datamining_predictor``, ``AdaptiveELSA``, the resumable runs and the
fleet, records are one :class:`~repro.columnar.RecordBatch` and event
ids one int64 array (``-1`` = unclassified or unknown to the model).
These tests keep it that way: the offline phase, the engine, signal
extraction, the location index, the lifecycle loop, the fleet, the
observability layer and the resumable runs neither materialize record
lists nor classify message lists, and the event types are always the
mined templates.  A batch holds what a log line says — time, location,
severity, message — and so does the ingest wire: the generator's
``event_type``/``fault_id`` live only on ``LogRecord``.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro import obs
from repro.columnar import RecordBatch
from repro.fleet.ingest import encode_records
from repro.lifecycle import LifecyclePolicy, SelfHealingRun
from repro.simulation.trace import LogRecord, Severity

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

SCANNED = ["core", "prediction", "signals/extraction.py", "location",
           "lifecycle", "fleet", "obs", "resilience/checkpoint.py"]

FORBIDDEN = ["to_records(", ".observe_many(", "event_id_array",
             "use_mined_templates"]


def _sources():
    for rel in SCANNED:
        path = SRC / rel
        yield from [path] if path.is_file() else sorted(path.rglob("*.py"))


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


def test_no_record_lists_below_the_entry_points():
    hits = [
        f"{path.relative_to(SRC)}:{n}: {needle}"
        for path in _sources()
        for n, line in enumerate(path.read_text().splitlines(), 1)
        for needle in FORBIDDEN
        if needle in line
    ]
    assert hits == []


def test_a_batch_has_no_generator_ids():
    records = [
        LogRecord(1.0, "n0", Severity.INFO, "a b", event_type=4, fault_id=2),
    ]
    batch = RecordBatch.from_records(records)
    for name in ("event_types", "fault_ids"):
        assert not hasattr(batch, name)
        assert name not in RecordBatch.__slots__
    assert batch.record(0).event_type is None
    assert batch.to_records()[0].fault_id is None


def test_no_wire_row_carries_generator_ids(small_scenario):
    records = small_scenario.records[:2000]
    assert any(r.event_type is not None for r in records)
    assert any(r.fault_id is not None for r in records)
    for line in encode_records(records).decode("utf-8").splitlines():
        assert set(json.loads(line)) == {"t", "loc", "sev", "msg"}


def test_self_healing_run_materializes_no_record(
    fitted_elsa, small_scenario, tmp_path, monkeypatch
):
    sc = small_scenario
    calls = []
    record = RecordBatch.record

    def counting_record(self, i):
        calls.append(i)
        return record(self, i)

    monkeypatch.setattr(RecordBatch, "record", counting_record)
    run = SelfHealingRun(
        copy.deepcopy(fitted_elsa), sc.train_end, sc.t_end,
        faults=sc.test_faults,
        policy=LifecyclePolicy(min_train_records=50, heal_check_records=512),
        store_dir=tmp_path / "store",
    )
    # a retrain buffers, splits, learns a candidate and validates both
    # models on the holdout
    run.request_retrain("manual")
    assert run.run(sc.records)
    assert run.retrains >= 1
    assert calls == []
