"""The offline phase's columnar helpers agree with their record-at-a-time
oracles in ``tests/reference/offline.py``.

Rows mix unclassified ids (``-1``), timestamps out of order within and
across samples, rows outside the signal window and severity-vote ties;
hypothesis also tries the empty input.  Two orders are part of the
contract: the severity vote keeps the first-seen severity among equal
counts (``Counter.most_common(1)``), and the location index keeps record
order within a sample.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columnar import RecordBatch, rows_by_type
from repro.core.elsa import ELSA
from repro.location.propagation import LocationIndex
from repro.signals.extraction import extract_signals
from repro.simulation.trace import LogRecord, Severity
from tests.reference.offline import (
    LocationIndexScalar,
    extract_signals_scalar,
    majority_severities_scalar,
    type_trains_scalar,
)

PERIOD = 10.0
T_START, T_END = 0.0, 100.0

# tenth-of-a-second stamps over [-15, 115): 13 samples of 10 s, so rows
# share samples often and some fall outside [T_START, T_END)
rows = st.lists(
    st.tuples(
        st.integers(-150, 1149).map(lambda x: x / 10.0),
        st.sampled_from(["n0", "n1", "n2"]),
        st.sampled_from(list(Severity)),
        st.integers(-1, 3),
    ),
    max_size=40,
)

#: type 0 votes INFO, FAILURE, FAILURE, INFO: a tie the first-seen
#: severity (INFO) wins; type 1 votes WARNING, SEVERE: a one-one tie
TIE = [
    (1.0, "n0", Severity.INFO, 0),
    (2.0, "n1", Severity.FAILURE, 0),
    (3.0, "n0", Severity.WARNING, 1),
    (4.0, "n2", Severity.FAILURE, 0),
    (5.0, "n1", Severity.SEVERE, 1),
    (6.0, "n0", Severity.INFO, 0),
]

#: three rows of one type in one sample, stamped against record order
UNSORTED = [
    (19.0, "n2", Severity.INFO, 2),
    (11.0, "n0", Severity.INFO, 2),
    (15.0, "n1", Severity.INFO, 2),
    (3.0, "n1", Severity.INFO, -1),
]


def _inputs(data):
    records = [LogRecord(t, loc, sev, "m") for t, loc, sev, _ in data]
    ids = np.array([tid for *_, tid in data], dtype=np.int64)
    scalar_ids = [None if tid < 0 else tid for tid in ids.tolist()]
    return records, RecordBatch.from_records(records), ids, scalar_ids


def _in_window(data):
    return [
        row for row in data
        if row[3] < 0 or T_START <= row[0] < T_END
    ]


@settings(max_examples=200, deadline=None)
@given(rows)
@example([])
@example(UNSORTED)
def test_extract_signals_matches_oracle(data):
    records, batch, ids, scalar_ids = _inputs(_in_window(data))
    got = extract_signals(batch, ids, n_types=4, sampling_period=PERIOD,
                          t_start=T_START, t_end=T_END)
    want = extract_signals_scalar(records, scalar_ids, n_types=4,
                                  sampling_period=PERIOD,
                                  t_start=T_START, t_end=T_END)
    assert np.array_equal(got.dense(), want.dense())
    # derived type count and window
    got = extract_signals(batch, ids)
    want = extract_signals_scalar(records, scalar_ids)
    assert (got.n_types, got.n_samples, got.t_start) == (
        want.n_types, want.n_samples, want.t_start
    )
    assert np.array_equal(got.dense(), want.dense())


@settings(max_examples=100, deadline=None)
@given(rows)
def test_extract_signals_rejects_what_the_oracle_rejects(data):
    records, batch, ids, scalar_ids = _inputs(data)
    window = dict(n_types=4, sampling_period=PERIOD, t_start=T_START,
                  t_end=T_END)
    try:
        want = extract_signals_scalar(records, scalar_ids, **window)
    except ValueError:
        with pytest.raises(ValueError):
            extract_signals(batch, ids, **window)
        return
    assert np.array_equal(
        extract_signals(batch, ids, **window).dense(), want.dense()
    )


@settings(max_examples=200, deadline=None)
@given(rows)
@example([])
@example(UNSORTED)
def test_location_index_matches_oracle(data):
    records, batch, ids, scalar_ids = _inputs(data)
    got = LocationIndex(batch, ids, sampling_period=PERIOD, t_start=T_START)
    want = LocationIndexScalar(records, scalar_ids, sampling_period=PERIOD,
                               t_start=T_START)
    for tid in range(-1, 5):
        for sample in range(-3, 14):
            for tol in (0, 1, 3):
                assert got.locations_near(tid, sample, tol) == (
                    want.locations_near(tid, sample, tol)
                )


def test_location_index_keeps_record_order_within_a_sample():
    _, batch, ids, _ = _inputs(UNSORTED)
    index = LocationIndex(batch, ids, sampling_period=PERIOD)
    assert index.locations_near(2, 1, 0) == ["n2", "n0", "n1"]


@settings(max_examples=200, deadline=None)
@given(rows)
@example([])
@example(TIE)
def test_majority_severities_match_oracle(data):
    records, batch, ids, scalar_ids = _inputs(data)
    got = ELSA._majority_severities(batch, ids)
    want = majority_severities_scalar(records, scalar_ids)
    # same winners, same (first-seen) type order
    assert list(got.items()) == list(want.items())


def test_severity_tie_keeps_first_seen():
    _, batch, ids, _ = _inputs(TIE)
    assert ELSA._majority_severities(batch, ids) == {
        0: Severity.INFO, 1: Severity.WARNING,
    }


@settings(max_examples=200, deadline=None)
@given(rows)
@example([])
@example(UNSORTED)
def test_type_trains_match_oracle(data):
    records, batch, ids, scalar_ids = _inputs(data)
    # as DataMiningPredictor.fit gathers them
    got = {tid: batch.timestamps[r] for tid, r in rows_by_type(ids).items()}
    want = type_trains_scalar(records, scalar_ids)
    assert sorted(got) == sorted(want)
    for tid in want:
        assert got[tid].tolist() == want[tid].tolist()
