"""Tests for event-count signal extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import RecordBatch
from repro.signals.extraction import SignalSet, extract_signals
from repro.simulation.trace import LogRecord, Severity


def _set(events, n_types=3, duration=100.0, period=10.0, t_start=0.0):
    tids = np.array([e[0] for e in events], dtype=np.int64)
    times = np.array([e[1] for e in events], dtype=np.float64)
    return SignalSet.from_events(tids, times, n_types, duration, period,
                                 t_start)


class TestFromEvents:
    def test_shape(self):
        s = _set([(0, 5.0), (1, 15.0)])
        assert s.n_types == 3
        assert s.n_samples == 10

    def test_counts_binned(self):
        s = _set([(0, 5.0), (0, 7.0), (0, 15.0)])
        sig = s.signal(0)
        assert sig[0] == 2 and sig[1] == 1 and sig[2:].sum() == 0

    def test_empty(self):
        s = _set([])
        assert s.total_counts().tolist() == [0, 0, 0]

    def test_out_of_range_type(self):
        with pytest.raises(ValueError):
            _set([(5, 1.0)])

    def test_out_of_window_time(self):
        with pytest.raises(ValueError):
            _set([(0, 200.0)])

    def test_parallel_arrays_enforced(self):
        with pytest.raises(ValueError):
            SignalSet.from_events(
                np.array([0, 1]), np.array([1.0]), 3, 100.0
            )

    def test_invalid_period(self):
        import scipy.sparse as sp
        with pytest.raises(ValueError):
            SignalSet(sp.csr_matrix((1, 1)), sampling_period=0.0)


class TestQueries:
    def test_occurrences(self):
        s = _set([(1, 15.0), (1, 55.0), (1, 56.0)])
        assert s.occurrences(1).tolist() == [1, 5]

    def test_total_counts(self):
        s = _set([(0, 1.0), (1, 2.0), (1, 3.0)])
        assert s.total_counts().tolist() == [1, 2, 0]

    def test_occupancy(self):
        s = _set([(0, 1.0), (0, 2.0), (0, 15.0)])
        assert s.occupancy()[0] == pytest.approx(0.2)

    def test_sample_index_and_time(self):
        s = _set([(0, 5.0)], t_start=0.0)
        assert s.sample_index(25.0) == 2
        assert s.sample_time(2) == pytest.approx(20.0)

    def test_sample_index_out_of_range(self):
        s = _set([(0, 5.0)])
        with pytest.raises(IndexError):
            s.sample_index(1000.0)

    def test_dense_matches_signals(self):
        s = _set([(0, 5.0), (2, 95.0)])
        d = s.dense()
        for t in range(3):
            assert (d[t] == s.signal(t)).all()


class TestOnlineMaintenance:
    def test_extend(self):
        s = _set([(0, 5.0)])
        s2 = s.extend(np.array([1]), np.array([105.0]), new_end=200.0)
        assert s2.n_samples == 20
        assert s2.signal(1)[10] == 1
        assert s2.signal(0)[0] == 1  # old data preserved

    def test_extend_backwards_rejected(self):
        s = _set([(0, 5.0)])
        with pytest.raises(ValueError):
            s.extend(np.array([]), np.array([]), new_end=50.0)

    def test_trim(self):
        s = _set([(0, 5.0), (0, 95.0)])
        t = s.trim(30.0)
        assert t.n_samples == 3
        assert t.t_start == pytest.approx(70.0)
        assert t.signal(0).sum() == 1  # only the sample at 95 s remains

    def test_trim_noop_when_short(self):
        s = _set([(0, 5.0)])
        assert s.trim(1e6) is s

    def test_window(self):
        s = _set([(0, 5.0), (0, 45.0), (0, 95.0)])
        w = s.window(40.0, 60.0)
        assert w.n_samples == 2
        assert w.signal(0).sum() == 1

    def test_window_empty_rejected(self):
        s = _set([(0, 5.0)])
        with pytest.raises(ValueError):
            s.window(50.0, 50.0)

    @given(st.lists(st.floats(0, 99.99), max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_counts_preserved_property(self, times):
        events = [(0, t) for t in times]
        s = _set(events)
        assert s.signal(0).sum() == len(times)


class TestExtractSignals:
    def _batch(self):
        return RecordBatch.from_records([
            LogRecord(1.0, "n0", Severity.INFO, "a", event_type=0),
            LogRecord(11.0, "n0", Severity.INFO, "b", event_type=1),
            LogRecord(12.0, "n0", Severity.INFO, "b", event_type=1),
        ])

    def test_ids_bin_per_sample(self):
        s = extract_signals(self._batch(), np.array([0, 1, 1]), t_end=20.0)
        assert s.signal(0).tolist() == [1, 0]
        assert s.signal(1).tolist() == [0, 2]

    def test_explicit_ids_override(self):
        """The ids passed in pick the channel: the records' generator
        ``event_type`` does not reach the batch."""
        s = extract_signals(self._batch(), np.array([1, 1, 1]), t_end=20.0)
        assert s.signal(1).sum() == 3

    def test_none_ids_skipped(self):
        """Records with no id (``-1``) are skipped."""
        s = extract_signals(self._batch(), np.array([0, -1, -1]),
                            n_types=2, t_end=20.0)
        assert s.signal(0).sum() == 1
        assert s.signal(1).sum() == 0

    def test_mismatched_ids_rejected(self):
        with pytest.raises(ValueError):
            extract_signals(self._batch(), np.array([0]))
