"""Tests for the hardened-ingestion layer (``sanitize_batch``)."""

import io

import numpy as np
import pytest

from repro import obs
from repro.columnar import RecordBatch
from repro.helo.batch import parse_lines_batch
from repro.resilience import (
    GAP_MARKER_LOCATION,
    ResilienceConfig,
    sanitize_batch,
)
from repro.simulation.trace import LogRecord, Severity


def rec(ts, loc="n0", sev=Severity.INFO, msg="msg"):
    return LogRecord(float(ts), loc, sev, msg)


def sanitize(records, config, dead_letters=None):
    """Sanitized records and stats of one ``sanitize_batch`` call."""
    clean, stats = sanitize_batch(
        RecordBatch.from_records(records), config, dead_letters
    )
    return clean.to_records(), stats


def degraded():
    """The degraded gauge the last ``sanitize_batch`` call set."""
    return obs.gauge("resilience.degraded").value == 1.0


class TestCleanPassthrough:
    def test_sorted_clean_stream_is_identity(self):
        records = [rec(t, msg=f"m{t}") for t in range(10)]
        out, stats = sanitize(records, ResilienceConfig())
        assert out == records
        assert not degraded()
        assert stats["records_in"] == 10
        assert stats["records_out"] == 10

    def test_stats_start_zeroed(self):
        _, stats = sanitize([], ResilienceConfig())
        # readers of the stats dict rely on every key being present
        assert stats["quarantined"] == 0
        assert stats["records_in"] == stats["records_out"] == 0
        assert not degraded()


class TestQuarantine:
    def test_malformed_lines_skipped_and_counted(self):
        # malformed lines never reach the sanitizer: the lenient reader
        # skips them and counts them where every reader does
        obs.reset()
        lines = [
            "0.000 n0 INFO fine\n",
            "GARBAGE ###\n",
            "inf n0 INFO a non-finite timestamp\n",
            "1.000 n1 INFO also fine\n",
            "\n",  # blank: skipped, not counted
        ]
        batch = parse_lines_batch(lines, lenient=True)
        out, stats = sanitize_batch(batch, ResilienceConfig())
        assert out.messages == ["fine", "also fine"]
        assert obs.counter("ingest.malformed_lines").value == 2
        assert stats["records_in"] == 2
        assert stats["quarantined"] == 0

    def test_dead_letter_buffer_is_bounded(self):
        cfg = ResilienceConfig(dead_letter_cap=4, emit_gap_markers=False)
        records = [rec(1000)] + [rec(i, msg=f"late {i}") for i in range(100)]
        letters = []
        out, stats = sanitize(records, cfg, letters)
        assert out == [rec(1000)]
        assert stats["dropped_late"] == 100
        # the newest late payloads are kept, the count is not capped
        assert [d.payload for d in letters] == [
            r.format_line() for r in records[-4:]
        ]
        assert {d.reason for d in letters} == {"late"}

    def test_strict_mode_raises(self):
        cfg = ResilienceConfig(strict=True)
        with pytest.raises(ValueError, match="strict ingestion: late"):
            sanitize([rec(0), rec(1000), rec(5)], cfg)


class TestReorder:
    def test_skewed_records_resorted(self):
        cfg = ResilienceConfig(skew_window_seconds=100.0)
        records = [rec(0), rec(50), rec(30), rec(120), rec(110), rec(300)]
        out, stats = sanitize(records, cfg)
        assert [r.timestamp for r in out] == sorted(
            r.timestamp for r in records
        )
        assert stats["reordered"] == 2
        assert degraded()

    def test_straggler_beyond_skew_window_dropped(self):
        cfg = ResilienceConfig(
            skew_window_seconds=60.0, emit_gap_markers=False
        )
        records = [rec(0), rec(1000), rec(5.0)]  # 5.0 is hopelessly late
        letters = []
        out, stats = sanitize(records, cfg, letters)
        assert [r.timestamp for r in out] == [0.0, 1000.0]
        assert stats["dropped_late"] == 1
        assert letters[0].reason == "late"


class TestDedupe:
    def test_exact_repeats_collapse(self):
        cfg = ResilienceConfig()
        r = rec(10.0, msg="same")
        out, stats = sanitize([rec(0), r, r, r, rec(20)], cfg)
        assert len(out) == 3
        assert stats["deduplicated"] == 2

    def test_dedupe_can_be_disabled(self):
        cfg = ResilienceConfig(deduplicate=False)
        r = rec(10.0)
        out, stats = sanitize([r, r], cfg)
        assert len(out) == 2
        assert stats["deduplicated"] == 0

    def test_same_time_different_content_kept(self):
        out, _ = sanitize(
            [rec(1.0, msg="a"), rec(1.0, msg="b"), rec(1.0, loc="n1", msg="a")],
            ResilienceConfig(),
        )
        assert len(out) == 3


class TestBackpressure:
    def test_overflow_sampled_deterministically(self):
        cfg = ResilienceConfig(
            max_rate_per_second=1.0,
            rate_window_seconds=10.0,
            overflow_stride=10,
            deduplicate=False,
            emit_gap_markers=False,
        )
        # 100 records in one 10 s window: budget 10, overflow 90,
        # every 10th overflow record admitted -> 19 out.
        records = [rec(i * 0.1, msg=f"m{i}") for i in range(100)]
        out, stats = sanitize(records, cfg)
        assert len(out) == 19
        assert stats["sampled_out"] == 81
        assert [r.message for r in out] == (
            [f"m{i}" for i in range(10)]
            + [f"m{i}" for i in range(19, 100, 10)]
        )
        # deterministic: same input, same output
        out2, _ = sanitize(records, cfg)
        assert out == out2

    def test_severe_records_always_pass(self):
        cfg = ResilienceConfig(
            max_rate_per_second=1.0,
            rate_window_seconds=10.0,
            overflow_stride=1000,
            deduplicate=False,
            emit_gap_markers=False,
        )
        records = [rec(i * 0.05, msg=f"noise{i}") for i in range(100)]
        records.append(rec(5.0, sev=Severity.FAILURE, msg="the failure"))
        out, _ = sanitize(sorted(records), cfg)
        assert any(r.severity == Severity.FAILURE for r in out)

    def test_budget_restarts_when_the_bucket_changes(self):
        # buckets are runs of consecutive records: a skewed record from
        # an earlier bucket opens a fresh budget, and so does the return
        cfg = ResilienceConfig(
            max_rate_per_second=0.1,
            rate_window_seconds=10.0,
            overflow_stride=1000,
            deduplicate=False,
            emit_gap_markers=False,
        )
        records = [
            rec(20, msg="a"), rec(21, msg="b"),  # bucket 2: b shed
            rec(15, msg="c"),                    # bucket 1: fresh
            rec(22, msg="d"), rec(23, msg="e"),  # bucket 2 again: e shed
        ]
        out, stats = sanitize(records, cfg)
        assert [r.message for r in out] == ["c", "a", "d"]
        assert stats["sampled_out"] == 2

    def test_shed_records_advance_the_watermark(self):
        # budget 1 record per 10 s bucket: (125, C) is shed, but stream
        # time has reached 125, so the replayed (0, A) is 125 s behind
        # it — past the 120 s skew window, hence late, not a new record
        cfg = ResilienceConfig(
            max_rate_per_second=0.1,
            overflow_stride=1000,
            emit_gap_markers=False,
        )
        records = [rec(0, "A"), rec(120, "B"), rec(125, "C"), rec(0, "A")]
        out, stats = sanitize(records, cfg)
        assert [(r.timestamp, r.location) for r in out] == [
            (0.0, "A"), (120.0, "B"),
        ]
        assert stats["sampled_out"] == 1
        assert stats["dropped_late"] == 1


class TestSentinels:
    def test_gap_emits_sensor_silent_marker(self):
        cfg = ResilienceConfig(gap_threshold_seconds=100.0)
        out, stats = sanitize([rec(0), rec(500)], cfg)
        assert stats["gaps_detected"] == 1
        markers = [r for r in out if r.location == GAP_MARKER_LOCATION]
        assert len(markers) == 1
        assert markers[0].timestamp == pytest.approx(100.0)
        assert markers[0].severity == Severity.WARNING
        assert "sensor silent" in markers[0].message
        # markers are in time order with the real records
        assert [r.timestamp for r in out] == sorted(r.timestamp for r in out)

    def test_gap_markers_can_be_disabled(self):
        cfg = ResilienceConfig(
            gap_threshold_seconds=100.0, emit_gap_markers=False
        )
        out, stats = sanitize([rec(0), rec(500)], cfg)
        assert len(out) == 2
        assert stats["markers_emitted"] == 0

    def test_forward_clock_jump_counted(self):
        cfg = ResilienceConfig(
            clock_jump_seconds=1000.0, emit_gap_markers=False
        )
        _, stats = sanitize([rec(0), rec(5000)], cfg)
        assert stats["clock_jumps"] == 1
        assert degraded()


class TestMetrics:
    def test_degradation_reaches_obs_registry(self):
        obs.reset()
        cfg = ResilienceConfig(emit_gap_markers=False)
        sanitize([rec(0), rec(500), rec(9)], cfg)
        assert obs.counter("resilience.dropped_late").value == 1
        assert obs.counter("resilience.records_in").value == 3
        assert obs.counter("resilience.records_out").value == 2
        assert obs.gauge("resilience.dead_letter_size").value == 1
        assert obs.gauge("resilience.degraded").value == 1.0

    def test_per_stream_deltas_not_double_counted(self):
        # each call flushes its own counts exactly once
        obs.reset()
        cfg = ResilienceConfig(emit_gap_markers=False)
        for _ in range(3):
            sanitize([rec(0), rec(500), rec(9)], cfg)
        assert obs.counter("resilience.dropped_late").value == 3
        assert obs.counter("resilience.records_in").value == 9


class TestReaderIntegration:
    def test_read_log_lenient_counts_skips(self):
        from repro.simulation.trace import read_log

        obs.reset()
        buf = io.StringIO(
            "0.000 n0 INFO fine\njunk\nnan n0 INFO x\n1.000 n1 INFO ok\n"
        )
        records = read_log(buf, lenient=True)
        assert len(records) == 2
        assert all(np.isfinite(r.timestamp) for r in records)
        assert obs.counter("ingest.malformed_lines").value == 2

    def test_read_log_strict_still_raises(self):
        from repro.simulation.trace import read_log

        with pytest.raises(ValueError):
            read_log(io.StringIO("junk\n"))
        with pytest.raises(ValueError, match="malformed log line"):
            read_log(io.StringIO("inf n0 INFO x\n"))
