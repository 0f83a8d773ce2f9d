"""Record-at-a-time sanitizer: the oracle of ``sanitize_batch``."""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.resilience.config import ResilienceConfig
from repro.resilience.stream import (
    _DEGRADED_KEYS,
    GAP_MARKER_LOCATION,
    GAP_MARKER_MESSAGE,
    DeadLetter,
)
from repro.simulation.trace import LogRecord, Severity


class ResilientStream:
    """Sanitizing iterator over a record stream, one record at a time.

    Per record: late quarantine against the watermark (newest timestamp
    seen minus the skew window), dedupe against the keys seen within
    the skew window, the watermark advance, rate-limit sampling, then a
    min-heap reorder buffer that releases records as the watermark
    passes them; gap markers are inserted on the way out.  Iterate once; afterwards
    ``stats`` and ``dead_letters`` describe the pass.
    """

    def __init__(
        self,
        records: Iterable[LogRecord],
        config: Optional[ResilienceConfig] = None,
    ) -> None:
        self.config = config or ResilienceConfig()
        self._source = iter(records)
        self.dead_letters: Deque[DeadLetter] = deque(
            maxlen=max(0, self.config.dead_letter_cap)
        )
        self.stats: Dict[str, int] = {
            "records_in": 0,
            "records_out": 0,
            "markers_emitted": 0,
        }
        for key in _DEGRADED_KEYS:
            self.stats[key] = 0
        # reorder buffer: (timestamp, arrival seq, record)
        self._heap: List[Tuple[float, int, LogRecord]] = []
        self._seq = 0
        self._max_ts: Optional[float] = None
        # dedupe keys with their timestamps, purged past the horizon
        self._seen_keys: Dict[Tuple, float] = {}
        self._key_queue: Deque[Tuple[float, Tuple]] = deque()
        # backpressure bucket state
        self._bucket: Optional[int] = None
        self._bucket_admitted = 0
        self._bucket_overflow = 0
        # last emitted timestamp, for gap detection
        self._last_out_ts: Optional[float] = None

    def _quarantine_late(self, rec: LogRecord) -> None:
        payload = rec.format_line()
        if self.config.strict:
            raise ValueError(f"strict ingestion: late: {payload[:120]!r}")
        self.dead_letters.append(DeadLetter(reason="late", payload=payload))
        self.stats["dropped_late"] += 1

    def _is_duplicate(self, rec: LogRecord) -> bool:
        if not self.config.deduplicate:
            return False
        key = (rec.timestamp, rec.location, int(rec.severity), rec.message)
        if key in self._seen_keys:
            return True
        self._seen_keys[key] = rec.timestamp
        self._key_queue.append((rec.timestamp, key))
        # a purged key's repeat trails the watermark by more than the
        # skew window, so it is quarantined as late before this check
        horizon = rec.timestamp - self.config.skew_window_seconds
        while self._key_queue and self._key_queue[0][0] < horizon:
            _, old = self._key_queue.popleft()
            self._seen_keys.pop(old, None)
        return False

    def _admit_rate(self, rec: LogRecord) -> bool:
        cfg = self.config
        if cfg.max_rate_per_second <= 0:
            return True
        bucket = int(rec.timestamp / cfg.rate_window_seconds)
        if bucket != self._bucket:
            self._bucket = bucket
            self._bucket_admitted = 0
            self._bucket_overflow = 0
        budget = cfg.max_rate_per_second * cfg.rate_window_seconds
        if self._bucket_admitted < budget or rec.severity >= Severity.SEVERE:
            self._bucket_admitted += 1
            return True
        self._bucket_overflow += 1
        if self._bucket_overflow % cfg.overflow_stride == 0:
            self._bucket_admitted += 1
            return True
        self.stats["sampled_out"] += 1
        return False

    def _push(self, rec: LogRecord) -> Iterator[LogRecord]:
        self.stats["records_in"] += 1
        if self._max_ts is not None and rec.timestamp < self._max_ts:
            if rec.timestamp < self._max_ts - self.config.skew_window_seconds:
                self._quarantine_late(rec)
                return
            self.stats["reordered"] += 1
        if self._is_duplicate(rec):
            self.stats["deduplicated"] += 1
            return
        if self._max_ts is None or rec.timestamp > self._max_ts:
            if (
                self._max_ts is not None
                and rec.timestamp - self._max_ts
                > self.config.clock_jump_seconds
            ):
                self.stats["clock_jumps"] += 1
            self._max_ts = rec.timestamp
        if not self._admit_rate(rec):
            return
        heapq.heappush(self._heap, (rec.timestamp, self._seq, rec))
        self._seq += 1
        watermark = self._max_ts - self.config.skew_window_seconds
        while self._heap and self._heap[0][0] <= watermark:
            yield from self._emit(heapq.heappop(self._heap)[2])

    def _emit(self, rec: LogRecord) -> Iterator[LogRecord]:
        cfg = self.config
        if (
            cfg.emit_gap_markers
            and self._last_out_ts is not None
            and rec.timestamp - self._last_out_ts > cfg.gap_threshold_seconds
        ):
            gap = rec.timestamp - self._last_out_ts
            self.stats["gaps_detected"] += 1
            self.stats["markers_emitted"] += 1
            yield LogRecord(
                timestamp=self._last_out_ts + cfg.gap_threshold_seconds,
                location=GAP_MARKER_LOCATION,
                severity=Severity.WARNING,
                message=GAP_MARKER_MESSAGE.format(gap=gap),
            )
        self._last_out_ts = rec.timestamp
        self.stats["records_out"] += 1
        yield rec

    def __iter__(self) -> Iterator[LogRecord]:
        for rec in self._source:
            yield from self._push(rec)
        while self._heap:
            yield from self._emit(heapq.heappop(self._heap)[2])


def sanitize_records(
    records: Iterable[LogRecord],
    config: Optional[ResilienceConfig] = None,
) -> Tuple[List[LogRecord], ResilientStream]:
    """The sanitized list and the exhausted stream (for its stats)."""
    stream = ResilientStream(records, config)
    return list(stream), stream
