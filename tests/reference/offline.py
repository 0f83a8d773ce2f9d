"""Record-at-a-time offline helpers: the oracles of their columnar forms.

Each function walks a :class:`~repro.simulation.trace.LogRecord` list
beside a list of event ids (``None`` = unclassified), the way the
offline phase did before it read :class:`~repro.columnar.RecordBatch`
columns.  ``tests/test_offline_oracles.py`` compares every one with the
product code on the same rows.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.signals.extraction import SignalSet
from repro.simulation.trace import LogRecord, Severity


def extract_signals_scalar(
    records: Sequence[LogRecord],
    event_ids: Sequence[Optional[int]],
    n_types: Optional[int] = None,
    sampling_period: float = 10.0,
    t_start: Optional[float] = None,
    t_end: Optional[float] = None,
) -> SignalSet:
    """:func:`~repro.signals.extraction.extract_signals`, pairing each
    classified record's id with its timestamp one record at a time."""
    pairs = [
        (tid, r.timestamp)
        for tid, r in zip(event_ids, records)
        if tid is not None
    ]
    tids = np.array([p[0] for p in pairs], dtype=np.int64)
    times = np.array([p[1] for p in pairs], dtype=np.float64)
    if n_types is None:
        n_types = int(tids.max()) + 1 if tids.size else 1
    if t_start is None:
        t_start = 0.0
    if t_end is None:
        t_end = (float(times.max()) if times.size else 0.0) + sampling_period
    return SignalSet.from_events(
        tids, times, n_types, t_end - t_start, sampling_period, t_start
    )


class LocationIndexScalar:
    """:class:`~repro.location.propagation.LocationIndex`, built by a
    per-record loop; each type's rows sorted stably by sample."""

    def __init__(
        self,
        records: Sequence[LogRecord],
        event_ids: Sequence[Optional[int]],
        sampling_period: float = 10.0,
        t_start: float = 0.0,
    ) -> None:
        samples: Dict[int, List[int]] = defaultdict(list)
        locs: Dict[int, List[str]] = defaultdict(list)
        for rec, tid in zip(records, event_ids):
            if tid is None:
                continue
            samples[tid].append(int((rec.timestamp - t_start) / sampling_period))
            locs[tid].append(rec.location)
        self._samples: Dict[int, np.ndarray] = {}
        self._locations: Dict[int, List[str]] = {}
        for tid in samples:
            arr = np.asarray(samples[tid], dtype=np.int64)
            order = np.argsort(arr, kind="stable")
            self._samples[tid] = arr[order]
            self._locations[tid] = [locs[tid][i] for i in order]

    def locations_near(
        self, event_type: int, sample: int, tolerance: int
    ) -> List[str]:
        arr = self._samples.get(event_type)
        if arr is None or arr.size == 0:
            return []
        lo = int(np.searchsorted(arr, sample - tolerance, side="left"))
        hi = int(np.searchsorted(arr, sample + tolerance, side="right"))
        return self._locations[event_type][lo:hi]


def majority_severities_scalar(
    records: Sequence[LogRecord], event_ids: Sequence[Optional[int]]
) -> Dict[int, Severity]:
    """Per-type severity votes in a ``Counter``; ``most_common(1)``
    keeps the first-seen severity among equal counts."""
    votes: Dict[int, Counter] = defaultdict(Counter)
    for rec, tid in zip(records, event_ids):
        if tid is not None:
            votes[tid][rec.severity] += 1
    return {tid: c.most_common(1)[0][0] for tid, c in votes.items()}


def type_trains_scalar(
    records: Sequence[LogRecord], event_ids: Sequence[Optional[int]]
) -> Dict[int, np.ndarray]:
    """Each classified type's timestamps in record order, as
    ``DataMiningPredictor.fit`` gathers them."""
    times: Dict[int, List[float]] = defaultdict(list)
    for rec, tid in zip(records, event_ids):
        if tid is not None:
            times[tid].append(rec.timestamp)
    return {tid: np.asarray(ts) for tid, ts in times.items()}
