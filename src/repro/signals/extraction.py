"""Event-count signal extraction.

"We extract the signal for each event type by sampling the number of
event occurrences for every time unit … a sampling rate of 10 seconds"
(section III.A).  :class:`SignalSet` holds all signals of a scenario as a
sparse (event type × sample) count matrix; individual dense signals are
materialized on demand so multi-day scenarios with hundreds of event
types stay memory-friendly.

The online phase "simply concatenates the existing signals with the
information received from the input stream" and keeps "only the last two
months" (section III.A); :meth:`SignalSet.extend` and
:meth:`SignalSet.trim` implement exactly those two operations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.columnar import RecordBatch

#: The paper's sampling period, in seconds.
DEFAULT_SAMPLING_PERIOD = 10.0


class SignalSet:
    """All event-count signals of one log stream.

    Stored as a CSR matrix of shape ``(n_types, n_samples)`` with int32
    counts.  ``t_start`` anchors sample 0 in scenario time, so trimmed
    (online) sets keep consistent timestamps.
    """

    def __init__(
        self,
        counts: sp.csr_matrix,
        sampling_period: float = DEFAULT_SAMPLING_PERIOD,
        t_start: float = 0.0,
    ) -> None:
        if sampling_period <= 0:
            raise ValueError("sampling_period must be positive")
        self._counts = counts.tocsr()
        self.sampling_period = float(sampling_period)
        self.t_start = float(t_start)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_events(
        cls,
        event_types: np.ndarray,
        timestamps: np.ndarray,
        n_types: int,
        duration: float,
        sampling_period: float = DEFAULT_SAMPLING_PERIOD,
        t_start: float = 0.0,
    ) -> "SignalSet":
        """Build from parallel arrays of event-type ids and timestamps.

        Events outside ``[t_start, t_start + duration)`` are rejected; the
        caller controls windowing explicitly.
        """
        event_types = np.asarray(event_types, dtype=np.int64)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if event_types.shape != timestamps.shape:
            raise ValueError("event_types and timestamps must be parallel")
        n_samples = int(np.ceil(duration / sampling_period))
        if event_types.size:
            if event_types.min() < 0 or event_types.max() >= n_types:
                raise ValueError("event type id out of range")
            rel = timestamps - t_start
            if rel.min() < 0 or rel.max() >= duration:
                raise ValueError("timestamp outside the signal window")
            cols = (rel / sampling_period).astype(np.int64)
            data = np.ones(event_types.size, dtype=np.int32)
            counts = sp.coo_matrix(
                (data, (event_types, cols)), shape=(n_types, n_samples)
            ).tocsr()
        else:
            counts = sp.csr_matrix((n_types, n_samples), dtype=np.int32)
        return cls(counts, sampling_period, t_start)

    # -- shape ----------------------------------------------------------------

    @property
    def n_types(self) -> int:
        """Number of event types (rows)."""
        return self._counts.shape[0]

    @property
    def n_samples(self) -> int:
        """Number of time samples (columns)."""
        return self._counts.shape[1]

    @property
    def t_end(self) -> float:
        """Scenario time just past the last sample."""
        return self.t_start + self.n_samples * self.sampling_period

    def sample_index(self, t: float) -> int:
        """Sample index containing scenario time ``t``."""
        idx = int((t - self.t_start) / self.sampling_period)
        if not 0 <= idx < self.n_samples:
            raise IndexError(f"time {t} outside signal window")
        return idx

    def sample_time(self, idx: int) -> float:
        """Scenario time of the left edge of sample ``idx``."""
        return self.t_start + idx * self.sampling_period

    # -- access -----------------------------------------------------------------

    def signal(self, event_type: int) -> np.ndarray:
        """Dense count signal of one event type (int32 copy)."""
        return np.asarray(
            self._counts.getrow(event_type).todense(), dtype=np.int32
        ).ravel()

    def occurrences(self, event_type: int) -> np.ndarray:
        """Sample indices with at least one occurrence (sorted)."""
        row = self._counts.getrow(event_type)
        return np.sort(row.indices.copy())

    def total_counts(self) -> np.ndarray:
        """Total occurrences per event type."""
        return np.asarray(self._counts.sum(axis=1)).ravel()

    def occupancy(self) -> np.ndarray:
        """Fraction of nonzero samples per event type."""
        nz = np.diff(self._counts.indptr)
        return nz / max(1, self.n_samples)

    def dense(self) -> np.ndarray:
        """Full dense matrix (use only for small sets)."""
        return np.asarray(self._counts.todense(), dtype=np.int32)

    # -- online maintenance ------------------------------------------------------

    def extend(
        self,
        event_types: np.ndarray,
        timestamps: np.ndarray,
        new_end: float,
    ) -> "SignalSet":
        """Concatenate a new chunk of events (returns a new set).

        ``new_end`` is the scenario time up to which the stream has been
        observed; the matrix grows to cover it even if the tail samples
        are empty (silence is information).
        """
        if new_end < self.t_end:
            raise ValueError("new_end must not precede current coverage")
        extra = SignalSet.from_events(
            event_types,
            timestamps,
            n_types=self.n_types,
            duration=new_end - self.t_end,
            sampling_period=self.sampling_period,
            t_start=self.t_end,
        )
        counts = sp.hstack([self._counts, extra._counts], format="csr")
        return SignalSet(counts, self.sampling_period, self.t_start)

    def trim(self, keep_seconds: float) -> "SignalSet":
        """Keep only the trailing ``keep_seconds`` of signal.

        This is the paper's "only the last two months in the on-line
        module" memory bound.
        """
        keep = int(np.ceil(keep_seconds / self.sampling_period))
        if keep >= self.n_samples:
            return self
        cut = self.n_samples - keep
        counts = self._counts[:, cut:]
        return SignalSet(
            counts.tocsr(),
            self.sampling_period,
            self.t_start + cut * self.sampling_period,
        )

    def window(self, t0: float, t1: float) -> "SignalSet":
        """Sub-window ``[t0, t1)`` as a new set."""
        i0 = max(0, int((t0 - self.t_start) / self.sampling_period))
        i1 = min(self.n_samples, int(np.ceil((t1 - self.t_start) / self.sampling_period)))
        if i1 <= i0:
            raise ValueError("empty window")
        return SignalSet(
            self._counts[:, i0:i1].tocsr(),
            self.sampling_period,
            self.t_start + i0 * self.sampling_period,
        )


def extract_signals(
    batch: RecordBatch,
    event_ids: np.ndarray,
    n_types: Optional[int] = None,
    sampling_period: float = DEFAULT_SAMPLING_PERIOD,
    t_start: Optional[float] = None,
    t_end: Optional[float] = None,
) -> SignalSet:
    """Extract the :class:`SignalSet` of a classified record batch.

    ``event_ids`` parallels ``batch``: int64 event-type ids (e.g. from
    a mined :class:`~repro.helo.template.TemplateTable`), ``-1`` for an
    unclassified record, which is skipped.
    """
    if len(event_ids) != len(batch):
        raise ValueError("event_ids must parallel the batch")
    with obs.span("extract", records=len(batch)) as span:
        keep = event_ids >= 0
        tids = event_ids[keep]
        times = batch.timestamps[keep]
        if n_types is None:
            n_types = int(tids.max()) + 1 if tids.size else 1
        if t_start is None:
            t_start = 0.0
        if t_end is None:
            t_end = (
                float(times.max()) if times.size else 0.0
            ) + sampling_period
        signals = SignalSet.from_events(
            tids, times, n_types, t_end - t_start, sampling_period, t_start
        )
        skipped = len(batch) - tids.size
        span["n_types"] = signals.n_types
        span["n_samples"] = signals.n_samples
        span["skipped"] = skipped
    obs.counter("signals.extractions").inc()
    obs.counter("signals.records_ingested").inc(tids.size)
    obs.counter("signals.records_unclassified").inc(skipped)
    return signals
