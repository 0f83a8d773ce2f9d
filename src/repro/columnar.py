"""Columnar record batches: the array-of-structs → struct-of-arrays turn.

A :class:`RecordBatch` holds one contiguous slice of a log stream as
parallel numpy arrays — timestamps (float64), interned location ids
(int32 into a shared string pool) and severity codes (int8) — plus the
raw message strings.  It is the single record representation below the
pipeline's entry points: produced **once** at parse time
(:func:`repro.helo.batch.parse_lines_batch`) or when an entry point is
handed a record list (:meth:`from_records`), and consumed by every
downstream stage: classification (:meth:`repro.core.elsa.ELSA.classify`),
sanitizing (:func:`repro.resilience.stream.sanitize_batch`), the offline
phase's signal extraction, location index and severity vote, binning
and detector ticking (:meth:`repro.prediction.engine.HybridPredictor.feed`),
and fleet shard handoff (:class:`repro.fleet.queue.RecordDeque`).  Event
ids travel beside a batch as one int64 array, ``-1`` = unclassified.

Slicing is a view (arrays are numpy views, the location pool is
shared); :meth:`take` and :meth:`concat` copy.  :meth:`to_records`
materializes :class:`~repro.simulation.trace.LogRecord` objects for
callers outside the pipeline.  A batch holds what a log line says —
time, location, severity, message — so a round trip keeps those four
fields; the generator's ``event_type``/``fault_id`` live only on
:class:`~repro.simulation.trace.LogRecord` and come back ``None``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.simulation.trace import LogRecord, Severity

__all__ = ["RecordBatch", "rows_by_type"]


def rows_by_type(event_ids: np.ndarray) -> Dict[int, np.ndarray]:
    """Row indices of each classified type (``event_ids >= 0``), in
    record order; types come in ascending id order."""
    rows = np.flatnonzero(event_ids >= 0)
    rows = rows[np.argsort(event_ids[rows], kind="stable")]
    tids = event_ids[rows]
    starts = np.flatnonzero(np.diff(tids, prepend=-1))
    ends = np.r_[starts[1:], tids.size]
    return {
        tid: rows[a:b]
        for tid, a, b in zip(tids[starts].tolist(), starts, ends)
    }


class RecordBatch:
    """A columnar slice of a log stream (struct-of-arrays).

    Parameters are taken by reference, not copied — builders hand over
    ownership.
    """

    __slots__ = (
        "timestamps",
        "loc_ids",
        "severities",
        "messages",
        "loc_pool",
        "_loc_index",
        "token_lists",
    )

    def __init__(
        self,
        timestamps: np.ndarray,
        loc_ids: np.ndarray,
        severities: np.ndarray,
        messages: List[str],
        loc_pool: List[str],
        loc_index: Optional[Dict[str, int]] = None,
        token_lists: Optional[list] = None,
    ) -> None:
        self.timestamps = timestamps
        self.loc_ids = loc_ids
        self.severities = severities
        self.messages = messages
        self.loc_pool = loc_pool
        self._loc_index = loc_index
        #: transient: per-record raw token tuples (``raw_tokens``)
        #: cached by the batch parser so classification does not
        #: re-split messages; read-only, never persisted
        self.token_lists = token_lists

    # -- construction --------------------------------------------------------

    @classmethod
    def empty(cls) -> "RecordBatch":
        return cls(
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int8),
            [],
            [],
        )

    @classmethod
    def from_records(cls, records: Sequence[LogRecord]) -> "RecordBatch":
        """Columnarize a list of record objects (interning locations)."""
        n = len(records)
        ts = np.empty(n, dtype=np.float64)
        lids = np.empty(n, dtype=np.int32)
        sevs = np.empty(n, dtype=np.int8)
        msgs: List[str] = [""] * n
        pool: List[str] = []
        index: Dict[str, int] = {}
        for i, rec in enumerate(records):
            ts[i] = rec.timestamp
            lid = index.get(rec.location)
            if lid is None:
                lid = len(pool)
                index[rec.location] = lid
                pool.append(rec.location)
            lids[i] = lid
            sevs[i] = int(rec.severity)
            msgs[i] = rec.message
        return cls(ts, lids, sevs, msgs, pool, loc_index=index)

    # -- basic protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

    def __bool__(self) -> bool:
        return len(self.timestamps) > 0

    def location(self, i: int) -> str:
        """The location string of row ``i``."""
        return self.loc_pool[self.loc_ids[i]]

    def record(self, i: int) -> LogRecord:
        """Materialize row ``i`` as a :class:`LogRecord`."""
        if i < 0:
            i += len(self.timestamps)
        return LogRecord(
            timestamp=float(self.timestamps[i]),
            location=self.loc_pool[self.loc_ids[i]],
            severity=Severity(int(self.severities[i])),
            message=self.messages[i],
        )

    def __getitem__(
        self, key: Union[int, slice]
    ) -> Union[LogRecord, "RecordBatch"]:
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step != 1:
                raise ValueError("RecordBatch slices must be contiguous")
            return self.slice(start, stop)
        return self.record(int(key))

    def __iter__(self):
        for i in range(len(self)):
            yield self.record(i)

    def slice(self, start: int, stop: int) -> "RecordBatch":
        """A zero-copy contiguous view (shares the location pool)."""
        sl = slice(start, stop)
        return RecordBatch(
            self.timestamps[sl],
            self.loc_ids[sl],
            self.severities[sl],
            self.messages[sl],
            self.loc_pool,
            loc_index=self._loc_index,
            token_lists=(
                None if self.token_lists is None else self.token_lists[sl]
            ),
        )

    def take(self, sel: np.ndarray) -> "RecordBatch":
        """Rows selected by a boolean mask or integer index array (copy)."""
        sel = np.asarray(sel)
        if sel.dtype == np.bool_:
            idx = np.flatnonzero(sel)
        else:
            idx = sel
        msgs = [self.messages[i] for i in idx]
        return RecordBatch(
            self.timestamps[idx],
            self.loc_ids[idx],
            self.severities[idx],
            msgs,
            self.loc_pool,
            loc_index=self._loc_index,
            token_lists=(
                None if self.token_lists is None
                else [self.token_lists[i] for i in idx]
            ),
        )

    @staticmethod
    def concat(batches: Sequence["RecordBatch"]) -> "RecordBatch":
        """Concatenate batches, remapping location ids to a union pool."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return RecordBatch.empty()
        if len(batches) == 1:
            return batches[0]
        pool: List[str] = []
        index: Dict[str, int] = {}
        lid_parts = []
        for b in batches:
            remap = np.empty(len(b.loc_pool), dtype=np.int32)
            for j, loc in enumerate(b.loc_pool):
                lid = index.get(loc)
                if lid is None:
                    lid = len(pool)
                    index[loc] = lid
                    pool.append(loc)
                remap[j] = lid
            lid_parts.append(remap[b.loc_ids])
        n = sum(len(b) for b in batches)
        msgs: List[str] = []
        for b in batches:
            msgs.extend(b.messages)
        assert n == len(msgs)
        return RecordBatch(
            np.concatenate([b.timestamps for b in batches]),
            np.concatenate(lid_parts),
            np.concatenate([b.severities for b in batches]),
            msgs,
            pool,
            loc_index=index,
        )

    # -- conversion ----------------------------------------------------------

    def to_records(self) -> List[LogRecord]:
        """Materialize the whole batch as record objects."""
        pool = self.loc_pool
        sev_of = {int(s): s for s in Severity}
        return [
            LogRecord(
                timestamp=float(self.timestamps[i]),
                location=pool[self.loc_ids[i]],
                severity=sev_of[int(self.severities[i])],
                message=self.messages[i],
            )
            for i in range(len(self.timestamps))
        ]

    def intern(self, location: str) -> int:
        """Intern a location string into the pool, returning its id."""
        if self._loc_index is None:
            self._loc_index = {
                loc: j for j, loc in enumerate(self.loc_pool)
            }
        lid = self._loc_index.get(location)
        if lid is None:
            lid = len(self.loc_pool)
            self._loc_index[location] = lid
            self.loc_pool.append(location)
        return lid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordBatch(n={len(self)}, locs={len(self.loc_pool)})"
