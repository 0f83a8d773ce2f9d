"""Segmented record queue: O(1) batch enqueue/dequeue for shard handoff.

:class:`RecordDeque` keeps :class:`~repro.columnar.RecordBatch`
*segments* intact end to end, so no shard boundary — router → queue,
queue → feed, feed → replay buffer — materializes record objects: a
routed batch enqueues as one segment (one pointer), ``popn`` hands the
feed a zero-copy slice (or a concat when a chunk spans segments), and
the replay buffer re-appends the same batch it popped.

``len`` and truthiness count records; :meth:`view` reads every queued
record as one batch without dequeuing (the forensics window).
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.columnar import RecordBatch

__all__ = ["RecordDeque"]


class RecordDeque:
    """A FIFO of records stored as batch segments; records leave it
    only as batches (:meth:`popn`, :meth:`drain`, :meth:`view`)."""

    __slots__ = ("_segs", "_len")

    def __init__(self) -> None:
        self._segs: Deque[RecordBatch] = deque()
        self._len = 0

    def extend(self, batch: RecordBatch) -> None:
        """Enqueue a whole batch as one segment (no per-record work)."""
        if len(batch):
            self._segs.append(batch)
            self._len += len(batch)

    def popn(self, n: int) -> RecordBatch:
        """Dequeue up to ``n`` records from the front as one batch.

        A zero-copy view when the chunk lives inside one segment, a
        concat when it spans several.
        """
        parts = []
        got = 0
        while got < n and self._segs:
            seg = self._segs[0]
            take = min(n - got, len(seg))
            if take == len(seg):
                parts.append(self._segs.popleft())
            else:
                parts.append(seg.slice(0, take))
                self._segs[0] = seg.slice(take, len(seg))
            got += take
        self._len -= got
        return RecordBatch.concat(parts)

    def drain(self) -> RecordBatch:
        """Dequeue everything (the restart-replay path)."""
        return self.popn(self._len)

    def view(self) -> RecordBatch:
        """Every queued record as one batch, left in the queue."""
        return RecordBatch.concat(self._segs)

    def clear(self) -> None:
        self._segs.clear()
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0
