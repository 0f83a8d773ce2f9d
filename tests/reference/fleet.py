"""Record-at-a-time shard admission: the oracle of ``Shard.offer_batch``."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.simulation.trace import LogRecord, Severity


def offer_records(
    records: Sequence[LogRecord],
    t_start: float,
    t_end: float,
    queue_len: int,
    capacity: int,
    stride: int,
    overflow: int,
) -> Tuple[List[str], int]:
    """Admit records one at a time; ``(verdicts, overflow)``.

    A record outside ``[t_start, t_end)`` is rejected.  Otherwise it is
    queued while the queue holds fewer than ``capacity`` records; past
    that, SEVERE and above are still queued, and each other record
    counts toward ``overflow`` and is queued only on every
    ``stride``-th count — the rest are shed.
    """
    verdicts = []
    for rec in records:
        if not t_start <= rec.timestamp < t_end:
            verdicts.append("rejected")
            continue
        if queue_len >= capacity and rec.severity < Severity.SEVERE:
            overflow += 1
            if overflow % stride != 0:
                verdicts.append("shed")
                continue
        queue_len += 1
        verdicts.append("accepted")
    return verdicts, overflow
