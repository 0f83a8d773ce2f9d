"""Hardened ingestion: :func:`sanitize_batch`.

Production HPC logs are hostile: relays deliver records out of order,
daemons replay buffers after reconnects (duplicates), nodes go silent
without a trace, clocks step, and bursts exceed any fixed analysis
budget.  The pipeline's analysis layers assume a clean, time-sorted,
well-formed stream; this module is the boundary that makes that
assumption true — and makes every repair *visible* through
``resilience.*`` obs metrics, so degraded operation is never silent.

Malformed lines never reach it: the lenient readers
(:func:`repro.helo.batch.parse_lines_batch`,
:func:`repro.simulation.trace.read_log`) skip them and count them on
``ingest.malformed_lines``.  The stages, in arrival order per record:

1. **late** — stragglers older than the watermark (newest timestamp
   seen minus the skew window) are quarantined
   (``resilience.dropped_late``);
2. **dedupe** — exact repeats (same timestamp, location, severity,
   message) collapse to one (``resilience.deduplicated``); the record
   then advances the watermark, whatever the next stage decides;
3. **backpressure** — when input rate exceeds the configured budget,
   deterministic sampling sheds low-severity overflow
   (``resilience.sampled_out``);
4. **reorder** — records are released in timestamp order, re-sorting
   bounded skew (``resilience.reordered``);
5. **gap/clock sentinels** — silences longer than the gap threshold emit
   a synthetic ``sensor-silent`` marker record the template miner turns
   into an ordinary event type, so the outlier detector can *see* the
   silence (``resilience.gaps_detected``, ``resilience.clock_jumps``).

``tests/reference/sanitize.py`` holds the record-at-a-time form of the
same stages; the equivalence suite in ``tests/test_columnar.py``
compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.helo.tokenizer import raw_tokens
from repro.resilience.config import ResilienceConfig
from repro.simulation.trace import Severity

#: location code attached to synthetic stream-health marker records
GAP_MARKER_LOCATION = "stream-monitor"

#: message of the synthetic sensor-silent marker (template-stable: the
#: tokenizer wildcards the numbers, so every marker maps to one template)
GAP_MARKER_MESSAGE = "sensor silent gap of {gap:.0f} seconds detected"

#: statistic keys that indicate degraded (lossy or repaired) operation;
#: ``quarantined`` stays for readers of the stats dict — malformed lines
#: are counted by the readers, so sanitizing never sets it
_DEGRADED_KEYS = (
    "quarantined",
    "deduplicated",
    "sampled_out",
    "dropped_late",
    "reordered",
    "gaps_detected",
    "clock_jumps",
)


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined input with the reason it was rejected."""

    reason: str
    payload: str


def sanitize_batch(
    batch,
    config: Optional[ResilienceConfig] = None,
    dead_letters: Optional[List[DeadLetter]] = None,
):
    """Sanitize a :class:`~repro.columnar.RecordBatch` in array passes.

    Every stage of the module docstring is an array operation:

    - **late quarantine**: a record is a dropped straggler iff it is
      older than the *running maximum* timestamp minus the skew window;
      the running max is an exclusive ``np.maximum.accumulate``.
    - **dedupe**: the dedupe key includes the timestamp, so duplicates
      can only hide among rows whose timestamp repeats — ``np.unique``
      narrows the candidate set and a set scan settles only those rows.
      "Seen anywhere earlier" is exact, not an approximation, and needs
      no window of its own: a repeat carries its original's timestamp,
      so one that trails the newest record by more than the skew window
      is older than the watermark and was quarantined as late first.
    - **backpressure** (:func:`_rate_shed`): a per-bucket cumulative
      count over the surviving rows.
    - **reorder**: one stable argsort by timestamp (ties keep arrival
      order).
    - **gap/clock sentinels**: ``np.diff`` over the sorted output finds
      silences; markers are built row-wise (there are few) and merged
      with ``np.insert``.

    Returns ``(clean_batch, stats)``.  ``stats`` counts ``records_in``,
    ``records_out``, ``markers_emitted`` and every degraded key.
    ``dead_letters``, when given, takes the late records' payloads (the
    last ``dead_letter_cap`` of them).  ``strict`` raises on the first
    (arrival-order) straggler instead.
    """
    cfg = config or ResilienceConfig()
    n = len(batch)
    stats: Dict[str, int] = {
        "records_in": n,
        "records_out": 0,
        "markers_emitted": 0,
    }
    for key in _DEGRADED_KEYS:
        stats[key] = 0
    if n == 0:
        _flush_batch_metrics(stats, 0)
        return batch, stats

    ts = batch.timestamps
    cm = np.maximum.accumulate(ts)
    prev = np.empty(n, dtype=np.float64)
    prev[0] = -np.inf
    prev[1:] = cm[:-1]
    late = ts < prev - cfg.skew_window_seconds
    keep = ~late
    if late.any():
        late_idx = np.flatnonzero(late)
        if cfg.strict:
            line = batch.record(int(late_idx[0])).format_line()
            raise ValueError(f"strict ingestion: late: {line[:120]!r}")
        stats["dropped_late"] = int(late_idx.size)
        if dead_letters is not None:
            cap = max(0, cfg.dead_letter_cap)
            for i in late_idx[-cap:].tolist() if cap else []:
                dead_letters.append(
                    DeadLetter(
                        reason="late",
                        payload=batch.record(i).format_line(),
                    )
                )
    stats["reordered"] = int((keep & (ts < prev)).sum())
    if n > 1:
        stats["clock_jumps"] = int(
            (ts[1:] - cm[:-1] > cfg.clock_jump_seconds).sum()
        )

    if cfg.deduplicate:
        kept_idx = np.flatnonzero(keep)
        _, inv, counts = np.unique(
            ts[kept_idx], return_inverse=True, return_counts=True
        )
        cand = kept_idx[counts[inv] > 1]
        if cand.size:
            lids = batch.loc_ids
            sevs = batch.severities
            msgs = batch.messages
            seen = set()
            n_dup = 0
            for i in cand.tolist():
                key = (ts[i], int(lids[i]), int(sevs[i]), msgs[i])
                if key in seen:
                    keep[i] = False
                    n_dup += 1
                else:
                    seen.add(key)
            stats["deduplicated"] = n_dup

    kept_idx = np.flatnonzero(keep)
    if cfg.max_rate_per_second > 0:
        shed = _rate_shed(ts[kept_idx], batch.severities[kept_idx], cfg)
        stats["sampled_out"] = int(shed.sum())
        kept_idx = kept_idx[~shed]
    order = kept_idx[np.argsort(ts[kept_idx], kind="stable")]
    out = batch.take(order)
    stats["records_out"] = int(order.size)

    if cfg.emit_gap_markers and len(out) > 1:
        ots = out.timestamps
        gaps = np.flatnonzero(np.diff(ots) > cfg.gap_threshold_seconds) + 1
        if gaps.size:
            stats["gaps_detected"] = int(gaps.size)
            stats["markers_emitted"] = int(gaps.size)
            out = _insert_gap_markers(out, gaps, cfg)

    _flush_batch_metrics(
        stats,
        min(stats["dropped_late"], max(0, cfg.dead_letter_cap)),
    )
    return out, stats


def _rate_shed(
    ts: np.ndarray, sevs: np.ndarray, cfg: ResilienceConfig
) -> np.ndarray:
    """Backpressure: which of these rows (arrival order) are shed.

    Consecutive rows in the same ``rate_window_seconds`` bucket form a
    group.  Within a group the first ``max_rate_per_second ×
    rate_window_seconds`` rows pass, SEVERE and above always pass, and
    of the remaining rows every ``overflow_stride``-th passes.
    """
    n = ts.size
    rows = np.arange(n)
    bucket = np.trunc(ts / cfg.rate_window_seconds)
    first = np.ones(n, dtype=bool)
    first[1:] = bucket[1:] != bucket[:-1]
    group_start = np.maximum.accumulate(np.where(first, rows, 0))
    budget = cfg.max_rate_per_second * cfg.rate_window_seconds
    overflow = (rows - group_start >= budget) & (
        sevs < int(Severity.SEVERE)
    )
    seen = np.cumsum(overflow)
    nth = seen - (seen - overflow)[group_start]
    return overflow & (nth % cfg.overflow_stride != 0)


def _insert_gap_markers(out, gaps, cfg: ResilienceConfig):
    """Merge synthetic sensor-silent rows into a sorted clean batch.

    ``gaps`` indexes the records that *revealed* each silence; the
    marker lands where the silence became provable (previous record
    plus the gap threshold), which keeps the merged batch sorted.
    """
    from repro.columnar import RecordBatch

    ots = out.timestamps
    mts = ots[gaps - 1] + cfg.gap_threshold_seconds
    mloc = out.intern(GAP_MARKER_LOCATION)
    new_ts = np.insert(ots, gaps, mts)
    new_lids = np.insert(out.loc_ids, gaps, np.int32(mloc))
    new_sevs = np.insert(out.severities, gaps, np.int8(int(Severity.WARNING)))
    msgs = out.messages
    toks = out.token_lists
    new_msgs: List[str] = []
    new_toks: Optional[list] = None if toks is None else []
    prev_end = 0
    for g in gaps.tolist():
        gap = float(ots[g] - ots[g - 1])
        msg = GAP_MARKER_MESSAGE.format(gap=gap)
        new_msgs.extend(msgs[prev_end:g])
        new_msgs.append(msg)
        if new_toks is not None:
            new_toks.extend(toks[prev_end:g])
            new_toks.append(raw_tokens(msg))
        prev_end = g
    new_msgs.extend(msgs[prev_end:])
    if new_toks is not None:
        new_toks.extend(toks[prev_end:])
    return RecordBatch(
        new_ts,
        new_lids,
        new_sevs,
        new_msgs,
        out.loc_pool,
        loc_index=out._loc_index,
        token_lists=new_toks,
    )


def _flush_batch_metrics(stats: Dict[str, int], dead_letter_size: int) -> None:
    """Push one call's stats into the obs registry."""
    for key, value in stats.items():
        if value:
            obs.counter(f"resilience.{key}").inc(value)
    obs.gauge("resilience.dead_letter_size").set(dead_letter_size)
    obs.gauge("resilience.degraded").set(
        1.0 if any(stats[k] for k in _DEGRADED_KEYS) else 0.0
    )
