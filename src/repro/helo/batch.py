"""Batch parser/tokenizer: raw text lines → :class:`RecordBatch`.

This is the columnar front door: one pass over the lines builds the
timestamp/location/severity arrays *and* each record's raw token tuple
(:func:`~repro.helo.tokenizer.raw_tokens`, cached on
``batch.token_lists`` so template classification never re-splits a
message; tuples, not lists, so the collector stops tracing them — the
batch keeps one per record for the whole pass).  Semantics are exactly
those of
:func:`repro.simulation.trace.parse_log_line` +
:func:`~repro.simulation.trace.read_log`:

- blank (whitespace-only) lines are skipped silently;
- malformed lines — a non-finite timestamp included — raise
  ``ValueError("malformed log line: ...")`` unless ``lenient=True``, in
  which case they are skipped and counted once on the shared
  ``ingest.malformed_lines`` obs counter;
- severity parsing accepts names, aliases, and numeric ladder values
  (memoized per distinct raw token — real logs carry a handful).

In lenient mode timestamps are decoded in one vectorized
``np.asarray(..., float64)`` pass (numpy's string parser agrees with
Python ``float()`` on every accepted form; a per-row fallback re-parses
only when the bulk pass rejects the column, so a malformed timestamp
never takes its neighbours down), then rows with a non-finite
timestamp are dropped.  Strict mode parses per row so the *first*
malformed line raises, exactly like the scalar reader.

``tests/test_columnar.py`` holds the line-level equivalence property:
for any input, ``parse_lines_batch(lines).to_records()`` equals
``[parse_log_line(l) for l in lines]`` modulo the skipped lines.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple

import numpy as np

from repro.columnar import RecordBatch
from repro.helo.tokenizer import raw_tokens
from repro.simulation.trace import Severity, parse_timestamp

__all__ = ["parse_lines_batch", "read_log_batch"]

#: bound on the raw-severity-token memo; distinct tokens past this are
#: still parsed correctly, just not cached
_SEV_CACHE_MAX = 1024


def parse_lines_batch(
    lines: Iterable[str], lenient: bool = False
) -> RecordBatch:
    """Parse text log lines into one :class:`RecordBatch`.

    Mirrors ``[parse_log_line(line) for line in lines]`` byte-for-byte
    (see module docstring for the blank/malformed policy), but builds
    the columnar arrays directly and caches each message's
    :func:`~repro.helo.tokenizer.raw_tokens` tuple for the classifier.
    """
    ts_strs: List[str] = []
    lid_list: List[int] = []
    sev_list: List[int] = []
    msgs: List[str] = []
    toks: List[Tuple[str, ...]] = []
    pool: List[str] = []
    loc_index: dict = {}
    sev_cache: dict = {}
    ts_append = ts_strs.append
    lid_append = lid_list.append
    sev_append = sev_list.append
    msg_append = msgs.append
    tok_append = toks.append
    loc_get = loc_index.get
    sev_get = sev_cache.get
    pool_append = pool.append
    skipped = 0
    for raw in lines:
        line = raw.rstrip("\n")
        if not line or line.isspace():
            continue
        parts = line.split(" ", 3)
        if len(parts) != 4:
            if lenient:
                skipped += 1
                continue
            raise ValueError(f"malformed log line: {line!r}")
        ts_s, loc, sev_s, msg = parts
        sev = sev_get(sev_s)
        if sev is None:
            try:
                sev = int(Severity.parse(sev_s))
            except ValueError:
                if lenient:
                    skipped += 1
                    continue
                raise ValueError(f"malformed log line: {line!r}") from None
            if len(sev_cache) < _SEV_CACHE_MAX:
                sev_cache[sev_s] = sev
        if not lenient:
            # strict mode decodes per row so the *first* bad line raises
            try:
                parse_timestamp(ts_s)
            except ValueError:
                raise ValueError(f"malformed log line: {line!r}") from None
        lid = loc_get(loc)
        if lid is None:
            lid = len(pool)
            loc_index[loc] = lid
            pool_append(loc)
        ts_append(ts_s)
        lid_append(lid)
        sev_append(sev)
        msg_append(msg)
        tok_append(raw_tokens(msg))
    try:
        timestamps = np.asarray(ts_strs, dtype=np.float64)
    except ValueError:
        # one bad string rejects the whole bulk pass: decode per row,
        # rejects as nan, so the finiteness check drops just those rows
        timestamps = np.array(
            [_float_or_nan(t) for t in ts_strs], dtype=np.float64
        )
    bad = ~np.isfinite(timestamps)
    if bad.any():
        # lenient mode only: strict mode raised on the row already
        keep = np.flatnonzero(~bad).tolist()
        timestamps = timestamps[keep]
        lid_list = [lid_list[i] for i in keep]
        sev_list = [sev_list[i] for i in keep]
        msgs = [msgs[i] for i in keep]
        toks = [toks[i] for i in keep]
        skipped += int(bad.sum())
    if skipped:
        from repro import obs

        obs.counter("ingest.malformed_lines").inc(skipped)
    return RecordBatch(
        timestamps,
        np.asarray(lid_list, dtype=np.int32),
        np.asarray(sev_list, dtype=np.int8),
        msgs,
        pool,
        loc_index=loc_index,
        token_lists=toks,
    )


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def read_log_batch(fh, lenient: bool = False) -> RecordBatch:
    """Columnar counterpart of :func:`repro.simulation.trace.read_log`."""
    return parse_lines_batch(fh, lenient=lenient)
