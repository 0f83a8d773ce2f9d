"""Field-by-field NDJSON codec: the oracle of ``repro.fleet.ingest``.

``encode_records`` builds one ``{"t", "loc", "sev", "msg"}`` dict per
record and hands it to ``json.dumps``; ``decode_batch`` converts every
field through ``parse_timestamp``, ``Severity`` and ``str``/``int``.  The product
codec must write the same bytes and accept, reject and word its
errors the same way.
"""

from __future__ import annotations

import json
from typing import List, Optional

import numpy as np

from repro.columnar import RecordBatch
from repro.simulation.trace import Severity, parse_timestamp

_FIELDS = ("t", "loc", "sev", "msg")


def encode_records(records) -> bytes:
    """Records → NDJSON bytes (one compact JSON object per line)."""
    lines = []
    for rec in records:
        row = {
            "t": rec.timestamp,
            "loc": rec.location,
            "sev": int(rec.severity),
            "msg": rec.message,
        }
        lines.append(json.dumps(row, separators=(",", ":")))
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def decode_batch(body: bytes, max_records: Optional[int] = None
                 ) -> RecordBatch:
    """NDJSON bytes → :class:`RecordBatch`; ``ValueError`` if malformed."""
    ts: List[float] = []
    lids: List[int] = []
    sevs: List[int] = []
    msgs: List[str] = []
    pool: List[str] = []
    index: dict = {}
    text = body.decode("utf-8")
    for i, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line:
            continue
        if max_records is not None and len(ts) >= max_records:
            raise ValueError(f"batch exceeds {max_records} records")
        try:
            row = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"line {i + 1}: bad JSON ({exc})") from None
        if not isinstance(row, dict):
            raise ValueError(f"line {i + 1}: expected an object")
        unknown = set(row) - set(_FIELDS)
        if unknown:
            raise ValueError(
                f"line {i + 1}: unknown fields {sorted(unknown)}"
            )
        try:
            t = parse_timestamp(row["t"])
            loc = str(row["loc"])
            sev = int(Severity(int(row["sev"])))
            msg = str(row["msg"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"line {i + 1}: {exc}") from None
        lid = index.get(loc)
        if lid is None:
            lid = len(pool)
            index[loc] = lid
            pool.append(loc)
        ts.append(t)
        lids.append(lid)
        sevs.append(sev)
        msgs.append(msg)
    return RecordBatch(
        np.asarray(ts, dtype=np.float64),
        np.asarray(lids, dtype=np.int32),
        np.asarray(sevs, dtype=np.int8),
        msgs,
        pool,
        loc_index=index,
    )
