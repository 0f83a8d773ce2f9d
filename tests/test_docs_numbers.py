"""The numbers ``docs/performance.md`` quotes are the committed ones.

Each row of its "Baseline numbers" table must equal the figure in
``benchmarks/BENCH_streaming.json``, rounded to the decimals the table
writes, so a refreshed benchmark file cannot leave the page behind.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: table row label -> (records/sec, µs/record) paths into the JSON; a
#: row without a µs/record figure there quotes 1e6 / records/sec
ROWS = {
    "pre-PR scalar": (("pre_pr_baseline", "records_per_sec"), None),
    "scalar oracles": (
        ("legacy", "records_per_sec"), ("legacy", "us_per_record"),
    ),
    "fast path": (("fast", "records_per_sec"), ("fast", "us_per_record")),
    "columnar parse→predict": (
        ("columnar", "end_to_end_records_per_sec"),
        ("columnar", "end_to_end_us_per_record"),
    ),
}


def _table():
    """``{label: (records/sec text, µs/record text)}`` of the table."""
    text = (ROOT / "docs" / "performance.md").read_text(encoding="utf-8")
    section = text.split("## Baseline numbers", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip().strip("*") for c in line.strip("|").split("|")]
        if len(cells) == 3 and re.fullmatch(r"[\d,.]+", cells[1]):
            rows[cells[0]] = (cells[1], cells[2])
    return rows


def _decimals(cell):
    return len(cell.split(".")[1]) if "." in cell else 0


def _number(cell):
    return float(cell.replace(",", ""))


def _lookup(data, path):
    for key in path:
        data = data[key]
    return float(data)


def test_baseline_table_quotes_bench_streaming_json():
    data = json.loads(
        (ROOT / "benchmarks" / "BENCH_streaming.json").read_text()
    )
    table = _table()
    assert len(table) == len(ROWS), sorted(table)
    for prefix, (rps_path, us_path) in ROWS.items():
        [label] = [row for row in table if row.startswith(prefix)]
        rps_cell, us_cell = table[label]
        rps = _lookup(data, rps_path)
        us = 1e6 / rps if us_path is None else _lookup(data, us_path)
        assert _number(rps_cell) == round(rps, _decimals(rps_cell)), label
        assert _number(us_cell) == round(us, _decimals(us_cell)), label
