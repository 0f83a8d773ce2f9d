"""Parser for the public Blue Gene/L RAS log format.

The paper's Blue Gene/L logs are "available on-line at [24]" — the
USENIX Computer Failure Data Repository; the same trace circulates today
via the LogHub collection as ``BGL.log``.  Its space-separated layout::

    <alert> <epoch> <date> <node> <datetime> <node> <type> <component> \
        <severity> <message ...>

for example::

    - 1117838570 2005.06.03 R02-M1-N0-C:J12-U11 2005-06-03-15.42.50.363779 \
        R02-M1-N0-C:J12-U11 RAS KERNEL INFO instruction cache parity \
        error corrected

``alert`` is ``-`` for non-alert messages or an alert category tag
(``KERNMC``, ``APPREAD``, …) for operator-flagged events.  This module
converts such lines into :class:`repro.simulation.trace.LogRecord`
streams the pipeline consumes directly, so anyone holding the real
dataset can reproduce the paper's analysis on it with no further glue.

Severity mapping: the raw log uses INFO / WARNING / SEVERE / ERROR /
FAILURE / FATAL; ERROR maps to SEVERE and FATAL to FAILURE, matching how
the paper buckets severities for the predictive-chain filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TextIO

from repro.simulation.trace import LogRecord, Severity, parse_timestamp

#: raw-log severity token → our ladder
SEVERITY_MAP = {
    "INFO": Severity.INFO,
    "WARNING": Severity.WARNING,
    "SEVERE": Severity.SEVERE,
    "ERROR": Severity.SEVERE,
    "FAILURE": Severity.FAILURE,
    "FATAL": Severity.FAILURE,
}


@dataclass(frozen=True)
class BGLLine:
    """One parsed RAS line, with the raw-log extras kept."""

    alert_tag: Optional[str]
    epoch: float
    location: str
    event_type_name: str      # "<component> <severity-raw>" context tag
    severity: Severity
    message: str

    @property
    def is_alert(self) -> bool:
        """Was the line flagged by operators as an alert?"""
        return self.alert_tag is not None


def parse_bgl_line(line: str, lenient: bool = False) -> Optional[BGLLine]:
    """Parse one raw RAS line; returns ``None`` for blank lines.

    Raises ``ValueError`` on structurally malformed lines (fewer than the
    nine fixed fields, or an epoch that is not a finite number); with
    ``lenient=True`` malformed lines return
    ``None`` instead — the same strict/lenient contract as
    :func:`repro.simulation.trace.read_log`.  Unknown severity tokens
    degrade to ``INFO`` rather than failing — real dumps contain a
    handful of oddities.
    """
    line = line.rstrip("\n")
    if not line.strip():
        return None
    parts = line.split(" ", 9)
    if len(parts) < 10:
        if lenient:
            return None
        raise ValueError(f"malformed BGL RAS line: {line[:80]!r}")
    alert, epoch_s, _date, node, _dt, _node2, _rtype, comp, sev_raw, msg = parts
    try:
        epoch = parse_timestamp(epoch_s)
    except ValueError as exc:
        if lenient:
            return None
        raise ValueError(f"bad epoch in BGL line: {epoch_s!r}") from exc
    severity = SEVERITY_MAP.get(sev_raw.upper(), Severity.INFO)
    return BGLLine(
        alert_tag=None if alert == "-" else alert,
        epoch=epoch,
        location=node,
        event_type_name=f"{comp} {sev_raw}",
        severity=severity,
        message=msg,
    )


def read_bgl_log(
    fh: TextIO,
    t_origin: Optional[float] = None,
    skip_malformed: bool = True,
) -> List[LogRecord]:
    """Read a whole RAS log into pipeline-ready records.

    Timestamps are re-based to ``t_origin`` (default: the first line's
    epoch) so scenario time starts at zero like the synthetic substrate.
    With ``skip_malformed`` (the default) broken lines are skipped and
    counted on the ``ingest.malformed_lines`` obs counter — multi-gigabyte
    RAS dumps always contain a few — otherwise they raise.
    """
    from repro import obs

    records: List[LogRecord] = []
    origin = t_origin
    skipped = 0
    for raw in fh:
        try:
            parsed = parse_bgl_line(raw)
        except ValueError:
            if skip_malformed:
                skipped += 1
                continue
            raise
        if parsed is None:
            continue
        if origin is None:
            origin = parsed.epoch
        records.append(
            LogRecord(
                timestamp=parsed.epoch - origin,
                location=parsed.location,
                severity=parsed.severity,
                message=parsed.message,
            )
        )
    if skipped:
        obs.counter("ingest.malformed_lines").inc(skipped)
    records.sort(key=lambda r: r.timestamp)
    return records


def read_bgl_alerts(
    fh: TextIO, t_origin: Optional[float] = None
) -> List[BGLLine]:
    """Only the operator-flagged alert lines (the failure labels).

    The paper scores predictions against FAILURE-severity events; on the
    raw dataset the alert tags are the standard ground-truth labels, so
    this helper extracts them for evaluation.
    """
    alerts: List[BGLLine] = []
    origin = t_origin
    for raw in fh:
        try:
            parsed = parse_bgl_line(raw)
        except ValueError:
            continue
        if parsed is None or not parsed.is_alert:
            continue
        if origin is None:
            origin = parsed.epoch
        alerts.append(parsed)
    return alerts
