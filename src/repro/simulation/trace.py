"""Log record and ground-truth data model.

Every component of the analysis pipeline consumes only the four public
fields of :class:`LogRecord` (timestamp, location, severity, message),
mirroring what the paper's ELSA toolkit reads from raw system logs.  The
``event_type`` field carries the generating template id purely as ground
truth for evaluating the HELO template miner; production analysis code
must not read it.

Timestamps are seconds since the scenario epoch (floats).  Locations are
strings in the machine's location-code syntax (see
:mod:`repro.simulation.topology`).
"""

from __future__ import annotations

import enum
import io
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple


class Severity(enum.IntEnum):
    """Message severity ladder used by Blue Gene-style logs.

    The paper relies on the Blue Gene/L severity field to decide whether an
    event type can indicate a failure in at least one context (section
    IV.A); chains whose members are all ``INFO`` are discarded as
    non-predictive.
    """

    INFO = 0
    WARNING = 1
    SEVERE = 2
    FAILURE = 3

    @classmethod
    def parse(cls, text: str) -> "Severity":
        """Parse a severity token, case-insensitively.

        Accepts the canonical names, the numeric ladder values real BG/L
        dumps sometimes carry (``"2"`` → SEVERE), and the common aliases
        seen in the wild (``FATAL``/``FAIL`` → FAILURE, ``WARN`` →
        WARNING, ``ERROR``/``ERR`` → SEVERE).
        """
        token = text.strip().upper()
        try:
            return cls[token]
        except KeyError:
            pass
        alias = _SEVERITY_ALIASES.get(token)
        if alias is not None:
            return alias
        try:
            value = int(token)
        except ValueError:
            raise ValueError(f"unknown severity {text!r}") from None
        try:
            return cls(value)
        except ValueError:
            raise ValueError(f"severity level out of range: {text!r}") from None


#: aliases used by real dumps and other RAS formats → our ladder
_SEVERITY_ALIASES = {
    "WARN": Severity.WARNING,
    "ERROR": Severity.SEVERE,
    "ERR": Severity.SEVERE,
    "FATAL": Severity.FAILURE,
    "FAIL": Severity.FAILURE,
}


@dataclass(frozen=True, order=True)
class LogRecord:
    """One log line: what the system wrote, where, when, how severe.

    Ordering is by timestamp first, which makes record streams sortable
    and mergeable with :func:`heapq.merge`.
    """

    timestamp: float
    location: str = field(compare=False)
    severity: Severity = field(compare=False)
    message: str = field(compare=False)
    #: Ground-truth template id (hidden channel for evaluation only).
    event_type: Optional[int] = field(default=None, compare=False)
    #: Ground-truth fault id if this record is part of a fault syndrome.
    fault_id: Optional[int] = field(default=None, compare=False)

    def format_line(self) -> str:
        """Render as a CFDR-ish text log line."""
        return (
            f"{self.timestamp:.3f} {self.location} "
            f"{self.severity.name} {self.message}"
        )


@dataclass(frozen=True)
class FaultEvent:
    """Ground truth for one injected fault instance.

    ``onset_time`` is when the first symptom is emitted; ``fail_time`` is
    when the fatal (FAILURE severity) record lands, i.e. the moment a
    perfect predictor would have to beat.  ``locations`` is the set of
    node-level locations affected by the failure (used to score
    location-aware predictions, section V).
    """

    fault_id: int
    fault_type: str
    category: str
    onset_time: float
    fail_time: float
    locations: Tuple[str, ...]

    @property
    def lead_time(self) -> float:
        """Ground-truth gap between first symptom and failure (seconds)."""
        return self.fail_time - self.onset_time


@dataclass
class GroundTruth:
    """All injected faults of a generated scenario, sorted by onset."""

    faults: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.faults.sort(key=lambda f: f.onset_time)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def in_window(self, start: float, end: float) -> List[FaultEvent]:
        """Faults whose *failure* lands inside ``[start, end)``."""
        return [f for f in self.faults if start <= f.fail_time < end]

    def by_category(self) -> dict:
        """Group faults by high-level category (memory, nodecard, ...)."""
        out: dict = {}
        for f in self.faults:
            out.setdefault(f.category, []).append(f)
        return out


def write_log(records: Iterable[LogRecord], fh: io.TextIOBase) -> int:
    """Serialize records as text lines; returns the number written.

    The format is one record per line::

        <timestamp> <location> <SEVERITY> <free-form message>
    """
    n = 0
    for rec in records:
        fh.write(rec.format_line())
        fh.write("\n")
        n += 1
    return n


def parse_timestamp(value) -> float:
    """``float(value)``, rejecting ``inf`` and ``nan`` with ``ValueError``.

    One non-finite timestamp poisons every later time comparison — an
    ``inf`` makes everything after it late, a ``nan`` turns late
    detection off — so every decoder treats it as malformed.
    """
    t = float(value)
    if not math.isfinite(t):
        raise ValueError(f"non-finite timestamp {value!r}")
    return t


def parse_log_line(line: str) -> Optional[LogRecord]:
    """Parse one text-format line written by :func:`write_log`.

    Returns ``None`` for blank lines; raises ``ValueError`` on malformed
    ones, a non-finite timestamp included.  This is the strict
    primitive — :func:`read_log` with ``lenient=True`` skips and counts
    malformed lines instead.
    """
    line = line.rstrip("\n")
    if not line.strip():
        return None
    try:
        ts_s, loc, sev_s, msg = line.split(" ", 3)
        return LogRecord(
            timestamp=parse_timestamp(ts_s),
            location=loc,
            severity=Severity.parse(sev_s),
            message=msg,
        )
    except ValueError as exc:
        raise ValueError(f"malformed log line: {line!r}") from exc


def read_log(fh: io.TextIOBase, lenient: bool = False) -> List[LogRecord]:
    """Parse records previously written by :func:`write_log`.

    Ground-truth side channels (``event_type``/``fault_id``) are *not*
    round-tripped: a parsed log looks exactly like what a real system
    would hand the pipeline.

    ``lenient`` mirrors :func:`repro.simulation.bgl_format.read_bgl_log`:
    malformed lines are skipped and counted on the shared
    ``ingest.malformed_lines`` obs counter instead of raising — never
    dropped invisibly.
    """
    from repro import obs

    records: List[LogRecord] = []
    skipped = 0
    for line in fh:
        try:
            rec = parse_log_line(line)
        except ValueError:
            if not lenient:
                raise
            skipped += 1
            continue
        if rec is not None:
            records.append(rec)
    if skipped:
        obs.counter("ingest.malformed_lines").inc(skipped)
    return records


def merge_streams(*streams: Sequence[LogRecord]) -> List[LogRecord]:
    """Merge several time-sorted record streams into one sorted list."""
    out: List[LogRecord] = []
    for s in streams:
        out.extend(s)
    out.sort(key=lambda r: r.timestamp)
    return out
