"""Seeded stream perturbators: the fault-injection half of resilience.

Each perturbation is a deterministic (seeded) transformation over a
record iterator, modelling one real-world ingestion pathology:

* :class:`DropRecords` — lossy transport (UDP syslog, full buffers);
* :class:`DuplicateRecords` — at-least-once relays replaying batches;
* :class:`ReorderRecords` — multi-path delivery scrambling arrival order
  without touching timestamps;
* :class:`ClockSkew` — an NTP step moving every subsequent timestamp;
* :class:`Burst` — a log storm replaying a time window's records many
  times over;
* :class:`TemplateChurn` — a software upgrade rewriting message
  templates mid-stream (the drift the self-healing loop must survive);
* :class:`CorruptLines` — line-level damage (truncation, garbage bytes)
  applied to the *serialized* form.

Perturbations compose with :func:`perturb`; all honour their seed, so a
chaos test matrix is exactly reproducible.  The harness exists to prove
one property: the pipeline behind
:func:`~repro.resilience.sanitize_batch` never raises and degrades
gracefully under every one of these, alone or combined.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Iterator, List, Sequence

import numpy as np

from repro.simulation.trace import LogRecord


class Perturbation:
    """Base: a seeded transformation of a record stream."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def rng(self) -> np.random.Generator:
        """A fresh generator — every application is identical."""
        return np.random.default_rng(self.seed)

    def apply(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        raise NotImplementedError


class DropRecords(Perturbation):
    """Drop each record independently with probability ``rate``."""

    def __init__(self, rate: float = 0.01, seed: int = 0) -> None:
        super().__init__(seed)
        self.rate = float(rate)

    def apply(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        rng = self.rng()
        for rec in records:
            if rng.random() >= self.rate:
                yield rec


class DuplicateRecords(Perturbation):
    """Emit each record twice with probability ``rate`` (replay)."""

    def __init__(self, rate: float = 0.05, seed: int = 0) -> None:
        super().__init__(seed)
        self.rate = float(rate)

    def apply(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        rng = self.rng()
        for rec in records:
            yield rec
            if rng.random() < self.rate:
                yield rec


class ReorderRecords(Perturbation):
    """Scramble arrival order within ``max_shift_seconds`` of skew.

    Timestamps are untouched — only the *sequence* changes, exactly what
    a multi-path relay does.  Each record is assigned a perturbed sort
    key ``timestamp + U(0, max_shift)`` and the stream is re-emitted in
    key order, bounding displacement by the shift window.
    """

    def __init__(
        self, max_shift_seconds: float = 60.0, seed: int = 0
    ) -> None:
        super().__init__(seed)
        self.max_shift_seconds = float(max_shift_seconds)

    def apply(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        rng = self.rng()
        keyed = [
            (rec.timestamp + rng.uniform(0.0, self.max_shift_seconds), i, rec)
            for i, rec in enumerate(records)
        ]
        keyed.sort(key=lambda t: (t[0], t[1]))
        for _, _, rec in keyed:
            yield rec


class ClockSkew(Perturbation):
    """Step every timestamp from ``at_fraction`` of the stream onward.

    Models an NTP correction: records after the step carry timestamps
    offset by ``offset_seconds`` (positive = forward jump).
    """

    def __init__(
        self,
        offset_seconds: float = 3600.0,
        at_fraction: float = 0.5,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        self.offset_seconds = float(offset_seconds)
        self.at_fraction = float(at_fraction)

    def apply(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        all_records = list(records)
        cut = int(len(all_records) * self.at_fraction)
        for i, rec in enumerate(all_records):
            if i >= cut:
                rec = replace(rec, timestamp=rec.timestamp + self.offset_seconds)
            yield rec


class Burst(Perturbation):
    """Replay a time window's records ``factor`` times (log storm).

    The storm covers ``duration_fraction`` of the stream's span starting
    at ``at_fraction``; every record inside it is emitted ``factor``
    times back to back — the repetition pattern of a looping error.
    """

    def __init__(
        self,
        factor: int = 10,
        at_fraction: float = 0.5,
        duration_fraction: float = 0.02,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        self.factor = int(factor)
        self.at_fraction = float(at_fraction)
        self.duration_fraction = float(duration_fraction)

    def apply(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        all_records = list(records)
        if not all_records:
            return
        t0 = all_records[0].timestamp
        t1 = all_records[-1].timestamp
        start = t0 + (t1 - t0) * self.at_fraction
        end = start + (t1 - t0) * self.duration_fraction
        for rec in all_records:
            if start <= rec.timestamp < end:
                for _ in range(self.factor):
                    yield rec
            else:
                yield rec


class TemplateChurn(Perturbation):
    """Rewrite message templates from ``at_fraction`` of the stream on.

    Models a software upgrade changing log formats mid-stream — the
    paper's "phase shifts in behavior".  Every record after the cut has
    its message prefixed (``"v2: "`` by default), which changes the
    token count, so the online HELO classifier cannot generalize the
    old templates onto the new shapes: it mints *new* template ids for
    them, the deployed model's anchors go silent, and a frozen-model
    run loses recall while the tracked-rate drift signal fires.  The
    self-healing chaos scenario is built on exactly this perturbation.

    ``match`` optionally restricts the rewrite to messages containing
    that substring (churn only part of the template set).
    """

    def __init__(
        self,
        at_fraction: float = 0.5,
        prefix: str = "v2: ",
        match: str = "",
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        self.at_fraction = float(at_fraction)
        self.prefix = str(prefix)
        self.match = str(match)

    def apply(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        all_records = list(records)
        cut = int(len(all_records) * self.at_fraction)
        for i, rec in enumerate(all_records):
            if i >= cut and (not self.match or self.match in rec.message):
                rec = replace(rec, message=self.prefix + rec.message)
            yield rec


class CorruptLines(Perturbation):
    """Line-level damage over serialized records.

    Unlike the record-level perturbations this one operates on text:
    :meth:`apply_lines` corrupts each line independently with
    probability ``rate``, either truncating it mid-field or overwriting
    it with garbage — the two shapes a torn write or partial flush
    produces.  :meth:`apply` serializes records first, so it composes
    with the others in a line-based harness.
    """

    GARBAGE = "\x00\x01garbage \xff byte salad ###"

    def __init__(self, rate: float = 0.01, seed: int = 0) -> None:
        super().__init__(seed)
        self.rate = float(rate)

    def apply_lines(self, lines: Iterable[str]) -> Iterator[str]:
        rng = self.rng()
        for line in lines:
            if rng.random() < self.rate:
                if rng.random() < 0.5 and len(line) > 4:
                    cut = int(rng.integers(1, max(2, len(line) // 2)))
                    yield line[:cut]
                else:
                    yield self.GARBAGE
            else:
                yield line

    def apply(self, records: Iterable[LogRecord]) -> Iterator[str]:
        return self.apply_lines(rec.format_line() for rec in records)


def perturb(
    records: Sequence[LogRecord], *perturbations: Perturbation
) -> List[LogRecord]:
    """Apply record-level perturbations in order; returns a list.

    ``CorruptLines`` changes the element type to ``str`` and therefore
    must not appear here — use :func:`perturb_lines` for text-level
    harnesses.
    """
    stream: Iterable[LogRecord] = records
    for p in perturbations:
        if isinstance(p, CorruptLines):
            raise TypeError("CorruptLines operates on lines; use perturb_lines")
        stream = p.apply(stream)
    return list(stream)


def perturb_lines(
    records: Sequence[LogRecord], *perturbations: Perturbation
) -> List[str]:
    """Apply perturbations, serializing to text lines at the end.

    Record-level perturbations run first (in order); a trailing
    ``CorruptLines`` (optional) then damages the serialized lines.
    """
    line_stage = None
    record_stages: List[Perturbation] = []
    for p in perturbations:
        if isinstance(p, CorruptLines):
            line_stage = p
        else:
            record_stages.append(p)
    stream = perturb(records, *record_stages)
    lines = [rec.format_line() for rec in stream]
    if line_stage is not None:
        lines = list(line_stage.apply_lines(lines))
    return lines
