"""Knobs of the resilient-ingestion layer."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ResilienceConfig:
    """Configuration of :func:`repro.resilience.sanitize_batch`.

    ``skew_window_seconds`` bounds the reorder buffer: records arriving
    out of time order are held and re-sorted as long as they are no older
    than the newest timestamp seen minus this window; older stragglers
    are quarantined.  Production syslog relays routinely deliver
    multi-second skew, so the default is generous.  It also bounds
    dedupe: a repeat carries its original's timestamp, so one that
    arrives further behind than this window is quarantined as late.

    ``gap_threshold_seconds`` is the silence span after which the stream
    emits a synthetic sensor-silent marker record (see
    :data:`GAP_MARKER_LOCATION`); the outlier layer then sees the silence
    as an event signal instead of nothing at all.

    ``clock_jump_seconds`` flags forward timestamp jumps larger than this
    as clock anomalies (NTP step, daemon restart with a cold clock).

    ``max_rate_per_second`` is the backpressure budget; ``0`` disables
    sampling.  Within each run of consecutive records in one
    ``rate_window_seconds`` bucket the first ``budget`` records pass
    untouched; beyond that only every
    ``overflow_stride``-th record is admitted — deterministic, so reruns
    are reproducible — except records at SEVERE or above, which always
    pass (losing failure evidence to load shedding would defeat the
    pipeline's purpose).

    ``dead_letter_cap`` bounds the late records handed back as dead
    letters; the newest are kept.  ``strict`` turns a late straggler
    into a raised ``ValueError`` instead of a drop.
    """

    skew_window_seconds: float = 120.0
    gap_threshold_seconds: float = 900.0
    clock_jump_seconds: float = 3600.0
    max_rate_per_second: float = 0.0
    rate_window_seconds: float = 10.0
    overflow_stride: int = 10
    dead_letter_cap: int = 256
    emit_gap_markers: bool = True
    deduplicate: bool = True
    strict: bool = False
