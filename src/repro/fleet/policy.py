"""Fleet policy: the supervision knobs, restart backoff, manual clock.

Every timing decision the fleet makes — how long a crashed shard waits
before its next restart, when repeated crashing counts as flapping, how
stale a heartbeat may go — is a :class:`FleetPolicy` field, so chaos
tests can compress hours of supervision into a deterministic
:class:`ManualClock` run and production keeps conservative defaults.

The restart backoff is exponential with *seeded* jitter
(:class:`RestartBackoff`): jitter decorrelates a thundering herd of
restarts after a correlated failure, and seeding it per tenant keeps
the chaos matrix byte-reproducible — the same kill schedule always
yields the same restart schedule.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

__all__ = ["FleetPolicy", "ManualClock", "RestartBackoff"]


@dataclass
class FleetPolicy:
    """Tuning for the router, shards, and supervisor.

    Parameters
    ----------
    queue_capacity:
        Records a tenant queue holds before load shedding engages
        (severe records still get in past the cap).
    chunk_records:
        Records a shard feeds per pump step — the fairness quantum.
    checkpoint_every:
        Records between a shard's checkpoint writes (its crash-replay
        window; also the bound on the unacked replay buffer).
    pump_interval_records:
        Routed records between pump passes while ingesting.
    step_deadline_seconds:
        A single shard step taking longer than this is treated as a
        hang: the shard is crashed and restarted from its checkpoint.
    heartbeat_timeout_seconds:
        A RUNNING shard with queued work but no successful step for
        this long is declared hung.
    backoff_initial_seconds, backoff_factor, backoff_max_seconds:
        Exponential restart backoff: crash *k* waits
        ``min(initial * factor**k, max)`` plus jitter.
    backoff_jitter:
        Jitter fraction: up to ``jitter * delay`` extra, drawn from the
        tenant's seeded RNG.
    flap_window_seconds, flap_threshold:
        ``flap_threshold`` crashes inside ``flap_window_seconds``
        quarantines the shard instead of scheduling another restart.
    overflow_stride:
        Backpressure sampling on a full queue: every Nth non-severe
        overflow record is still admitted (the rate-limit rule of
        :func:`~repro.resilience.stream.sanitize_batch`).
    dead_letter_cap:
        Bounded dead-letter ring shared by the whole fleet.
    idle_advance_seconds:
        How far :meth:`Fleet.drain` nudges a :class:`ManualClock` (or
        sleeps, on a real clock) when every runnable shard is waiting
        out a backoff.
    jitter_seed:
        Base seed for the per-tenant backoff RNGs.
    """

    queue_capacity: int = 8192
    chunk_records: int = 512
    checkpoint_every: int = 2048
    pump_interval_records: int = 1024
    step_deadline_seconds: float = 30.0
    heartbeat_timeout_seconds: float = 120.0
    backoff_initial_seconds: float = 0.5
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 60.0
    backoff_jitter: float = 0.1
    flap_window_seconds: float = 300.0
    flap_threshold: int = 5
    overflow_stride: int = 16
    dead_letter_cap: int = 1024
    idle_advance_seconds: float = 0.05
    jitter_seed: int = 20120407

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.chunk_records < 1:
            raise ValueError("chunk_records must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.pump_interval_records < 1:
            raise ValueError("pump_interval_records must be >= 1")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")
        if self.flap_threshold < 2:
            raise ValueError("flap_threshold must be >= 2")
        if self.overflow_stride < 1:
            raise ValueError("overflow_stride must be >= 1")


class RestartBackoff:
    """Per-tenant exponential backoff with seeded, decorrelated jitter.

    ``delay(k) = min(initial * factor**k, max) * (1 + U[0, jitter))``
    where ``U`` comes from an RNG seeded by ``(jitter_seed, tenant)`` —
    deterministic per tenant, different across tenants, so simultaneous
    crashes do not restart in lockstep but tests still replay exactly.
    """

    def __init__(self, policy: FleetPolicy, tenant: str) -> None:
        self.policy = policy
        self.tenant = tenant
        self._rng = random.Random(
            policy.jitter_seed ^ zlib.crc32(tenant.encode("utf-8"))
        )
        self.attempt = 0

    def next_delay(self) -> float:
        """The wait before the next restart; advances the attempt count."""
        p = self.policy
        base = min(
            p.backoff_max_seconds,
            p.backoff_initial_seconds * p.backoff_factor ** self.attempt,
        )
        self.attempt += 1
        return base * (1.0 + p.backoff_jitter * self._rng.random())

    def reset(self) -> None:
        """Back to the initial delay (after a stable recovery)."""
        self.attempt = 0


class ManualClock:
    """A callable monotonic clock tests advance by hand.

    Drop-in for ``time.monotonic`` anywhere the fleet takes a ``clock``
    parameter; :meth:`advance` is the hook chaos tests (and
    ``Fleet.drain`` on an idle fleet) use to move supervision time
    without sleeping.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new now."""
        if seconds < 0:
            raise ValueError("clocks only move forward")
        self.now += float(seconds)
        return self.now
