"""The shard supervisor: crash/hang detection, backoff restarts, quarantine.

Supervision follows the classic one-for-one restart tree, tuned for the
fleet's failure modes:

* **Crash** — a shard step raised.  The supervisor schedules a restart
  ``backoff.next_delay()`` in the future (exponential, seeded jitter)
  and the shard sits in BACKOFF; siblings never notice.
* **Hang** — a step blew the span deadline, or a RUNNING shard with
  queued work has not heartbeated within ``heartbeat_timeout_seconds``.
  Hangs are crashes with worse manners: same restart path, after the
  hypothetical stuck worker is abandoned (single-threaded here, so
  "abandoning" is just discarding the run and resuming the checkpoint).
* **Flapping** — ``flap_threshold`` crashes inside
  ``flap_window_seconds``.  Restarting harder will not fix a shard that
  crashes deterministically, so the supervisor *quarantines* it: parks
  the run on the degradation ladder's most degraded rung, fences its
  queue to the dead-letter ring, emits ``fleet.shard_quarantined``, and
  waits for an operator :meth:`reinstate` — never a hot restart loop.

Every decision lands in a bounded event log (the ``/fleet`` endpoint's
``events`` section) and in ``fleet.*`` metrics.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.fleet.policy import FleetPolicy, RestartBackoff
from repro.fleet.router import IngestionRouter
from repro.fleet.shard import Shard, ShardState

__all__ = ["ShardSupervisor"]

log = obs.get_logger(__name__)

#: bounded audit trail of supervision decisions
MAX_EVENTS = 256


class ShardSupervisor:
    """One-for-one supervision over a shard map.

    The supervisor never raises out of :meth:`tick` or
    :meth:`report_crash` — a supervisor that dies of the fault it is
    supervising defeats the point; a restart that itself crashes is
    just another crash report.
    """

    def __init__(
        self,
        shards: Dict[str, Shard],
        router: IngestionRouter,
        policy: Optional[FleetPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        annotate: Optional[Callable[[str, dict], None]] = None,
    ) -> None:
        self.shards = shards
        self.router = router
        self.policy = policy or FleetPolicy()
        self.clock = clock
        #: optional (kind, detail) hook into the metric history, wired
        #: by the Fleet so annotations carry the *stream* clock
        self.annotate = annotate
        self._backoffs = {
            t: RestartBackoff(self.policy, t) for t in shards
        }
        self._crash_times: Dict[str, deque] = {
            t: deque(maxlen=max(32, self.policy.flap_threshold + 1))
            for t in shards
        }
        self.events: deque = deque(maxlen=MAX_EVENTS)

    # -- crash intake --------------------------------------------------------

    def report_crash(self, shard: Shard, exc: BaseException,
                     now: Optional[float] = None) -> None:
        """A shard step (or restart) failed; decide restart vs park."""
        now = self.clock() if now is None else float(now)
        tenant = shard.tenant
        obs.counter("fleet.shard_crashes").inc()
        obs.counter("fleet.shard_crashes").labels(tenant=tenant).inc()
        times = self._crash_times[tenant]
        recent = [
            t for t in times if now - t <= self.policy.flap_window_seconds
        ]
        if not recent:
            # every prior crash aged out: this is a fresh incident,
            # not an escalation — start the backoff ladder over
            self._backoffs[tenant].reset()
        times.append(now)
        if len(recent) + 1 >= self.policy.flap_threshold:
            self._quarantine(shard, exc, now)
            return
        delay = self._backoffs[tenant].next_delay()
        shard.mark_crashed(exc, restart_at=now + delay)
        self._event(now, tenant, "crash", {
            "error": f"{type(exc).__name__}: {exc}",
            "restart_in_seconds": round(delay, 3),
            "attempt": self._backoffs[tenant].attempt,
        })
        log.warning(
            "shard crashed; restart scheduled",
            extra=obs.logging.kv(
                tenant=tenant, delay=round(delay, 3),
                attempt=self._backoffs[tenant].attempt,
            ),
        )

    def _quarantine(self, shard: Shard, exc: BaseException,
                    now: float) -> None:
        tenant = shard.tenant
        shard.mark_crashed(exc, restart_at=None)
        # park on the most degraded rung: the shard keeps whatever
        # rate-baseline service its sealed predictor already earned,
        # but stops burning restarts on a deterministic fault
        ladder = getattr(shard.run, "ladder", None)
        if ladder is not None:
            from repro.lifecycle.ladder import Rung

            ladder.restore(int(Rung.RATE_BASELINE))
        fenced = shard.fence()
        self.router.dead_letter_batch(fenced, "fenced", tenant)
        obs.counter("fleet.shard_quarantined").inc()
        obs.counter("fleet.shard_quarantined").labels(tenant=tenant).inc()
        obs.gauge("fleet.quarantined_shards").set(float(sum(
            1 for s in self.shards.values()
            if s.state is ShardState.QUARANTINED
        )))
        self._event(now, tenant, "quarantine", {
            "error": f"{type(exc).__name__}: {exc}",
            "crashes_in_window": len(self._crash_times[tenant]),
            "fenced_records": len(fenced),
        })
        log.error(
            "shard quarantined after flapping",
            extra=obs.logging.kv(
                tenant=tenant, crashes=shard.crashes,
                fenced=len(fenced),
            ),
        )

    # -- periodic supervision ------------------------------------------------

    def tick(self, now: Optional[float] = None) -> List[str]:
        """One supervision pass; returns tenants restarted this pass."""
        now = self.clock() if now is None else float(now)
        restarted = []
        for tenant, shard in self.shards.items():
            if (
                shard.state is ShardState.BACKOFF
                and shard.restart_at is not None
                and now >= shard.restart_at
            ):
                try:
                    with obs.span("shard.restart", transient=True):
                        shard.restart(now)
                except Exception as exc:
                    # a restart that crashes is one more crash report
                    self.report_crash(shard, exc, now=self.clock())
                    continue
                obs.counter("fleet.shard_restarts").inc()
                obs.counter("fleet.shard_restarts").labels(
                    tenant=tenant
                ).inc()
                restarted.append(tenant)
                self._event(now, tenant, "restart", {
                    "cursor": shard.records_fed,
                    "restarts": shard.restarts,
                })
            elif (
                shard.state is ShardState.RUNNING
                and shard.queue
                and now - shard.last_beat
                > self.policy.heartbeat_timeout_seconds
            ):
                self.report_crash(
                    shard,
                    TimeoutError(
                        f"no heartbeat for "
                        f"{now - shard.last_beat:.1f}s with queued work"
                    ),
                    now=now,
                )
        return restarted

    def check_deadline(self, shard: Shard, elapsed: float) -> bool:
        """Span-deadline watchdog: treat a too-long step as a hang."""
        if elapsed <= self.policy.step_deadline_seconds:
            return False
        self.report_crash(
            shard,
            TimeoutError(
                f"step took {elapsed:.1f}s "
                f"(deadline {self.policy.step_deadline_seconds:.1f}s)"
            ),
        )
        return True

    # -- operator actions ----------------------------------------------------

    def reinstate(self, tenant: str, now: Optional[float] = None) -> None:
        """Operator override: bring a quarantined shard back online."""
        now = self.clock() if now is None else float(now)
        shard = self.shards[tenant]
        if shard.state is not ShardState.QUARANTINED:
            raise ValueError(f"shard {tenant!r} is not quarantined")
        self._crash_times[tenant].clear()
        self._backoffs[tenant].reset()
        shard.heal()
        shard.restart(now)
        obs.gauge("fleet.quarantined_shards").set(float(sum(
            1 for s in self.shards.values()
            if s.state is ShardState.QUARANTINED
        )))
        self._event(now, tenant, "reinstate", {})

    # -- reporting -----------------------------------------------------------

    def _event(self, now: float, tenant: str, kind: str,
               detail: dict) -> None:
        event = {
            "t": now, "tenant": tenant, "kind": kind, "detail": detail,
        }
        self.events.append(event)
        if self.annotate is not None:
            self.annotate(f"shard_{kind}", dict(detail, tenant=tenant))
        # forensics subscription: quarantines and restarts freeze an
        # incident bundle (capture never raises back into supervision)
        from repro.obs.forensics import notify_supervisor_event

        notify_supervisor_event(event)

    def info(self) -> dict:
        """The ``/fleet`` supervision section."""
        return {
            "backoff_attempts": {
                t: b.attempt for t, b in self._backoffs.items()
                if b.attempt
            },
            "events": list(self.events)[-32:],
        }
