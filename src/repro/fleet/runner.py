"""The fleet: shared-nothing multi-tenant serving with one pump loop.

A :class:`Fleet` ties the pieces together: the
:class:`~repro.fleet.router.IngestionRouter` keys and queues incoming
records, a deterministic round-robin pump gives every RUNNING shard a
``chunk_records`` quantum per pass, and the
:class:`~repro.fleet.supervisor.ShardSupervisor` runs between passes —
due restarts, heartbeat checks, step-deadline watchdog.  Everything is
single-threaded and clock-injectable on purpose: the byte-identity
contract (a tenant's predictions match a standalone run on its
sub-stream, crashes included) only survives if scheduling cannot
reorder a tenant's own records, and chaos tests only stay debuggable
if time is a parameter.

Fleet health is observable three ways, all fed from here: per-tenant
``fleet.*`` labeled metrics, the ``fleet`` section of ``/state`` plus
the ``/fleet`` endpoint (the process-wide *active fleet*), and
:func:`fleet_slos` — burn-rate objectives on restart rate, quarantine
count, and per-tenant feed p99 over the labeled history series.
"""

from __future__ import annotations

import copy
import os
import re
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro import obs
from repro.columnar import RecordBatch
from repro.fleet.policy import FleetPolicy
from repro.fleet.router import IngestionRouter, partition_faults
from repro.fleet.shard import Shard, ShardState
from repro.fleet.supervisor import ShardSupervisor
from repro.obs.history import MetricHistory
from repro.obs.slo import SLOSpec, _fresh_state

__all__ = [
    "Fleet",
    "fleet_slos",
    "get_active_fleet",
    "set_active_fleet",
]

log = obs.get_logger(__name__)

#: per-tenant SLOs are only generated up to this many tenants — beyond
#: it (e.g. the 100-tenant smoke) the aggregate series carry the SLO;
#: per-tenant *metrics* still exist (the fleet raises the label-set cap
#: to cover its tenant count), there is just no alert per tenant
MAX_TENANT_SLOS = 16

_SAFE = re.compile(r"[^A-Za-z0-9_.-]+")


def fleet_slos(tenants: Optional[Sequence[str]] = None) -> List[SLOSpec]:
    """Burn-rate objectives for a running fleet.

    Aggregate specs always; per-tenant feed-p99 specs (over the labeled
    history series ``fleet.feed_seconds{tenant="..."}``) when the
    tenant list is small enough to alert on individually.
    """
    specs = [
        SLOSpec(
            name="fleet_restart_rate",
            description="shard restarts stay rare fleet-wide",
            metric="fleet.shard_restarts",
            mode="delta_max",
            threshold=4.0,
            fast_window=1800.0,
            slow_window=10800.0,
            runbook="runbook-fleet-restart-rate",
        ),
        SLOSpec(
            name="fleet_quarantine",
            description="no shard parked in quarantine",
            metric="fleet.quarantined_shards",
            mode="gauge_max",
            threshold=0.0,
            fast_window=300.0,
            slow_window=1800.0,
            runbook="runbook-fleet-quarantine",
        ),
        SLOSpec(
            name="fleet_feed_p99",
            description="fleet-wide p99 shard feed latency under 250ms",
            metric="fleet.feed_seconds",
            mode="quantile_max",
            threshold=0.25,
            q=0.99,
            fast_window=300.0,
            slow_window=1800.0,
            runbook="runbook-fleet-feed-latency",
        ),
    ]
    for tenant in list(tenants or [])[:MAX_TENANT_SLOS]:
        series = MetricHistory.series_name(
            "fleet.feed_seconds", {"tenant": tenant}
        )
        specs.append(SLOSpec(
            name=f"fleet_feed_p99_{tenant}",
            description=f"tenant {tenant} p99 feed latency under 250ms",
            metric=series,
            mode="quantile_max",
            threshold=0.25,
            q=0.99,
            fast_window=300.0,
            slow_window=1800.0,
            runbook="runbook-fleet-feed-latency",
        ))
    return specs


_active_fleet: Optional["Fleet"] = None


def get_active_fleet() -> Optional["Fleet"]:
    """The process-wide fleet the ``/fleet`` endpoint reports on."""
    return _active_fleet


def set_active_fleet(fleet: Optional["Fleet"]) -> None:
    """Install (or clear, with None) the active fleet."""
    global _active_fleet
    _active_fleet = fleet


class Fleet:
    """A supervised shard pool over one multiplexed record stream.

    Build one with :meth:`build` (deep-copies the fitted ELSA per
    tenant), then :meth:`run` the stream — or drive
    :meth:`route_batch`/:meth:`pump`/:meth:`drain`/:meth:`finish`
    yourself (the chaos tests do, to interleave kills with pumping).
    """

    def __init__(
        self,
        shards: Dict[str, Shard],
        key: Callable[[str], str],
        policy: Optional[FleetPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        history=None,
        slo_engine=None,
        register: bool = True,
    ) -> None:
        if not shards:
            raise ValueError("a fleet needs at least one shard")
        self.shards = shards
        self.policy = policy or FleetPolicy()
        self.clock = clock
        self.router = IngestionRouter(shards, key, self.policy)
        self.supervisor = ShardSupervisor(
            shards, self.router, self.policy, clock,
            annotate=self._annotate,
        )
        self.history = history if history is not None else obs.get_history()
        self.slo = (
            slo_engine if slo_engine is not None else obs.get_slo_engine()
        )
        self.stream_time: Optional[float] = None
        self._routed = 0
        # per-tenant labeled series (feed_seconds, records_fed, ...)
        # must not collapse into the overflow child on large fleets
        obs.metrics.ensure_label_capacity(2 * len(shards) + 16)
        self._install_slos()
        self._forensics_bound = False
        if register:
            set_active_fleet(self)
            obs.register_state_section("fleet", self.state)
            self.bind_forensics()

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        elsa,
        tenants: Sequence[str],
        t_start: float,
        t_end: float,
        key: Callable[[str], str],
        checkpoint_dir: os.PathLike,
        policy: Optional[FleetPolicy] = None,
        faults: Sequence = (),
        self_heal: bool = False,
        clock: Callable[[], float] = time.monotonic,
        resume: bool = False,
        **kwargs,
    ) -> "Fleet":
        """One shard per tenant, each on a deep copy of ``elsa``.

        Shared-nothing is not an optimization here, it is correctness:
        online classification mutates the HELO template table, so two
        tenants on one ELSA would couple their outputs.  Ground-truth
        ``faults`` are partitioned per tenant by their first location.
        With ``resume=True`` every shard adopts its existing checkpoint
        in ``checkpoint_dir`` (a drained ingest server restarting).
        """
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
        by_tenant = partition_faults(faults, key)
        shards = {}
        for tenant in tenants:
            safe = _SAFE.sub("_", tenant)
            shards[tenant] = Shard(
                tenant,
                copy.deepcopy(elsa),
                t_start,
                t_end,
                policy=policy,
                checkpoint_path=checkpoint_dir / f"{safe}.ckpt.json",
                faults=by_tenant.get(tenant, []),
                self_heal=self_heal,
                store_dir=(
                    checkpoint_dir / f"{safe}.models" if self_heal else None
                ),
                clock=clock,
                resume=resume,
            )
        return cls(shards, key, policy=policy, clock=clock, **kwargs)

    def _install_slos(self) -> None:
        if self.slo is None:
            return
        have = {spec.name for spec in self.slo.specs}
        for spec in fleet_slos(sorted(self.shards)):
            if spec.name not in have:
                self.slo.specs.append(spec)
                self.slo._state.setdefault(spec.name, _fresh_state())

    # -- driving -------------------------------------------------------------

    def route_batch(self, batch) -> dict:
        """Route a :class:`RecordBatch`; returns ``{verdict: count}``.

        The batch is sliced (zero-copy) on the pump cadence: a pump
        lands exactly every ``pump_interval_records`` routed records,
        wherever batch boundaries fall, so shard scheduling — and
        therefore every tenant's output — does not depend on how the
        stream was cut into batches.
        """
        totals = {"accepted": 0, "rejected": 0, "shed": 0,
                  "dead-letter": 0}
        step = self.policy.pump_interval_records
        i, n = 0, len(batch)
        while i < n:
            take = min(n - i, step - self._routed % step)
            part = batch[i : i + take]
            for verdict, c in self.router.route_batch(part).items():
                totals[verdict] += c
            self.stream_time = float(part.timestamps[-1])
            self._routed += take
            if self._routed % step == 0:
                self.pump()
            i += take
        return totals

    def pump(self) -> int:
        """One supervision tick + one round-robin quantum per shard."""
        self.supervisor.tick()
        fed = 0
        for shard in self.shards.values():
            if shard.state is not ShardState.RUNNING or not shard.queue:
                continue
            t0 = self.clock()
            try:
                fed += shard.step()
            except Exception as exc:
                self.supervisor.report_crash(shard, exc)
                continue
            self.supervisor.check_deadline(shard, self.clock() - t0)
        self._observe()
        return fed

    def drain(self, max_passes: int = 1_000_000) -> None:
        """Pump until no shard has work and no restart is pending.

        Quarantined shards do not count as pending (their queues are
        fenced); a fleet where every shard is parked drains instantly.
        When the only thing left is a backoff timer, time is nudged
        forward — ``advance`` on a manual clock, a short sleep on a
        real one — instead of spinning.
        """
        for _ in range(max_passes):
            fed = self.pump()
            pending = any(
                s.state is ShardState.RUNNING and s.queue
                for s in self.shards.values()
            )
            waiting = any(
                s.state is ShardState.BACKOFF
                for s in self.shards.values()
            )
            if not pending and not waiting:
                return
            if not fed and waiting and not pending:
                advance = getattr(self.clock, "advance", None)
                if advance is not None:
                    advance(self.policy.idle_advance_seconds)
                else:
                    time.sleep(self.policy.idle_advance_seconds)
        raise RuntimeError("fleet drain did not converge")

    def checkpoint_all(self) -> int:
        """Force-checkpoint every unsealed shard; returns how many wrote.

        The graceful-drain step: after :meth:`drain` empties the queues
        this persists every tenant's cursor so a restarted server
        (``Fleet.build(..., resume=True)``) continues byte-identically.
        """
        return sum(
            1 for shard in self.shards.values() if shard.force_checkpoint()
        )

    def queue_headroom(self) -> float:
        """Free queue fraction across the fleet, 0.0 (saturated) – 1.0.

        Feeds the ingest admission controller's token refill rate, so
        admission slows as the pump falls behind.
        """
        capacity = self.policy.queue_capacity * max(1, len(self.shards))
        depth = sum(len(s.queue) for s in self.shards.values())
        return max(0.0, min(1.0, 1.0 - depth / capacity))

    def finish(self) -> Dict[str, list]:
        """Seal every shard; returns tenant → sorted predictions."""
        out = {
            tenant: shard.finish()
            for tenant, shard in self.shards.items()
        }
        self._observe(force=True)
        return out

    def run(self, records: Union[RecordBatch, Sequence]) -> Dict[str, list]:
        """Route the whole stream, drain, finish — the one-call path.

        A record list is columnarized once.
        """
        with obs.span("fleet", tenants=len(self.shards)) as sp:
            if not isinstance(records, RecordBatch):
                records = RecordBatch.from_records(records)
            self.route_batch(records)
            self.drain()
            out = self.finish()
            sp["records"] = self._routed
            sp["predictions"] = sum(len(p) for p in out.values())
        return out

    # -- chaos / operator hooks ----------------------------------------------

    def kill(self, tenant: str, after_records: Optional[int] = None) -> None:
        """Chaos: crash a shard now, or once its cursor crosses a point."""
        shard = self.shards[tenant]
        if after_records is None:
            after_records = shard.records_fed
        shard.inject_kill(after_records)

    def reinstate(self, tenant: str) -> None:
        """Operator: bring a quarantined tenant back."""
        self.supervisor.reinstate(tenant)

    # -- observation ---------------------------------------------------------

    def _annotate(self, kind: str, detail: dict) -> None:
        # supervision events land on the *stream* clock so they sit
        # next to the metric samples they explain
        if self.history is not None and self.stream_time is not None:
            self.history.annotate(kind, self.stream_time, detail)

    def _observe(self, force: bool = False) -> None:
        by_state: Dict[str, int] = {}
        depth_total = 0
        for shard in self.shards.values():
            by_state[shard.state.value] = (
                by_state.get(shard.state.value, 0) + 1
            )
            depth_total += len(shard.queue)
            obs.gauge("fleet.queue_depth").labels(
                tenant=shard.tenant
            ).set(float(len(shard.queue)))
        obs.gauge("fleet.queue_depth_total").set(float(depth_total))
        obs.gauge("fleet.shards_running").set(
            float(by_state.get("running", 0))
        )
        obs.gauge("fleet.quarantined_shards").set(
            float(by_state.get("quarantined", 0))
        )
        if self.history is None or self.stream_time is None:
            return
        if force or self.history.due(self.stream_time):
            self.history.sample(self.stream_time)
            if self.slo is not None:
                self.slo.evaluate(self.history, self.stream_time)

    def state(self) -> dict:
        """The ``/fleet`` document (also the ``fleet`` /state section)."""
        return {
            "active": True,
            "tenants": len(self.shards),
            "stream_time": self.stream_time,
            "records_routed": self._routed,
            "shards": {
                tenant: shard.info()
                for tenant, shard in sorted(self.shards.items())
            },
            "router": self.router.info(),
            "supervision": self.supervisor.info(),
        }

    def bind_forensics(self, directory: Optional[os.PathLike] = None,
                       retention: Optional[int] = None) -> None:
        """Wire the incident manager's evidence sources to this fleet.

        With ``directory`` the manager is also armed, so SLO firings
        and supervisor quarantine/restart events freeze bundles there.
        """
        manager = obs.get_incident_manager()
        manager.bind_fleet(self)
        self._forensics_bound = True
        if directory is not None:
            manager.arm(directory, retention=retention)

    def close(self) -> None:
        """Deregister from the process-wide observation points."""
        if get_active_fleet() is self:
            set_active_fleet(None)
        obs.unregister_state_section("fleet")
        if self._forensics_bound:
            obs.get_incident_manager().unbind()
            self._forensics_bound = False
