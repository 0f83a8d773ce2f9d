"""Fleet chaos matrix: tenant isolation and supervision policy proofs.

Run with ``pytest -m fleet_chaos``.  The proofs the PR rides on:

* **Isolation** — kill one tenant's shard mid-stream; every *other*
  tenant's predictions must be byte-identical to an undisturbed fleet
  run, and the victim must recover from its checkpoint to byte-identical
  output too (which makes "recall within 0.05" exact, not approximate).
* **Policy** — a flapping shard walks the exponential backoff ladder,
  is quarantined at ``flap_threshold`` crashes (never a hot restart
  loop), its queue is fenced to the dead-letter ring, the
  ``fleet.shard_quarantined`` metric and the ``fleet_quarantine`` SLO
  fire, and an operator ``reinstate`` brings it back.

Everything runs on a :class:`ManualClock` with the seeded backoff RNG,
so the same kill schedule always replays the same supervision timeline.
"""

import json

import pytest

from repro import obs
from repro.columnar import RecordBatch
from repro.fleet import (
    Fleet,
    FleetPolicy,
    ManualClock,
    RestartBackoff,
    ShardState,
    rack_subtree_key,
)

pytestmark = pytest.mark.fleet_chaos

CHAOS_SEED = 20120407


def pred_json(predictions):
    return json.dumps([p.to_dict() for p in predictions])


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.reset()


def build_fleet(fitted_elsa, small_scenario, tmp_path, name, **kw):
    key = rack_subtree_key(depth=2)
    test = small_scenario.test_records
    tenants = sorted({key(r.location) for r in test})
    policy = kw.pop("policy", FleetPolicy(jitter_seed=CHAOS_SEED))
    fleet = Fleet.build(
        fitted_elsa, tenants, small_scenario.train_end,
        small_scenario.t_end, key, tmp_path / name,
        policy=policy, clock=ManualClock(), register=False, **kw,
    )
    return fleet, tenants, test


class TestKillIsolation:
    def test_kill_one_shard_leaves_every_tenant_byte_identical(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        """The headline chaos proof, 16 tenants, one mid-stream kill."""
        baseline, tenants, test = build_fleet(
            fitted_elsa, small_scenario, tmp_path, "base"
        )
        assert len(tenants) >= 16
        base_out = baseline.run(test)

        fleet, _, _ = build_fleet(
            fitted_elsa, small_scenario, tmp_path, "chaos"
        )
        victim = tenants[3]
        fleet.kill(victim, after_records=700)
        out = fleet.run(test)

        state = fleet.state()
        assert state["shards"][victim]["crashes"] == 1
        assert state["shards"][victim]["restarts"] == 1
        for tenant in tenants:
            # survivors untouched AND the victim recovered exactly —
            # checkpoint + unacked replay, so recall is not merely
            # "within 0.05" of the undisturbed run, it is equal
            assert pred_json(out[tenant]) == pred_json(base_out[tenant]), (
                tenant
            )
        # the crash/restart cycle is visible to operators
        kinds = [e["kind"] for e in fleet.supervisor.events]
        assert kinds.count("crash") == 1
        assert kinds.count("restart") == 1
        assert obs.get_registry().get("fleet.shard_crashes").value == 1.0

    def test_kill_before_first_checkpoint_restarts_from_scratch(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        """A crash that beats the first checkpoint write still recovers:
        the whole delivered prefix is in the replay buffer."""
        baseline, tenants, test = build_fleet(
            fitted_elsa, small_scenario, tmp_path, "base2"
        )
        base_out = baseline.run(test)
        fleet, _, _ = build_fleet(
            fitted_elsa, small_scenario, tmp_path, "chaos2"
        )
        victim = tenants[0]
        fleet.kill(victim, after_records=100)  # < checkpoint_every
        out = fleet.run(test)
        assert fleet.state()["shards"][victim]["restarts"] == 1
        assert pred_json(out[victim]) == pred_json(base_out[victim])

    def test_hang_is_detected_by_heartbeat_and_recovered(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        baseline, tenants, test = build_fleet(
            fitted_elsa, small_scenario, tmp_path, "base3"
        )
        base_out = baseline.run(test)
        policy = FleetPolicy(
            jitter_seed=CHAOS_SEED, heartbeat_timeout_seconds=60.0,
            # out of the way: this test is about the heartbeat watchdog,
            # not the per-step deadline (the hang advances the clock)
            step_deadline_seconds=1e9,
        )
        fleet, _, _ = build_fleet(
            fitted_elsa, small_scenario, tmp_path, "chaos3", policy=policy,
        )
        victim = tenants[5]
        fleet.shards[victim].inject_hang(90.0)  # > heartbeat timeout
        out = fleet.run(test)
        info = fleet.state()["shards"][victim]
        assert info["restarts"] == 1
        kinds = [
            e["kind"] for e in fleet.supervisor.events
            if e["tenant"] == victim
        ]
        assert kinds == ["crash", "restart"]
        crash = [
            e for e in fleet.supervisor.events if e["kind"] == "crash"
        ][0]
        assert "TimeoutError" in crash["detail"]["error"]
        for tenant in tenants:
            assert pred_json(out[tenant]) == pred_json(base_out[tenant])


class TestSupervisionPolicy:
    def test_flapping_shard_walks_backoff_then_quarantines(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        policy = FleetPolicy(jitter_seed=CHAOS_SEED)
        fleet, tenants, test = build_fleet(
            fitted_elsa, small_scenario, tmp_path, "flap", policy=policy,
        )
        victim = tenants[2]
        fleet.shards[victim].inject_poison()
        out = fleet.run(test)

        events = [
            e for e in fleet.supervisor.events if e["tenant"] == victim
        ]
        kinds = [e["kind"] for e in events]
        # crash -> restart alternate up the ladder; the flap_threshold'th
        # crash becomes a "quarantine" event instead of scheduling
        # restart #5 — never a hot restart loop
        assert kinds == (
            ["crash", "restart"] * (policy.flap_threshold - 1)
            + ["quarantine"]
        )
        assert fleet.shards[victim].crashes == policy.flap_threshold

        # the restart delays replay the seeded exponential ladder exactly
        delays = [
            e["detail"]["restart_in_seconds"] for e in events
            if e["kind"] == "crash"
        ]
        expect = RestartBackoff(policy, victim)
        for i, d in enumerate(delays):
            assert d == pytest.approx(expect.next_delay(), abs=1e-3)
        for a, b in zip(delays, delays[1:]):
            assert b > a * 1.5  # exponential, not linear

        shard = fleet.shards[victim]
        assert shard.state is ShardState.QUARANTINED
        assert out[victim] is not None  # sealed, possibly empty
        reg = obs.get_registry()
        assert reg.get("fleet.shard_quarantined").value == 1.0
        assert reg.get("fleet.quarantined_shards").value == 1.0
        assert reg.get("fleet.dead_letters").value > 0
        # fenced traffic is preserved (bounded) for the operator
        assert fleet.router.stats["dead_lettered"] > 0
        assert fleet.router.info()["dead_letter_depth"] <= (
            policy.dead_letter_cap
        )
        # siblings never noticed
        for tenant in tenants:
            if tenant != victim:
                assert fleet.state()["shards"][tenant]["crashes"] == 0

    def test_quarantine_fires_the_slo_alert(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        fleet, tenants, test = build_fleet(
            fitted_elsa, small_scenario, tmp_path, "slo",
            history=obs.get_history(), slo_engine=obs.get_slo_engine(),
        )
        fleet._install_slos()
        victim = tenants[2]
        fleet.shards[victim].inject_poison()
        fleet.run(test)
        engine = obs.get_slo_engine()
        history = obs.get_history()
        # the gauge is stuck at 1; march the evaluation clock through
        # the fast then slow windows to burn pending -> firing
        t = fleet.stream_time
        for dt in (0.0, 400.0, 2200.0):
            history.sample(t + dt)
            engine.evaluate(history, t + dt)
        states = {
            s["name"]: s["state"] for s in engine.alerts()["slos"]
        }
        assert states["fleet_quarantine"] == "firing"
        assert "fleet_quarantine" in engine.firing()

    def test_reinstate_brings_a_quarantined_tenant_back(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        fleet, tenants, test = build_fleet(
            fitted_elsa, small_scenario, tmp_path, "reinstate"
        )
        victim = tenants[1]
        fleet.shards[victim].inject_poison()
        fleet.route_batch(RecordBatch.from_records(test))
        fleet.drain()
        assert fleet.shards[victim].state is ShardState.QUARANTINED
        with pytest.raises(ValueError):
            fleet.reinstate(tenants[0])  # healthy: not reinstatable
        fleet.shards[victim].heal()  # chaos off before the operator acts
        fleet.reinstate(victim)
        assert fleet.shards[victim].state is ShardState.RUNNING
        assert obs.get_registry().get(
            "fleet.quarantined_shards"
        ).value == 0.0
        kinds = [e["kind"] for e in fleet.supervisor.events]
        assert "reinstate" in kinds

    def test_restart_rate_slo_is_installed(self, fitted_elsa,
                                           small_scenario, tmp_path):
        fleet, tenants, _ = build_fleet(
            fitted_elsa, small_scenario, tmp_path, "specs",
            history=obs.get_history(), slo_engine=obs.get_slo_engine(),
        )
        fleet._install_slos()
        names = {s.name for s in obs.get_slo_engine().specs}
        assert {"fleet_restart_rate", "fleet_quarantine",
                "fleet_feed_p99"} <= names
        # per-tenant burn alerts for every (<=16) tenant
        for tenant in tenants[:16]:
            assert f"fleet_feed_p99_{tenant}" in names
