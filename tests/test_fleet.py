"""Fleet unit + integration tests (tier-1).

Covers the deterministic pieces of :mod:`repro.fleet` — backoff policy,
tenant keying, queue admission, ack-on-checkpoint — plus one end-to-end
run asserting the headline contract: every tenant's fleet output is
byte-identical to a standalone run over its own sub-stream.  The chaos
matrix (kills, quarantine, hangs) lives in ``test_fleet_chaos.py``
behind the ``fleet_chaos`` marker.
"""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.columnar import RecordBatch
from repro.fleet import (
    Fleet,
    FleetPolicy,
    IngestionRouter,
    ManualClock,
    RestartBackoff,
    Shard,
    ShardState,
    fleet_slos,
    get_active_fleet,
    hashed_tenant_key,
    partition_faults,
    rack_subtree_key,
)
from repro.fleet.runner import MAX_TENANT_SLOS
from repro.obs.history import MetricHistory
from repro.resilience.checkpoint import ResumableRun
from repro.simulation.trace import LogRecord, Severity
from tests.reference.fleet import offer_records


def pred_json(predictions):
    return json.dumps([p.to_dict() for p in predictions])


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.reset()


def rec(t, location="R00-M0-N0-C:J00-U00", severity=Severity.INFO):
    return LogRecord(
        timestamp=float(t), location=location, severity=severity,
        message="m",
    )


def offer(shard, *records):
    """``Shard.offer_batch`` over records; the non-zero verdicts."""
    counts = shard.offer_batch(RecordBatch.from_records(list(records)))
    return {v: c for v, c in counts.items() if c}


def route(router, record):
    """Route a one-record batch; returns its verdict."""
    counts = router.route_batch(RecordBatch.from_records([record]))
    (verdict,) = [v for v, c in counts.items() if c]
    return verdict


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------

class TestPolicy:
    def test_backoff_is_exponential_with_bounded_jitter(self):
        policy = FleetPolicy()
        b = RestartBackoff(policy, "t0")
        delays = [b.next_delay() for _ in range(4)]
        for i, d in enumerate(delays):
            base = policy.backoff_initial_seconds * (
                policy.backoff_factor ** i
            )
            assert base <= d <= base * (1.0 + policy.backoff_jitter)

    def test_backoff_is_deterministic_per_tenant(self):
        policy = FleetPolicy()
        a = [RestartBackoff(policy, "t7").next_delay() for _ in range(1)]
        b = [RestartBackoff(policy, "t7").next_delay() for _ in range(1)]
        assert a == b
        other = RestartBackoff(policy, "t8").next_delay()
        assert other != a[0]

    def test_backoff_caps_and_resets(self):
        policy = FleetPolicy(
            backoff_initial_seconds=1.0, backoff_max_seconds=4.0,
            backoff_jitter=0.0,
        )
        b = RestartBackoff(policy, "t")
        assert [b.next_delay() for _ in range(4)] == [1.0, 2.0, 4.0, 4.0]
        b.reset()
        assert b.next_delay() == 1.0

    def test_manual_clock(self):
        clock = ManualClock(10.0)
        assert clock() == 10.0
        clock.advance(2.5)
        assert clock() == 12.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FleetPolicy(queue_capacity=0)
        with pytest.raises(ValueError):
            FleetPolicy(flap_threshold=1)


# ---------------------------------------------------------------------------
# tenant keying
# ---------------------------------------------------------------------------

class TestKeying:
    def test_rack_subtree_key(self):
        key = rack_subtree_key(depth=2)
        assert key("R05-M0-N3-C:J12-U01") == "R05-M0"
        assert rack_subtree_key(depth=1)("R05-M0-N3") == "R05"
        with pytest.raises(ValueError):
            rack_subtree_key(depth=0)

    def test_hashed_key_is_stable_and_padded(self):
        key = hashed_tenant_key(16)
        assert key("R05-M0-N3") == key("R05-M0-N3")
        assert all(key(f"loc{i}").startswith("t") for i in range(50))
        assert len({key(f"loc{i}") for i in range(500)}) == 16
        wide = hashed_tenant_key(100)
        assert all(len(wide(f"loc{i}")) == 3 for i in range(20))
        with pytest.raises(ValueError):
            hashed_tenant_key(0)

    def test_partition_faults(self, small_scenario):
        key = rack_subtree_key(depth=2)
        parts = partition_faults(small_scenario.ground_truth, key)
        total = sum(len(v) for v in parts.values())
        assert total == sum(
            1 for f in small_scenario.ground_truth if f.locations
        )
        for tenant, faults in parts.items():
            assert all(key(f.locations[0]) == tenant for f in faults)


# ---------------------------------------------------------------------------
# shard admission + ack
# ---------------------------------------------------------------------------

class TestShard:
    def _shard(self, fitted_elsa, small_scenario, tmp_path, **kw):
        import copy

        policy = kw.pop("policy", FleetPolicy())
        return Shard(
            "t0", copy.deepcopy(fitted_elsa),
            small_scenario.train_end, small_scenario.t_end,
            policy=policy,
            checkpoint_path=tmp_path / "t0.ckpt.json",
            clock=ManualClock(),
        )

    def test_offer_rejects_outside_window(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        shard = self._shard(fitted_elsa, small_scenario, tmp_path)
        assert offer(
            shard,
            rec(0.0),
            rec(small_scenario.t_end),
            rec(small_scenario.train_end),
        ) == {"accepted": 1, "rejected": 2}
        assert shard.rejected == 2
        assert shard.queue.view().timestamps.tolist() == [
            small_scenario.train_end
        ]

    def test_overflow_sheds_by_stride_but_admits_severe(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        policy = FleetPolicy(queue_capacity=4, overflow_stride=4)
        shard = self._shard(
            fitted_elsa, small_scenario, tmp_path, policy=policy
        )
        t0 = small_scenario.train_end
        assert offer(shard, *[rec(t0 + i) for i in range(4)]) == {
            "accepted": 4
        }
        # every 4th overflow record is admitted, the rest shed
        assert offer(shard, *[rec(t0 + 10 + i) for i in range(8)]) == {
            "accepted": 2, "shed": 6,
        }
        assert shard.shed == 6
        assert shard.queue.view().timestamps.tolist()[4:] == [
            t0 + 13, t0 + 17
        ]
        # severe records always get through, even past the cap
        assert offer(shard, rec(t0 + 30, severity=Severity.FAILURE)) == {
            "accepted": 1
        }

    def test_ack_clears_replay_buffer_on_checkpoint(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        policy = FleetPolicy(chunk_records=64, checkpoint_every=128)
        shard = self._shard(
            fitted_elsa, small_scenario, tmp_path, policy=policy
        )
        test = small_scenario.test_records[:256]
        offer(shard, *test)
        shard.step()  # 64 fed, no checkpoint yet
        assert len(shard._unacked) == 64
        shard.step()  # 128 fed -> checkpoint -> ack
        assert len(shard._unacked) == 0
        assert shard.checkpoint_path.exists()
        assert shard.records_fed == 128


@st.composite
def _admission_cases(draw):
    """Queue state, policy, and a few batches of in- and out-of-window
    records of every severity."""
    n = draw(st.integers(0, 40))
    where = draw(st.lists(
        st.sampled_from(["in", "in", "in", "before", "after"]),
        min_size=n, max_size=n,
    ))
    sevs = draw(st.lists(
        st.sampled_from(list(Severity)), min_size=n, max_size=n
    ))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=2)))
    return {
        "where": where,
        "sevs": sevs,
        "cuts": [0] + cuts + [n],
        "queue_len": draw(st.integers(0, 12)),
        "capacity": draw(st.integers(1, 10)),
        "stride": draw(st.integers(1, 5)),
        "overflow": draw(st.integers(0, 7)),
    }


@pytest.fixture(scope="module")
def admission_shard(fitted_elsa, small_scenario):
    import copy

    return Shard(
        "t0", copy.deepcopy(fitted_elsa),
        small_scenario.train_end, small_scenario.t_end,
        clock=ManualClock(),
    )


class TestOfferBatch:
    @given(case=_admission_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_record_at_a_time_rule(self, admission_shard, case):
        shard = admission_shard
        t0, t1 = shard.t_start, shard.t_end
        stamp = {"in": t0, "before": t0 - 1.0, "after": t1}
        records = [
            rec(stamp[w] + (i if w == "in" else 0), severity=sev)
            for i, (w, sev) in enumerate(zip(case["where"], case["sevs"]))
        ]
        shard.policy = FleetPolicy(
            queue_capacity=case["capacity"],
            overflow_stride=case["stride"],
        )
        shard.queue.clear()
        shard.queue.extend(
            RecordBatch.from_records([rec(t0)] * case["queue_len"])
        )
        shard._overflow = case["overflow"]
        shard.shed = shard.rejected = 0
        shard.shed_by_severity = {}

        verdicts, overflow = offer_records(
            records, t0, t1, case["queue_len"], case["capacity"],
            case["stride"], case["overflow"],
        )
        cuts = case["cuts"]
        for a, b in zip(cuts, cuts[1:]):
            got = shard.offer_batch(RecordBatch.from_records(records[a:b]))
            want = Counter(verdicts[a:b])
            assert got == {v: want[v] for v in got}
        accepted = [r for r, v in zip(records, verdicts) if v == "accepted"]
        queued = shard.queue.view()[case["queue_len"]:]
        assert queued.to_records() == accepted
        assert shard._overflow == overflow
        shed = [r for r, v in zip(records, verdicts) if v == "shed"]
        assert shard.shed == len(shed)
        assert shard.shed_by_severity == dict(
            Counter(r.severity.name for r in shed)
        )
        assert list(shard.shed_by_severity) == list(
            dict.fromkeys(r.severity.name for r in shed)
        )
        assert shard.rejected == verdicts.count("rejected")


# ---------------------------------------------------------------------------
# router
# ---------------------------------------------------------------------------

class TestRouter:
    def test_unknown_and_fenced_go_to_dead_letter(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        import copy

        policy = FleetPolicy()
        key = rack_subtree_key(depth=1)
        shard = Shard(
            "R00", copy.deepcopy(fitted_elsa),
            small_scenario.train_end, small_scenario.t_end,
            policy=policy, clock=ManualClock(),
        )
        router = IngestionRouter({"R00": shard}, key, policy)
        t0 = small_scenario.train_end
        assert route(router, rec(t0, location="R00-M0-N0")) == "accepted"
        assert route(router, rec(t0, location="R99-M0-N0")) == "dead-letter"
        shard.state = ShardState.QUARANTINED
        assert route(router, rec(t0, location="R00-M0-N1")) == "dead-letter"
        assert router.stats["dead_lettered"] == 2
        assert len(router.dead_letter) == 2
        reasons = {reason for reason, _, _ in router.dead_letter}
        assert reasons == {"unknown-tenant", "fenced"}

    def test_dead_letter_ring_is_bounded(
        self, fitted_elsa, small_scenario
    ):
        """The ring holds at most ``dead_letter_cap`` records over all
        its segments, trimming the oldest rows first."""
        import copy

        policy = FleetPolicy(dead_letter_cap=10)
        shard = Shard(
            "R00", copy.deepcopy(fitted_elsa),
            small_scenario.train_end, small_scenario.t_end,
            policy=policy, clock=ManualClock(),
        )
        router = IngestionRouter(
            {"R00": shard}, rack_subtree_key(1), policy
        )
        t0 = small_scenario.train_end
        for k in range(6):
            router.route_batch(RecordBatch.from_records(
                [rec(t0 + 4 * k + i, location="R9-M") for i in range(4)]
            ))
        assert router.info()["dead_letter_depth"] == 10
        segments = [seg for _, _, seg in router.dead_letter]
        assert [len(seg) for seg in segments] == [2, 4, 4]
        kept = RecordBatch.concat(segments)
        assert kept.timestamps.tolist() == [t0 + i for i in range(14, 24)]
        assert router.stats["dead_lettered"] == 24
        assert obs.counter("fleet.dead_letters").value == 24.0


# ---------------------------------------------------------------------------
# fleet integration
# ---------------------------------------------------------------------------

class TestFleetIntegration:
    def test_tenants_byte_identical_to_standalone(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        """The headline contract, no chaos: fleet == per-tenant runs."""
        helo_state = fitted_elsa.online_state_dict()
        key = rack_subtree_key(depth=2)
        test = small_scenario.test_records
        tenants = sorted({key(r.location) for r in test})
        fleet = Fleet.build(
            fitted_elsa, tenants, small_scenario.train_end,
            small_scenario.t_end, key, tmp_path / "ckpts",
            clock=ManualClock(), register=False,
        )
        out = fleet.run(test)
        assert get_active_fleet() is None  # register=False
        for tenant in tenants:
            sub = [r for r in test if key(r.location) == tenant]
            fitted_elsa.restore_online_state(helo_state)
            run = ResumableRun(
                fitted_elsa, small_scenario.train_end, small_scenario.t_end
            )
            run.history = None
            run.slo = None
            expect = run.run(sub)
            assert pred_json(out[tenant]) == pred_json(expect), tenant
        fitted_elsa.restore_online_state(helo_state)
        state = fleet.state()
        assert state["records_routed"] == len(test)
        assert set(state["shards"]) == set(tenants)
        assert all(
            s["state"] == "stopped" for s in state["shards"].values()
        )
        fleet.close()

    def test_fleet_installs_slos_and_state_section(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        key = hashed_tenant_key(4)
        tenants = ["t0", "t1", "t2", "t3"]
        fleet = Fleet.build(
            fitted_elsa, tenants, small_scenario.train_end,
            small_scenario.t_end, key, tmp_path / "ckpts",
            clock=ManualClock(),
        )
        try:
            assert get_active_fleet() is fleet
            names = {s.name for s in obs.get_slo_engine().specs}
            assert "fleet_restart_rate" in names
            assert "fleet_quarantine" in names
            assert "fleet_feed_p99" in names
            assert "fleet_feed_p99_t2" in names
            doc = obs.export_state()
            assert doc["fleet"]["active"] is True
            assert doc["fleet"]["tenants"] == 4
        finally:
            fleet.close()
        assert get_active_fleet() is None
        assert "fleet" not in obs.export_state()

    def test_fleet_slos_cap_per_tenant_specs(self):
        specs = fleet_slos([f"t{i}" for i in range(100)])
        per_tenant = [
            s for s in specs if s.name.startswith("fleet_feed_p99_")
        ]
        assert len(per_tenant) == MAX_TENANT_SLOS

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            Fleet({}, key=lambda loc: loc)


class TestSelfHealingFleet:
    #: per-tenant sha256 of the canonical prediction JSON; t3 swaps to
    #: model v2 after ~4,540 records and is killed at 7,000, so its
    #: restart resumes a checkpoint written on the swapped model
    DIGESTS = {
        "t0": (
            "194cdc6949d16342b47da34843d1af8b"
            "22fe90d7bd7f413e26ec4040611821de"
        ),
        "t1": (
            "56aaa8a2b8342eb0ef795e1627d6ced8"
            "6da63352e8a824c4609c135c417cb139"
        ),
        "t2": (
            "3c74d85704e3c832792083ecbd757f65"
            "53fe4b6ee5528e2238350f6e6c1c28be"
        ),
        "t3": (
            "a9ef46cd649851c62415f1728a0ab3eb"
            "6dd149d0a07ebbdc974d9f1151e3f31f"
        ),
    }
    ACTIVE_VERSIONS = {"t0": 1, "t1": 1, "t2": 1, "t3": 2}

    def test_killed_self_healing_shard_resumes_on_its_model(
        self, small_scenario, tmp_path
    ):
        """Self-healing shards, one killed after its model swap: pinned
        per-tenant predictions and active model versions."""
        import hashlib

        from repro import ELSA

        # a private fit: other tests mutate the session pipeline's
        # online template state, which every shard would copy
        elsa = ELSA(small_scenario.machine)
        elsa.fit(small_scenario.records,
                 t_train_end=small_scenario.train_end)
        tenants = sorted(self.DIGESTS)
        fleet = Fleet.build(
            elsa, tenants, small_scenario.train_end, small_scenario.t_end,
            hashed_tenant_key(len(tenants)), tmp_path / "ckpts",
            faults=list(small_scenario.ground_truth), self_heal=True,
            clock=ManualClock(), register=False,
        )
        try:
            fleet.kill("t3", after_records=7000)
            out = fleet.run(small_scenario.test_records)
            digests = {
                t: hashlib.sha256(pred_json(out[t]).encode()).hexdigest()
                for t in tenants
            }
            versions = {
                t: fleet.shards[t].run.manager.active_version
                for t in tenants
            }
            assert fleet.shards["t3"].restarts == 1
        finally:
            fleet.close()
        assert digests == self.DIGESTS
        assert versions == self.ACTIVE_VERSIONS


# ---------------------------------------------------------------------------
# labeled history series (PR satellite: per-tenant SLO plumbing)
# ---------------------------------------------------------------------------

class TestLabeledHistorySeries:
    def test_series_name_is_sorted_and_quoted(self):
        name = MetricHistory.series_name(
            "fleet.feed_seconds", {"tenant": "t1", "a": "b"}
        )
        assert name == 'fleet.feed_seconds{a="b",tenant="t1"}'

    def test_sample_records_labeled_children(self):
        history = MetricHistory(interval=1.0)
        obs.counter("fleet.records_fed").labels(tenant="t0").inc(5)
        obs.counter("fleet.records_fed").inc(5)
        history.sample(0.0)
        obs.counter("fleet.records_fed").labels(tenant="t0").inc(3)
        obs.counter("fleet.records_fed").inc(3)
        history.sample(10.0)
        child = 'fleet.records_fed{tenant="t0"}'
        assert child in history.names()
        assert history.latest(child) == 8.0
        assert history.latest("fleet.records_fed") == 8.0
        assert history.delta(child, 100.0, now=10.0) == 3.0
