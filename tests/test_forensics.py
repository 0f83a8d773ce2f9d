"""Incident forensics: traces, capture, retention, replay plumbing.

Tier-1 coverage for ``repro.obs.forensics`` plus its surfacing — the
``/incidents`` endpoints, ``/query`` label selectors, ``export_state``,
and the configurable label-cardinality cap.  The fleet-scale
end-to-end loop (chaos kill → bundle → byte-identical replay) lives in
``tests/test_fleet_forensics.py`` under ``-m fleet_chaos``.
"""

import json

import pytest

from repro import obs
from repro.fleet.ingest import decode_batch
from repro.obs.forensics import (
    BUNDLE_VERSION,
    MANIFEST,
    IncidentManager,
    TraceContext,
    current_trace,
    current_trace_id,
    get_incident_manager,
    load_bundle,
    mint_trace,
    notify_slo_transition,
    notify_supervisor_event,
    replay_bundle,
    set_incident_manager,
    trace_scope,
)
from repro.obs.history import MetricHistory
from repro.obs.live import TelemetryServer
from repro.obs.metrics import (
    MAX_LABEL_SETS,
    ensure_label_capacity,
    max_label_sets,
    set_max_label_sets,
)
from repro.obs.provenance import PredictionProvenance
from repro.simulation.trace import LogRecord, Severity

from tests.test_live_telemetry import http_get


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.reset()


def make_records(n, t0=0.0, dt=1.0, loc="R00-M0-N0-C:J00-U01"):
    return [
        LogRecord(
            timestamp=t0 + i * dt,
            location=loc,
            severity=Severity.INFO,
            message=f"msg {i}",
            event_type=None,
            fault_id=None,
        )
        for i in range(n)
    ]


class FailingBreaker:
    """A breaker stub that records the calls the manager makes."""

    def __init__(self):
        self.allowed = True
        self.failures = 0
        self.successes = 0

    def allow(self):
        return self.allowed

    def record_failure(self, exc=None):
        self.failures += 1

    def record_success(self):
        self.successes += 1


# ---------------------------------------------------------------------------
# causal traces
# ---------------------------------------------------------------------------

class TestTraces:
    def test_ids_are_deterministic_counters(self):
        assert mint_trace().trace_id == "tr-00000001"
        assert mint_trace().trace_id == "tr-00000002"
        obs.reset()  # resets the counter with everything else
        assert mint_trace().trace_id == "tr-00000001"

    def test_scope_is_nested_and_thread_local(self):
        assert current_trace() is None
        a, b = mint_trace(tenant="t1"), mint_trace()
        with trace_scope(a):
            assert current_trace_id() == a.trace_id
            assert current_trace().tenant == "t1"
            with trace_scope(b):
                assert current_trace_id() == b.trace_id
            assert current_trace_id() == a.trace_id
        assert current_trace_id() is None

    def test_parent_links(self):
        parent = mint_trace(tenant="t2")
        child = mint_trace(tenant="t2", parent_id=parent.trace_id)
        assert child.parent_id == parent.trace_id
        assert child.to_dict() == {
            "trace_id": child.trace_id,
            "parent_id": parent.trace_id,
            "tenant": "t2",
        }

    def test_provenance_carries_the_trace_id(self):
        d = {
            "source": "hybrid", "chain": [[1, 0], [2, 3]],
            "anchor_event": 1, "fatal_event": 2, "anchor_sample": 7,
            "anchor_value": 2.0,
            "detector": {"kind": "median"}, "window": {"kind": "span"},
            "anchor_location": "R00", "locations": ["R00"],
            "trigger_time": 10.0, "emitted_at": 10.5,
            "predicted_time": 40.0, "trace_id": "tr-00000009",
        }
        prov = PredictionProvenance.from_dict(d)
        assert prov.trace_id == "tr-00000009"
        assert prov.to_dict()["trace_id"] == "tr-00000009"
        # absent in old dumps -> None, not a KeyError
        d.pop("trace_id")
        assert PredictionProvenance.from_dict(d).trace_id is None

    def test_streaming_run_traces_its_provenance(
        self, fitted_elsa, small_scenario
    ):
        """feed_chunk mints a trace; every provenance record in the
        chunk carries it."""
        import copy

        from repro.resilience.checkpoint import ResumableRun

        elsa = copy.deepcopy(fitted_elsa)
        run = ResumableRun(
            elsa, small_scenario.train_end, small_scenario.t_end,
        )
        test = small_scenario.test_records
        for i in range(0, len(test), 2048):
            run.feed_chunk(test[i:i + 2048])
        records = run.predictor.flight_recorder.records()
        assert records, "scenario produced no predictions to audit"
        assert all(r.trace_id and r.trace_id.startswith("tr-")
                   for r in records)


# ---------------------------------------------------------------------------
# incident manager: capture, failure ladder, retention
# ---------------------------------------------------------------------------

class TestCapture:
    def bound_manager(self, tmp_path, **overrides):
        mgr = IncidentManager(directory=tmp_path / "inc")
        sources = dict(
            stream_time=lambda: 123.0,
            window=lambda tenant: make_records(5),
            predictions=lambda tenant: {
                "tenant": tenant, "cursor": 5,
                "t_start": 0.0, "t_end": 100.0, "predictions": [],
            },
            supervisor_events=lambda: [
                {"t": 1.0, "tenant": "t1", "kind": "crash", "detail": {}},
            ],
            trace=lambda tenant: "tr-00000042",
        )
        sources.update(overrides)
        mgr.bind(**sources)
        return mgr

    def test_disarmed_manager_only_counts(self, tmp_path):
        mgr = IncidentManager()
        assert mgr.capture("slo_firing", {"slo": "x"}) is None
        st = mgr.state()
        assert st["triggers"] == 1 and st["total"] == 0
        assert st["last_outcome"] == "disarmed"
        assert obs.counter("forensics.triggers_total").value == 1.0

    def test_capture_writes_a_complete_bundle(self, tmp_path):
        mgr = self.bound_manager(tmp_path)
        path = mgr.capture(
            "shard_restart",
            {"t": 1.0, "tenant": "t1", "kind": "restart", "detail": {}},
        )
        assert path is not None and (path / MANIFEST).exists()
        manifest = json.loads((path / MANIFEST).read_text())
        assert manifest["bundle_version"] == BUNDLE_VERSION == 2
        assert manifest["kind"] == "shard_restart"
        assert manifest["tenant"] == "t1"
        assert manifest["stream_time"] == 123.0
        assert manifest["trace_id"] == "tr-00000042"
        assert manifest["records"] == 5 and manifest["cursor"] == 5
        for artifact in ("records.jsonl", "predictions.json",
                         "supervisor.jsonl", "spans.json",
                         "history.json", "alerts.json"):
            assert (path / artifact).exists(), artifact
            assert artifact in manifest["artifacts"]
        # no half-written temp dirs left behind
        assert not list((tmp_path / "inc").glob(".*"))
        loaded = load_bundle(path)
        assert len(loaded["records"]) == 5
        assert loaded["manifest"]["id"] == manifest["id"]
        assert obs.counter("forensics.bundles_captured_total").value == 1.0
        # the record window is the ingest wire's rows, exactly
        assert set(loaded["records"][0]) == {"t", "loc", "sev", "msg"}
        window = decode_batch((path / "records.jsonl").read_bytes())
        assert window.to_records() == make_records(5)
        assert window.messages == [f"msg {i}" for i in range(5)]

    def test_replay_refuses_a_version_1_bundle(self, tmp_path, fitted_elsa):
        mgr = self.bound_manager(tmp_path)
        path = mgr.capture(
            "shard_restart",
            {"t": 1.0, "tenant": "t1", "kind": "restart", "detail": {}},
        )
        manifest = json.loads((path / MANIFEST).read_text())
        manifest["bundle_version"] = 1
        (path / MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="bundle version 1"):
            replay_bundle(path, fitted_elsa)

    def test_slo_firing_capture_records_the_runbook(self, tmp_path):
        from repro.obs.slo import SLOEngine, default_slos, runbook_url

        engine = SLOEngine(specs=default_slos())
        mgr = self.bound_manager(tmp_path, slo=lambda: engine)
        path = mgr.capture(
            "slo_firing",
            {"slo": "recall_floor", "from": "pending", "to": "firing",
             "t": 50.0},
        )
        manifest = json.loads((path / MANIFEST).read_text())
        assert manifest["runbook"] == runbook_url("runbook-recall-floor")
        assert manifest["runbook"].endswith("#runbook-recall-floor")

    def test_capture_failure_never_raises_and_trips_the_breaker(
        self, tmp_path
    ):
        """Satellite: a capture raising mid-write must not propagate,
        must count on ``forensics.capture_failures_total``, and after
        the breaker opens further captures are skipped."""
        def explode():
            raise OSError("disk full")

        breaker = FailingBreaker()
        mgr = IncidentManager(directory=tmp_path / "inc", breaker=breaker)
        mgr.bind(stream_time=explode)
        trigger = {"t": 1.0, "tenant": "t1", "kind": "restart",
                   "detail": {}}
        assert mgr.capture("shard_restart", trigger) is None  # no raise
        assert breaker.failures == 1
        assert obs.counter(
            "forensics.capture_failures_total"
        ).value == 1.0
        assert mgr.state()["last_outcome"] == "failed"
        breaker.allowed = False  # breaker opened
        assert mgr.capture("shard_restart", trigger) is None
        st = mgr.state()
        assert st["skipped"] == 1
        assert st["last_outcome"] == "skipped_breaker"
        assert obs.counter(
            "forensics.captures_skipped_total"
        ).value == 1.0
        assert st["total"] == 0 and st["triggers"] == 2

    def test_retention_drops_oldest_bundles(self, tmp_path):
        mgr = self.bound_manager(tmp_path)
        mgr.retention = 3
        trigger = {"t": 1.0, "tenant": "t1", "kind": "restart",
                   "detail": {}}
        for _ in range(5):
            assert mgr.capture("shard_restart", trigger) is not None
        ids = [b["id"] for b in mgr.bundles()]
        assert len(ids) == 3
        assert ids == ["inc-0003-shard_restart", "inc-0004-shard_restart",
                       "inc-0005-shard_restart"]
        assert obs.gauge("forensics.bundles_retained").value == 3.0

    def test_notify_hooks_filter_events(self, tmp_path):
        mgr = self.bound_manager(tmp_path)
        set_incident_manager(mgr)
        notify_slo_transition({"slo": "x", "from": "ok", "to": "pending",
                               "t": 1.0})
        notify_supervisor_event({"t": 1.0, "tenant": "t1",
                                 "kind": "reinstate", "detail": {}})
        assert mgr.state()["triggers"] == 0  # neither is capture-worthy
        notify_supervisor_event({"t": 2.0, "tenant": "t1",
                                 "kind": "quarantine", "detail": {}})
        assert mgr.state()["total"] == 1
        assert mgr.bundles()[0]["kind"] == "shard_quarantine"


# ---------------------------------------------------------------------------
# persistence: state_dict / checkpoint round trip
# ---------------------------------------------------------------------------

class TestPersistence:
    def test_state_dict_round_trip(self, tmp_path):
        mgr = IncidentManager(directory=tmp_path / "inc", retention=5)
        mgr.bind(stream_time=lambda: 1.0,
                 window=lambda tenant: [],
                 predictions=lambda tenant: None)
        mgr.capture("shard_restart", {"t": 1.0, "tenant": "t1",
                                      "kind": "restart", "detail": {}})
        snap = mgr.state_dict()
        fresh = IncidentManager()
        fresh.load_state(json.loads(json.dumps(snap)))
        assert fresh.state_dict() == snap
        assert fresh.armed and fresh.retention == 5

    def test_load_state_rejects_unknown_versions(self):
        with pytest.raises(ValueError):
            IncidentManager().load_state({"version": 99})

    def test_checkpoint_obs_block_round_trip(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        """A run checkpoints the manager's counters only when dirty,
        and resume restores them into the process-wide manager."""
        import copy

        from repro.resilience.checkpoint import (
            ResumableRun, load_checkpoint,
        )

        ckpt = tmp_path / "run.ckpt"
        run = ResumableRun(
            copy.deepcopy(fitted_elsa), small_scenario.train_end,
            small_scenario.t_end, checkpoint_path=ckpt,
            checkpoint_every=500,
        )
        test = small_scenario.test_records
        # a clean (never-triggered, disarmed) manager stays out
        run.feed_chunk(test[:500])
        assert "incidents" not in (
            load_checkpoint(ckpt).get("obs") or {}
        )
        # arm + trigger -> the next checkpoint carries the counters
        mgr = get_incident_manager()
        mgr.arm(tmp_path / "inc")
        mgr.capture("slo_firing", {"slo": "x"})
        run.feed_chunk(test[500:1000])
        block = load_checkpoint(ckpt)["obs"]["incidents"]
        assert block["counts"]["triggers"] == 1
        obs.reset()
        resumed = ResumableRun.resume(
            copy.deepcopy(fitted_elsa), load_checkpoint(ckpt),
        )
        assert resumed.predictor.n_records_fed == 1000
        restored = get_incident_manager()
        assert restored.state()["triggers"] == 1
        assert restored.armed

    def test_self_healing_resume_restores_the_obs_incidents_block(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        """A self-healing run resumes the incident counters exactly as
        a plain run does: one resume path reads the ``obs`` block."""
        import copy

        from repro.lifecycle import SelfHealingRun
        from repro.resilience.checkpoint import load_checkpoint

        ckpt = tmp_path / "heal.ckpt"
        run = SelfHealingRun(
            copy.deepcopy(fitted_elsa), small_scenario.train_end,
            small_scenario.t_end, checkpoint_path=ckpt,
            checkpoint_every=500,
        )
        mgr = get_incident_manager()
        mgr.arm(tmp_path / "inc")
        mgr.capture("slo_firing", {"slo": "x"})
        run.feed_chunk(small_scenario.test_records[:500])
        assert load_checkpoint(ckpt)["obs"]["incidents"]["seq"] == 1
        obs.reset()
        SelfHealingRun.resume(
            copy.deepcopy(fitted_elsa), load_checkpoint(ckpt),
        )
        restored = get_incident_manager()
        assert restored.state()["triggers"] == 1
        assert restored.armed

    def test_shard_restarts_do_not_rewind_the_incident_manager(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        """The fleet owns the incident manager: a shard checkpoint
        carries none of its state, so a restart cannot roll the bundle
        sequence back and overwrite an earlier restart's bundle."""
        from repro.fleet import Fleet, ManualClock, hashed_tenant_key

        tenants = ["t0", "t1", "t2", "t3"]
        fleet = Fleet.build(
            fitted_elsa, tenants, small_scenario.train_end,
            small_scenario.t_end, hashed_tenant_key(len(tenants)),
            tmp_path / "ckpts", clock=ManualClock(), register=False,
        )
        try:
            fleet.bind_forensics(tmp_path / "inc")
            # both kills land past a checkpoint, so both restarts resume
            fleet.kill("t0", after_records=2500)
            fleet.kill("t2", after_records=5000)
            fleet.run(small_scenario.test_records)
            assert fleet.shards["t0"].restarts == 1
            assert fleet.shards["t2"].restarts == 1
        finally:
            fleet.close()
        mgr = get_incident_manager()
        assert [b["id"] for b in mgr.bundles()] == [
            "inc-0001-shard_restart", "inc-0002-shard_restart",
        ]
        assert mgr.state()["total"] == 2
        ckpts = sorted((tmp_path / "ckpts").glob("*.ckpt.json"))
        assert len(ckpts) == len(tenants)
        assert not any("obs" in json.loads(p.read_text()) for p in ckpts)

    def test_quarantine_bundle_samples_the_fenced_records(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        """A quarantine fences the shard's queue onto the dead-letter
        ring; the ``shard_quarantine`` bundle's ``dead_letter.jsonl``
        holds the newest of those records as wire rows."""
        from repro.fleet import Fleet, ManualClock, hashed_tenant_key
        from repro.obs.forensics import MAX_DEAD_LETTER_SAMPLES

        tenants = ["t0", "t1", "t2", "t3"]
        fleet = Fleet.build(
            fitted_elsa, tenants, small_scenario.train_end,
            small_scenario.t_end, hashed_tenant_key(len(tenants)),
            tmp_path / "ckpts", clock=ManualClock(), register=False,
        )
        victim = fleet.shards["t1"]
        fenced = []
        fence = victim.fence

        def spy():
            fenced.append(fence())
            return fenced[-1]

        victim.fence = spy
        try:
            fleet.bind_forensics(tmp_path / "inc")
            victim.inject_poison()
            fleet.run(small_scenario.test_records)
        finally:
            fleet.close()
        [batch] = fenced
        assert len(batch)
        [bundle] = [
            b for b in get_incident_manager().bundles()
            if b["kind"] == "shard_quarantine"
        ]
        lines = [
            json.loads(line) for line in
            (tmp_path / "inc" / bundle["id"] / "dead_letter.jsonl")
            .read_text().splitlines()
        ]
        assert {(d["reason"], d["tenant"]) for d in lines} == {
            ("fenced", "t1")
        }
        rows = "".join(json.dumps(d["record"]) + "\n" for d in lines)
        got = decode_batch(rows.encode("utf-8"))
        want = batch[max(0, len(batch) - MAX_DEAD_LETTER_SAMPLES):]

        def fields(b):
            return [(r.timestamp, r.location, r.severity, r.message)
                    for r in b.to_records()]

        assert len(got) == len(want) > 0
        assert fields(got) == fields(want)

    def test_export_state_always_has_an_incidents_section(self):
        state = obs.export_state()
        assert state["incidents"]["armed"] is False
        assert state["incidents"]["triggers"] == 0

    def test_stats_json_passes_incidents_through(self):
        from repro.reporting import observability_json

        out = observability_json(obs.export_state())
        assert "incidents" in out
        assert out["incidents"]["total"] == 0


# ---------------------------------------------------------------------------
# HTTP surfacing: /incidents and /query label selectors
# ---------------------------------------------------------------------------

class TestEndpoints:
    def test_incidents_endpoint_disarmed(self):
        with TelemetryServer(port=0) as srv:
            code, body, _ = http_get(srv.url + "/incidents")
        assert code == 200
        doc = json.loads(body)
        assert doc["armed"] is False and doc["incidents"] == []

    def test_incidents_endpoint_serves_bundles_and_views(self, tmp_path):
        mgr = IncidentManager(directory=tmp_path / "inc")
        mgr.bind(stream_time=lambda: 9.0,
                 window=lambda tenant: make_records(2),
                 predictions=lambda tenant: None)
        set_incident_manager(mgr)
        mgr.capture("shard_quarantine", {"t": 1.0, "tenant": "t3",
                                         "kind": "quarantine",
                                         "detail": {}})
        with TelemetryServer(port=0) as srv:
            code, body, _ = http_get(srv.url + "/incidents")
            assert code == 200
            doc = json.loads(body)
            assert doc["total"] == 1
            bundle_id = doc["incidents"][0]["id"]
            code, body, _ = http_get(
                srv.url + f"/incidents/{bundle_id}"
            )
            assert code == 200
            view = json.loads(body)
            assert view["id"] == bundle_id
            assert view["files"][MANIFEST] > 0
            code, body, _ = http_get(srv.url + "/incidents/nope")
            assert code == 404
            assert bundle_id in json.loads(body)["bundles"]

    def test_query_label_selector(self):
        hist = obs.get_history()
        g = obs.gauge("fleet.queue_depth")
        for i in range(4):
            g.labels(tenant="t7").set(float(i))
            g.labels(tenant="t8").set(100.0)
            hist.sample(i * 60.0)
        with TelemetryServer(port=0) as srv:
            code, body, _ = http_get(
                srv.url + "/query?metric=fleet.queue_depth"
                          "&tenant=t7&window=300"
            )
            assert code == 200
            out = json.loads(body)
            assert out["labels"] == {"tenant": "t7"}
            assert out["latest"] == 3.0
            # explicit label=key=value spelling targets the same series
            code, body, _ = http_get(
                srv.url + "/query?metric=fleet.queue_depth"
                          "&label=tenant=t8&window=300"
            )
            assert json.loads(body)["latest"] == 100.0

    def test_query_unknown_label_is_a_400_listing_series(self):
        hist = obs.get_history()
        obs.gauge("fleet.queue_depth").labels(tenant="t7").set(1.0)
        hist.sample(0.0)
        with TelemetryServer(port=0) as srv:
            code, body, _ = http_get(
                srv.url + "/query?metric=fleet.queue_depth&tenant=nope"
            )
            assert code == 400
            err = json.loads(body)
            assert err["labels"] == {"tenant": "nope"}
            assert any("t7" in s for s in err["series"])
            code, body, _ = http_get(
                srv.url + "/query?metric=fleet.queue_depth&label=bogus"
            )
            assert code == 400
            assert "key=value" in json.loads(body)["error"]


# ---------------------------------------------------------------------------
# configurable label-cardinality cap
# ---------------------------------------------------------------------------

class TestLabelCap:
    def test_default_cap_and_raise(self):
        assert max_label_sets() == MAX_LABEL_SETS
        prev = set_max_label_sets(128)
        assert prev == MAX_LABEL_SETS
        assert max_label_sets() == 128
        obs.reset()
        assert max_label_sets() == MAX_LABEL_SETS

    def test_ensure_label_capacity_only_raises(self):
        set_max_label_sets(10)
        ensure_label_capacity(200)
        assert max_label_sets() == 200
        ensure_label_capacity(50)  # never lowers
        assert max_label_sets() == 200

    def test_set_max_label_sets_rejects_nonsense(self):
        with pytest.raises(ValueError):
            set_max_label_sets(0)

    def test_overflow_counts_and_warns_once(self):
        from repro.obs import metrics as metrics_mod

        set_max_label_sets(2)
        c = obs.counter("cap.test")
        for i in range(5):
            c.labels(k=f"v{i}").inc()
        snap = obs.get_registry().snapshot()
        series = {
            tuple(sorted(s["labels"].items()))
            for s in snap["cap.test"]["series"]
        }
        assert (("overflow", "true"),) in series
        assert obs.counter("obs.labels_overflow_total").value == 3.0
        # one-shot warning latch: armed once per metric name, re-armed
        # by reset (the repro logger does not propagate, so the latch
        # is the observable)
        assert metrics_mod._overflow_warned == {"cap.test"}
        obs.counter("cap.other").labels(k="v").inc()
        assert metrics_mod._overflow_warned == {"cap.test"}
        obs.reset()
        assert metrics_mod._overflow_warned == set()

    def test_raised_cap_admits_more_series(self):
        set_max_label_sets(100)
        g = obs.gauge("cap.wide")
        for i in range(80):
            g.labels(tenant=f"t{i}").set(1.0)
        snap = obs.get_registry().snapshot()
        labels = {
            s["labels"].get("tenant")
            for s in snap["cap.wide"]["series"]
        }
        assert len(labels) == 80 and "overflow" not in labels
        assert obs.counter("obs.labels_overflow_total").value == 0.0
