"""Model lifecycle: ladder, manager, checkpoint v2, triggers, healing.

The degradation-ladder property test uses hypothesis to drive the
ladder with arbitrary breaker open/close sequences and enforces the
two documented invariants: movement is one rung per update (never a
skip, in either direction) and the reported rung always matches the
internal one.  The rest covers the :class:`ModelManager` registry, the
v1→v2 checkpoint migration shim, the drift ``on_drift`` hook, the span
deadline watchdog, the ``/state`` section registry, hot-swap atomicity
on the streaming predictor, and the reject→backoff path of
:class:`SelfHealingRun`.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.columnar import RecordBatch
from repro.lifecycle import (
    DegradationLadder,
    LifecyclePolicy,
    ModelManager,
    Rung,
    SelfHealingRun,
)
from repro.prediction.scoreboard import DriftDetector
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    DEFAULT_LIFECYCLE,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


# -- degradation ladder -------------------------------------------------------


#: each element is one ``update`` call's open-breaker set
BREAKER_SETS = st.lists(
    st.sets(st.sampled_from(["signals", "locations"])),
    max_size=60,
)


class TestLadder:
    def test_targets(self):
        assert DegradationLadder.target_for({}) == Rung.HYBRID
        assert (
            DegradationLadder.target_for({"locations": "open"})
            == Rung.SIGNALS_ONLY
        )
        # signals is the deeper dependency: it wins over locations
        assert (
            DegradationLadder.target_for({"signals": "open"})
            == Rung.RATE_BASELINE
        )
        assert (
            DegradationLadder.target_for(
                {"signals": "open", "locations": "half-open"}
            )
            == Rung.RATE_BASELINE
        )

    def test_descends_and_climbs_one_rung_per_update(self):
        ladder = DegradationLadder()
        tripped = {"signals": "open"}
        assert ladder.update(tripped) == Rung.SIGNALS_ONLY
        assert ladder.update(tripped) == Rung.RATE_BASELINE
        assert ladder.update(tripped) == Rung.RATE_BASELINE
        assert ladder.update({}) == Rung.SIGNALS_ONLY
        assert ladder.update({}) == Rung.HYBRID
        assert ladder.transitions == [(0, 1), (1, 2), (2, 1), (1, 0)]

    @settings(max_examples=200, deadline=None)
    @given(BREAKER_SETS)
    def test_monotone_and_reported_under_any_sequence(self, seq):
        ladder = DegradationLadder()
        prev = ladder.rung
        for open_set in seq:
            tripped = {name: "open" for name in open_set}
            rung = ladder.update(tripped)
            assert rung == ladder.rung
            assert abs(int(rung) - int(prev)) <= 1, "skipped a rung"
            # never overshoots past the breaker-implied target
            target = DegradationLadder.target_for(tripped)
            lo, hi = sorted((int(prev), int(target)))
            assert lo <= int(rung) <= hi
            # the rung is always *reported*, not just held internally
            assert obs.gauge("lifecycle.ladder_rung").value == float(rung)
            prev = rung
        # the audit trail is exactly the moves that happened: contiguous
        # single steps, each starting where the previous ended
        pos = 0
        for old, new in ladder.transitions:
            assert old == pos and abs(new - old) == 1
            pos = new
        assert pos == int(ladder.rung)

    def test_rate_baseline_rule(self):
        ladder = DegradationLadder(
            rate_baseline_factor=4.0, rate_baseline_min_count=3.0
        )
        assert not ladder.rate_baseline_outlier(2.0, mean_rate=1.0)
        assert ladder.rate_baseline_outlier(5.0, mean_rate=1.0)
        # unknown type: the count floor alone
        assert not ladder.rate_baseline_outlier(3.0, mean_rate=None)
        assert ladder.rate_baseline_outlier(3.5, mean_rate=None)
        # tiny mean rates never drop the threshold below the floor
        assert not ladder.rate_baseline_outlier(2.9, mean_rate=0.01)
        assert obs.counter("lifecycle.rate_baseline_triggers").value == 2

    def test_restore_jumps(self):
        ladder = DegradationLadder()
        ladder.restore(2)
        assert ladder.rung == Rung.RATE_BASELINE
        assert ladder.transitions == [(0, 2)]


# -- model manager ------------------------------------------------------------


class FakeModel:
    def __init__(self, n_types=7, n_chains=2):
        self.n_types = n_types
        self.predictive_chains = [object()] * n_chains


class TestModelManager:
    def test_register_activate_rollback(self):
        mgr = ModelManager()
        mv = mgr.register(FakeModel(), reason="seed", stream_time=0.0)
        assert (mv.version, mv.n_types, mv.n_chains) == (1, 7, 2)
        mgr.activate(1, 0.0)
        assert mgr.active_version == 1
        mgr.rollback(10.0, {"reason": "validation-lost"})
        assert mgr.active_version == 1
        kinds = [e.kind for e in mgr.events.records()]
        assert kinds == ["register", "activate", "rollback"]
        assert obs.counter("lifecycle.rollbacks").value == 1
        assert obs.gauge("lifecycle.model_version").value == 1.0

    def test_version_collision_rejected(self):
        mgr = ModelManager()
        mgr.register(FakeModel(), reason="seed", stream_time=0.0)
        with pytest.raises(ValueError, match="already registered"):
            mgr.register(FakeModel(), reason="seed", stream_time=0.0,
                         version=1)

    def test_persistence_roundtrip(self, tmp_path):
        mgr = ModelManager(store_dir=tmp_path / "store")
        mv = mgr.register(
            FakeModel(n_types=11, n_chains=0), reason="seed",
            stream_time=0.0,
        )
        assert mv.path is not None
        loaded = ModelManager.load_snapshot(mv.path)
        assert loaded.n_types == 11

    def test_eviction_spares_active_and_reloads_from_store(self, tmp_path):
        mgr = ModelManager(store_dir=tmp_path / "store")
        mgr.register(FakeModel(n_types=10), reason="seed", stream_time=0.0)
        mgr.activate(1, 0.0)
        for i in range(1, 8):
            mgr.register(FakeModel(n_types=10 + i), reason="drift",
                         stream_time=float(i))
        # the active version is never evicted, however old
        assert 1 in mgr._models
        assert len(mgr._models) <= 4
        # evicted versions come back from the store transparently
        assert 2 not in mgr._models
        assert mgr.get(2).n_types == 11

    def test_get_unavailable_raises(self):
        mgr = ModelManager()  # no store
        with pytest.raises(KeyError):
            mgr.get(3)


# -- checkpoint v2 + migration ------------------------------------------------


class TestCheckpointMigration:
    def _checkpoint(self, fitted_elsa, small_scenario, tmp_path, **kw):
        elsa = copy.deepcopy(fitted_elsa)
        predictor = elsa.streaming_predictor(
            small_scenario.train_end, small_scenario.t_end
        )
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, predictor, elsa.online_state_dict(), **kw)
        return path

    def test_v2_carries_lifecycle_block(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        path = self._checkpoint(
            fitted_elsa, small_scenario, tmp_path,
            lifecycle={"model_version": 3, "ladder_rung": 1,
                       "model_path": "/x/model_v3.pkl"},
        )
        data = load_checkpoint(path)
        assert data["version"] == CHECKPOINT_VERSION == 2
        assert data["lifecycle"]["model_version"] == 3
        assert data["lifecycle"]["ladder_rung"] == 1

    def test_v1_migrates_to_seed_defaults(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        path = self._checkpoint(fitted_elsa, small_scenario, tmp_path)
        raw = json.loads(path.read_text())
        raw["version"] = 1
        del raw["lifecycle"]
        path.write_text(json.dumps(raw))
        data = load_checkpoint(path)
        assert data["version"] == 2
        assert data["lifecycle"] == DEFAULT_LIFECYCLE
        assert obs.counter("resilience.checkpoints_migrated").value == 1

    def test_unknown_version_rejected(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        path = self._checkpoint(fitted_elsa, small_scenario, tmp_path)
        raw = json.loads(path.read_text())
        raw["version"] = 99
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="not supported"):
            load_checkpoint(path)

    def test_missing_model_snapshot_degrades_to_fresh_fit(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        """A v2 checkpoint naming a swapped model whose pickle is gone
        resumes on the seed model instead of crashing (PR satellite)."""
        gone = tmp_path / "model_v3.pkl"
        gone.write_text("placeholder")
        path = self._checkpoint(
            fitted_elsa, small_scenario, tmp_path,
            lifecycle={"model_version": 3, "ladder_rung": 0,
                       "model_path": str(gone)},
        )
        gone.unlink()
        elsa = copy.deepcopy(fitted_elsa)
        run = SelfHealingRun.resume(elsa, load_checkpoint(path))
        assert run.resumed_degraded is True
        assert run.manager.active_version == 1
        assert obs.counter(
            "lifecycle.resume_snapshot_missing"
        ).value == 1
        # and the degraded run still works end to end
        preds = run.run(small_scenario.test_records[:2000])
        assert isinstance(preds, list)

    def test_null_model_path_with_swapped_version_degrades(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        path = self._checkpoint(
            fitted_elsa, small_scenario, tmp_path,
            lifecycle={"model_version": 2, "ladder_rung": 0,
                       "model_path": None},
        )
        elsa = copy.deepcopy(fitted_elsa)
        run = SelfHealingRun.resume(elsa, load_checkpoint(path))
        assert run.resumed_degraded is True
        assert obs.counter(
            "lifecycle.resume_snapshot_missing"
        ).value == 1

    def test_intact_snapshot_resumes_undegraded(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        path = self._checkpoint(fitted_elsa, small_scenario, tmp_path)
        elsa = copy.deepcopy(fitted_elsa)
        run = SelfHealingRun.resume(elsa, load_checkpoint(path))
        assert run.resumed_degraded is False
        assert obs.counter(
            "lifecycle.resume_snapshot_missing"
        ).value == 0


# -- drift hook ---------------------------------------------------------------


class TestOnDriftHook:
    def _detector(self, **kw):
        return DriftDetector(
            expected_rate=10.0, expected_mix={1: 1.0}, warmup=2,
            threshold=0.5, **kw,
        )

    def _force_alert(self, det):
        for _ in range(8):
            det.observe(1000.0, {1: 1000})

    def test_fires_once_per_episode(self):
        calls = []
        det = self._detector(on_drift=calls.append)
        self._force_alert(det)
        assert calls == [det]
        self._force_alert(det)  # still inside the same episode
        assert len(calls) == 1

    def test_settable_after_construction(self):
        det = self._detector()
        calls = []
        det.on_drift = calls.append
        self._force_alert(det)
        assert len(calls) == 1

    def test_exception_swallowed(self):
        def boom(_):
            raise RuntimeError("hook broke")

        det = self._detector(on_drift=boom)
        self._force_alert(det)  # must not raise
        assert det.alerted


# -- span deadline watchdog ---------------------------------------------------


class TestSpanDeadline:
    def test_exceeded_deadline_counts_and_flags(self):
        with obs.span("slow_stage", deadline_s=0.0):
            pass  # any elapsed time beats a zero deadline
        assert obs.counter("watchdog.deadline_exceeded").value == 1
        spans = obs.tracing.span_roots()
        assert spans[-1].attrs.get("deadline_exceeded") is True

    def test_met_deadline_is_silent(self):
        with obs.span("fast_stage", deadline_s=3600.0):
            pass
        assert obs.counter("watchdog.deadline_exceeded").value == 0
        spans = obs.tracing.span_roots()
        assert "deadline_exceeded" not in spans[-1].attrs

    def test_no_deadline_no_watchdog(self):
        with obs.span("stage"):
            pass
        assert obs.counter("watchdog.deadline_exceeded").value == 0


# -- /state section registry --------------------------------------------------


class TestStateSections:
    def test_registered_section_appears(self):
        obs.register_state_section("lifecycle", lambda: {"rung": 2})
        state = obs.export_state()
        assert state["lifecycle"] == {"rung": 2}
        obs.unregister_state_section("lifecycle")
        assert "lifecycle" not in obs.export_state()

    def test_reserved_names_rejected(self):
        with pytest.raises(ValueError):
            obs.register_state_section("metrics", dict)
        with pytest.raises(ValueError):
            obs.register_state_section("spans", dict)

    def test_broken_provider_reports_error(self):
        def boom():
            raise RuntimeError("no state for you")

        obs.register_state_section("flaky", boom)
        state = obs.export_state()
        assert "RuntimeError" in state["flaky"]["error"]


# -- hot swap on the streaming predictor -------------------------------------


class TestSwapAtomicity:
    def test_swap_preserves_stream_position_and_predictions(
        self, fitted_elsa, small_scenario
    ):
        elsa = copy.deepcopy(fitted_elsa)
        scn = small_scenario
        test = RecordBatch.from_records(scn.test_records)
        half = len(test) // 2
        n_types = elsa.model.n_types

        def classify(batch):
            ids = elsa.classify(batch)
            return np.where(ids < n_types, ids, -1)

        predictor = elsa.streaming_predictor(scn.train_end, scn.t_end)
        predictor.feed(test[:half], classify(test[:half]))
        n_before = len(predictor._predictions)
        k_before = predictor._k
        fed_before = predictor.n_records_fed

        predictor.swap_model(elsa.model)

        # nothing already emitted was dropped, duplicated, or re-keyed,
        # and the stream cursor did not move
        assert len(predictor._predictions) == n_before
        assert predictor._k == k_before
        assert predictor.n_records_fed == fed_before
        assert obs.counter("lifecycle.predictor_swaps").value == 1

        predictor.feed(test[half:], classify(test[half:]))
        out = predictor.finish()

        # no duplicates across the swap boundary and emission order holds
        keys = [(p.trigger_time, p.chain_key, p.anchor_event) for p in out]
        assert len(keys) == len(set(keys))
        emitted = [p.emitted_at for p in out]
        assert emitted == sorted(emitted)

    def test_swap_after_finish_rejected(self, fitted_elsa, small_scenario):
        elsa = copy.deepcopy(fitted_elsa)
        predictor = elsa.streaming_predictor(
            small_scenario.train_end, small_scenario.t_end
        )
        predictor.finish()
        with pytest.raises(RuntimeError):
            predictor.swap_model(elsa.model)


# -- self-healing run: reject → rollback → backoff ---------------------------


class TestSelfHealingRejects:
    def test_manual_trigger_without_truth_rolls_back_with_backoff(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        elsa = copy.deepcopy(fitted_elsa)
        scn = small_scenario
        policy = LifecyclePolicy(
            min_train_records=50,
            backoff_initial_seconds=600.0,
            backoff_factor=2.0,
            heal_check_records=512,
        )
        run = SelfHealingRun(
            elsa, scn.train_end, scn.t_end, policy=policy,
            store_dir=tmp_path / "store",
        )
        run.request_retrain("manual")
        test = [r for r in scn.records if r.timestamp >= scn.train_end]
        run.process(test, limit=4096)

        # no ground truth → every validation is inconclusive → rejected
        assert run.manager.active_version == 1
        assert run.swaps == 0
        assert run.retrains >= 1
        assert run.rollbacks >= 1
        # backoff grew geometrically with each rejection
        assert run._backoff == 600.0 * (2.0 ** run.rollbacks)
        assert run._not_before > scn.train_end
        kinds = [e.kind for e in run.manager.events.records()]
        assert "rollback" in kinds
        # the run reports itself as a /state section
        assert obs.export_state()["lifecycle"]["active_version"] == 1

    def test_checkpoint_carries_lifecycle_position(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        elsa = copy.deepcopy(fitted_elsa)
        scn = small_scenario
        ckpt = tmp_path / "ckpt.json"
        run = SelfHealingRun(
            elsa, scn.train_end, scn.t_end,
            checkpoint_path=ckpt, checkpoint_every=2048,
            store_dir=tmp_path / "store",
        )
        test = [r for r in scn.records if r.timestamp >= scn.train_end]
        run.process(test, limit=4096)
        data = load_checkpoint(ckpt)
        assert data["lifecycle"]["model_version"] == 1
        assert data["lifecycle"]["ladder_rung"] == 0
        assert data["lifecycle"]["model_path"].endswith("model_v1.pkl")


class TestLifecycleHistoryAnnotations:
    """Lifecycle events must land on the metric-history timeline."""

    def test_ladder_transition_hook_fires(self):
        ladder = DegradationLadder()
        moves = []
        ladder.on_transition = lambda old, new: moves.append((old, new))
        ladder.update({"locations": "open"})
        assert moves == [(Rung.HYBRID, Rung.SIGNALS_ONLY)]

    def test_healing_run_annotates_ladder_moves(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        elsa = copy.deepcopy(fitted_elsa)
        scn = small_scenario
        run = SelfHealingRun(
            elsa, scn.train_end, scn.t_end,
            store_dir=tmp_path / "store",
        )
        assert run.ladder.on_transition is not None
        run.ladder._transition(Rung.SIGNALS_ONLY)
        events = run.history.events(window=1e12, now=1e12)
        ladder_events = [
            e for e in events if e["kind"] == "ladder_transition"
        ]
        assert ladder_events
        assert ladder_events[-1]["detail"] == {
            "from": "hybrid", "to": "signals_only",
        }

    def test_resume_restore_does_not_annotate(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        elsa = copy.deepcopy(fitted_elsa)
        scn = small_scenario
        ckpt = tmp_path / "ckpt.json"
        run = SelfHealingRun(
            elsa, scn.train_end, scn.t_end,
            checkpoint_path=ckpt, checkpoint_every=2048,
            store_dir=tmp_path / "store",
        )
        test = [r for r in scn.records if r.timestamp >= scn.train_end]
        run.process(test, limit=4096)
        # degrade, then checkpoint so the saved rung is non-zero and
        # restore() genuinely has to move the fresh run's ladder
        run.ladder._transition(Rung.SIGNALS_ONLY)
        run._maybe_checkpoint()
        data = load_checkpoint(ckpt)
        assert data["lifecycle"]["ladder_rung"] == 1
        saved_moves = sum(
            1 for e in data["obs"]["history"]["events"]
            if e["kind"] == "ladder_transition"
        )
        assert saved_moves == 1  # the annotation made it into the ckpt
        obs.reset()
        elsa2 = copy.deepcopy(fitted_elsa)
        resumed = SelfHealingRun.resume(
            elsa2, load_checkpoint(ckpt),
            store_dir=tmp_path / "store",
            checkpoint_path=ckpt, checkpoint_every=2048,
        )
        assert resumed.ladder.rung == Rung.SIGNALS_ONLY  # restore moved it
        # the restored history carries the original annotation, but the
        # restore jump itself must not have synthesized a second one
        moves = [
            e for e in resumed.history.events(window=1e12, now=1e12)
            if e["kind"] == "ladder_transition"
        ]
        assert len(moves) == saved_moves
        # the hook is re-armed after restore
        assert resumed.ladder.on_transition is not None


class TestResumedScoreboard:
    def test_scoreboard_attached_before_resume_sees_the_whole_run(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        """A self-healing run attaches its scoreboard before the
        checkpoint loads; the resumed run's scoreboard still ends where
        the uninterrupted run's does."""
        scn = small_scenario
        # no retrain can start, so every run emits the same predictions
        policy = LifecyclePolicy(min_train_records=10**9, drift_threshold=1.3)
        kw = dict(faults=scn.test_faults, policy=policy)
        whole = SelfHealingRun(
            copy.deepcopy(fitted_elsa), scn.train_end, scn.t_end,
            store_dir=tmp_path / "whole", **kw,
        )
        whole.run(scn.records)
        ckpt = tmp_path / "ckpt.json"
        first = SelfHealingRun(
            copy.deepcopy(fitted_elsa), scn.train_end, scn.t_end,
            store_dir=tmp_path / "store",
            checkpoint_path=ckpt, checkpoint_every=3000, **kw,
        )
        first.process(scn.records, limit=12000)
        state = load_checkpoint(ckpt)
        assert state["predictor"]["predictions"]
        resumed = SelfHealingRun.resume(
            copy.deepcopy(fitted_elsa), state,
            store_dir=tmp_path / "store", **kw,
        )
        resumed.run(scn.records)
        assert resumed.scoreboard.snapshot() == whole.scoreboard.snapshot()
