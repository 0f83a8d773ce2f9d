"""Tests for circuit breakers and predictor graceful degradation."""

import json

import pytest

from repro import obs
from repro.resilience import (
    BreakerOpen,
    BreakerState,
    CircuitBreaker,
    ComponentBreakers,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def boom():
    raise RuntimeError("component exploded")


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        br = CircuitBreaker("x", failure_threshold=3, clock=FakeClock())
        for _ in range(2):
            with pytest.raises(RuntimeError):
                br.call(boom)
        assert br.state == BreakerState.CLOSED
        with pytest.raises(RuntimeError):
            br.call(boom)
        assert br.state == BreakerState.OPEN

    def test_open_short_circuits_without_calling(self):
        calls = []
        br = CircuitBreaker("x", failure_threshold=1, clock=FakeClock())
        with pytest.raises(RuntimeError):
            br.call(boom)
        with pytest.raises(BreakerOpen):
            br.call(lambda: calls.append(1))
        assert calls == []  # protected fn never ran

    def test_success_resets_failure_count(self):
        br = CircuitBreaker("x", failure_threshold=2, clock=FakeClock())
        with pytest.raises(RuntimeError):
            br.call(boom)
        assert br.call(lambda: 42) == 42
        with pytest.raises(RuntimeError):
            br.call(boom)
        assert br.state == BreakerState.CLOSED  # count restarted

    def test_half_open_trial_after_cooldown_then_close(self):
        clock = FakeClock()
        br = CircuitBreaker(
            "x", failure_threshold=1, cooldown_seconds=30.0, clock=clock
        )
        with pytest.raises(RuntimeError):
            br.call(boom)
        assert br.state == BreakerState.OPEN
        clock.advance(31.0)
        assert br.call(lambda: "ok") == "ok"  # the half-open trial
        assert br.state == BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        br = CircuitBreaker(
            "x", failure_threshold=1, cooldown_seconds=30.0, clock=clock
        )
        with pytest.raises(RuntimeError):
            br.call(boom)
        clock.advance(31.0)
        with pytest.raises(RuntimeError):
            br.call(boom)  # trial fails
        assert br.state == BreakerState.OPEN
        # and the cooldown restarts: still open just after
        clock.advance(1.0)
        with pytest.raises(BreakerOpen):
            br.call(lambda: 1)

    def test_trip_visible_in_metrics(self):
        obs.reset()
        br = CircuitBreaker("sig", failure_threshold=1, clock=FakeClock())
        with pytest.raises(RuntimeError):
            br.call(boom)
        assert obs.counter("resilience.breaker.sig.opened").value == 1
        assert obs.gauge("resilience.breaker.sig.state").value == 2.0


class TestComponentBreakers:
    def test_guarded_converts_failure_to_fallback(self):
        cb = ComponentBreakers(clock=FakeClock())
        assert cb.guarded("locations", boom, fallback="fb") == "fb"
        assert cb.guarded("locations", lambda: "fine") == "fine"

    def test_guarded_fallback_while_open(self):
        cb = ComponentBreakers(failure_threshold=1, clock=FakeClock())
        assert cb.guarded("x", boom) is None
        assert cb.guarded("x", lambda: "never called") is None
        assert cb.tripped() == {"x": "open"}

    def test_breakers_are_independent(self):
        cb = ComponentBreakers(failure_threshold=1, clock=FakeClock())
        cb.guarded("signals", boom)
        assert cb.guarded("locations", lambda: "healthy") == "healthy"
        assert set(cb.tripped()) == {"signals"}


class TestPredictorDegradation:
    """The error boundary inside HybridPredictor: one path fails, the
    other carries on."""

    def test_location_failure_degrades_to_anchor_node(
        self, fitted_elsa, small_scenario, monkeypatch
    ):
        helo_state = fitted_elsa.online_state_dict()
        try:
            stream = fitted_elsa.make_stream(
                small_scenario.records,
                small_scenario.train_end,
                small_scenario.t_end,
            )
            baseline = fitted_elsa.hybrid_predictor().run(stream)
            if not baseline:
                pytest.skip("scenario produced no predictions")

            predictor = fitted_elsa.hybrid_predictor()
            predictor.breakers = ComponentBreakers(
                failure_threshold=1, clock=lambda: 0.0
            )

            def explode(chain, anchor_loc):
                raise RuntimeError("location model corrupted")

            # the location model is the shared session model's own;
            # monkeypatch puts its method back for the tests after this
            monkeypatch.setattr(
                predictor.location_predictor, "predict", explode
            )
            degraded = predictor.run(stream)
            # same prediction stream, locations fall back to the anchor
            assert len(degraded) == len(baseline)
            for d, b in zip(degraded, baseline):
                assert d.emitted_at == b.emitted_at
                assert len(d.locations) == 1
            assert predictor.breakers.tripped() == {"locations": "open"}
        finally:
            fitted_elsa.restore_online_state(helo_state)

    def test_failed_detection_block_degrades_every_anchor_once(
        self, fitted_elsa, small_scenario, monkeypatch
    ):
        """One ``tick_many`` failure costs the whole block of samples it
        would have closed: every anchor is listed once as degraded,
        nothing triggers inside the block, and later blocks predict."""
        from repro.signals.bank import VectorizedDetectorBank

        helo_state = fitted_elsa.online_state_dict()
        try:
            stream = fitted_elsa.make_stream(
                small_scenario.records,
                small_scenario.train_end,
                small_scenario.t_end,
            )
            t0, period = stream.t_start, stream.sampling_period

            def sample_of(pred):
                # a prediction triggers as its anchor's sample closes
                return round((pred.trigger_time - t0) / period) - 1

            healthy = fitted_elsa.hybrid_predictor().run(stream)
            assert healthy
            target = min(sample_of(p) for p in healthy)
            tick_many = VectorizedDetectorBank.tick_many
            closed = [0]
            failed = []

            def fail_once(bank, values):
                lo = closed[0]
                closed[0] += values.shape[1]
                if not failed and lo <= target < closed[0]:
                    failed.append((lo, closed[0]))
                    raise FloatingPointError("numerical pathology")
                return tick_many(bank, values)

            monkeypatch.setattr(
                VectorizedDetectorBank, "tick_many", fail_once
            )
            predictor = fitted_elsa.hybrid_predictor()
            predictor.breakers = ComponentBreakers(
                failure_threshold=10, clock=lambda: 0.0
            )
            predictions = predictor.run(stream)  # must not raise
        finally:
            fitted_elsa.restore_online_state(helo_state)
        (lo, hi), = failed
        anchors = sorted({c.anchor for c in predictor.chains})
        assert predictor.degraded_anchors == anchors
        assert not [p for p in predictions if lo <= sample_of(p) < hi]
        assert [p for p in predictions if sample_of(p) >= hi]

    def test_foreign_detector_rejected_at_construction(
        self, fitted_elsa, small_scenario
    ):
        """The detector bank is the engine's only detector store: a
        detector class it cannot hold fails the engine's construction."""
        from repro.prediction.engine import HybridPredictor
        from repro.signals.bank import BankLayoutError

        class ForeignDetector:
            def process(self, v):
                return False, v

        class ForeignEngine(HybridPredictor):
            def _make_detector(self, tid):
                return ForeignDetector()

        with pytest.raises(BankLayoutError):
            ForeignEngine.from_model(
                fitted_elsa.model, fitted_elsa.config,
                t_start=small_scenario.train_end, t_end=small_scenario.t_end,
            )

    @pytest.mark.parametrize("route", ["resumable", "run"])
    def test_open_signals_breaker_degrades_each_anchor_once(
        self, fitted_elsa, small_scenario, route
    ):
        """With the signals breaker held open, every anchor is listed
        once, in first-degraded order, and every skipped (anchor,
        closed sample) pair is counted."""
        from repro.resilience.checkpoint import ResumableRun

        sc = small_scenario
        helo_state = fitted_elsa.online_state_dict()
        breakers = ComponentBreakers(failure_threshold=1, clock=lambda: 0.0)
        breakers.guarded("signals", boom)  # open, and never cools down
        counter = obs.counter("predictor.anchors_degraded")
        before = counter.value
        try:
            if route == "resumable":
                run = ResumableRun(fitted_elsa, sc.train_end, sc.t_end)
                run.history = None
                run.slo = None
                predictor = run.predictor
                predictor.breakers = breakers
                run.run(sc.records)
                n_samples = predictor.n_samples
            else:
                stream = fitted_elsa.make_stream(
                    sc.records, sc.train_end, sc.t_end
                )
                predictor = fitted_elsa.hybrid_predictor()
                predictor.breakers = breakers
                predictor.run(stream)
                n_samples = stream.signals.n_samples
        finally:
            fitted_elsa.restore_online_state(helo_state)
        anchors = sorted({c.anchor for c in predictor.chains})
        assert anchors
        assert predictor.degraded_anchors == anchors
        assert counter.value - before == len(anchors) * n_samples

    def test_rate_baseline_rung_predicts_alike_on_every_route(
        self, fitted_elsa, small_scenario
    ):
        """With the signals breaker held open and a ladder attached, the
        bottom rung's rate baseline flags anchors; every route emits the
        same non-empty predictions and degrades each anchor once."""
        from repro.lifecycle.ladder import DegradationLadder, Rung
        from repro.resilience.checkpoint import ResumableRun

        sc = small_scenario
        counter = obs.counter("predictor.anchors_degraded")

        def open_breakers():
            breakers = ComponentBreakers(
                failure_threshold=1, clock=lambda: 0.0
            )
            breakers.guarded("signals", boom)  # open, never cools down
            return breakers

        def drive(route):
            helo_state = fitted_elsa.online_state_dict()
            before = counter.value
            try:
                if route == "run":
                    stream = fitted_elsa.make_stream(
                        sc.records, sc.train_end, sc.t_end
                    )
                    predictor = fitted_elsa.hybrid_predictor()
                    predictor.breakers = open_breakers()
                    predictor.attach_ladder(DegradationLadder())
                    predictions = predictor.run(stream)
                    n_samples = stream.signals.n_samples
                else:
                    run = ResumableRun(
                        fitted_elsa, sc.train_end, sc.t_end,
                        batch_size=route,
                    )
                    run.history = None
                    run.slo = None
                    predictor = run.predictor
                    predictor.breakers = open_breakers()
                    predictor.attach_ladder(DegradationLadder())
                    predictions = run.run(sc.records)
                    n_samples = predictor.n_samples
            finally:
                fitted_elsa.restore_online_state(helo_state)
            anchors = sorted({c.anchor for c in predictor.chains})
            assert anchors
            assert predictor.ladder.rung == Rung.RATE_BASELINE
            assert predictor.degraded_anchors == anchors
            assert counter.value - before == len(anchors) * n_samples
            return json.dumps([p.to_dict() for p in predictions])

        tiny = drive(13)
        assert json.loads(tiny)  # the rate baseline must actually fire
        assert drive(4096) == tiny
        assert drive("run") == tiny


class TestThreadSafety:
    """The breaker is shared mutable state (PR satellite).

    The fleet's telemetry thread reads breaker health while the pump
    thread records outcomes; without the internal lock the half-open
    handoff could admit several concurrent probes and a success/failure
    race could wedge the state machine.
    """

    def test_half_open_admits_exactly_one_probe_across_threads(self):
        import threading

        clock = FakeClock()
        br = CircuitBreaker(
            "concurrent", failure_threshold=1, cooldown_seconds=5.0,
            clock=clock,
        )
        br.record_failure()
        assert br.state is BreakerState.OPEN
        clock.advance(10.0)  # cooldown elapsed: next allow() arms a probe

        admitted = []
        barrier = threading.Barrier(8)

        def probe():
            barrier.wait()
            if br.allow():
                admitted.append(threading.get_ident())

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(admitted) == 1
        assert br.state is BreakerState.HALF_OPEN

    def test_concurrent_outcomes_leave_a_consistent_state(self):
        import threading

        clock = FakeClock()
        br = CircuitBreaker(
            "hammered", failure_threshold=3, cooldown_seconds=0.0,
            clock=clock,
        )
        barrier = threading.Barrier(16)

        def hammer(i):
            barrier.wait()
            for _ in range(200):
                if br.allow():
                    if i % 2:
                        br.record_failure()
                    else:
                        br.record_success()

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # no crash, and the machine landed in a legal state
        assert br.state in (
            BreakerState.CLOSED, BreakerState.OPEN, BreakerState.HALF_OPEN
        )
        assert br.consecutive_failures >= 0

    def test_component_breakers_get_is_race_free(self):
        import threading

        cbs = ComponentBreakers(failure_threshold=3)
        got = []
        barrier = threading.Barrier(8)

        def fetch():
            barrier.wait()
            got.append(cbs.get("shared"))

        threads = [threading.Thread(target=fetch) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(b) for b in got}) == 1
