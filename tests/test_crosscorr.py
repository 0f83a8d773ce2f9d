"""Tests for cross-correlation and outlier-train pairing."""

import numpy as np
import pytest

from repro.signals.crosscorr import (
    CachedCorrelator,
    PairCorrelation,
    best_lag_correlation,
    correlate_outlier_trains,
    cross_correlation,
    effective_tolerance,
)
from tests.reference.crosscorr import cross_correlation_loop


class TestCrossCorrelation:
    def test_self_correlation_lag_zero(self):
        x = np.random.default_rng(0).normal(size=500)
        corr = cross_correlation(x, x, max_lag=10)
        assert corr[0] == pytest.approx(1.0)
        assert corr[0] >= corr[1:].max()

    def test_recovers_shift(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=1000)
        y = np.roll(x, 7)
        lag, strength = best_lag_correlation(x, y, max_lag=20)
        assert lag == 7
        assert strength > 0.9

    def test_constant_signal_zero(self):
        x = np.ones(100)
        y = np.random.default_rng(2).normal(size=100)
        assert np.allclose(cross_correlation(x, y, 5), 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cross_correlation(np.zeros(5), np.zeros(6), 1)

    def test_bad_lag(self):
        with pytest.raises(ValueError):
            cross_correlation(np.zeros(5), np.zeros(5), 10)

    def test_bounded(self):
        rng = np.random.default_rng(3)
        corr = cross_correlation(rng.normal(size=200),
                                 rng.normal(size=200), 20)
        assert (np.abs(corr) <= 1.0 + 1e-9).all()


class TestFFTPath:
    """The FFT kernel is the per-lag loop oracle up to float round-off."""

    def test_fft_matches_loop(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=800)
        y = np.roll(x, 12) + 0.1 * rng.normal(size=800)
        loop = cross_correlation_loop(x, y, max_lag=64)
        fft = cross_correlation(x, y, max_lag=64)
        np.testing.assert_allclose(fft, loop, atol=1e-8)

    def test_fft_on_sparse_trains(self):
        # outlier trains are mostly zeros — the production shape
        rng = np.random.default_rng(8)
        x = (rng.random(2000) < 0.02).astype(float)
        y = np.roll(x, 5)
        loop = cross_correlation_loop(x, y, max_lag=30)
        fft = cross_correlation(x, y, max_lag=30)
        np.testing.assert_allclose(fft, loop, atol=1e-8)

    def test_fft_constant_windows_zero(self):
        x = np.concatenate([np.ones(50), np.zeros(50)])
        y = np.ones(100)
        assert np.allclose(cross_correlation(x, y, 10), 0.0)

    def test_cached_correlator_matches_fft(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=600)
        cached = CachedCorrelator(x, max_lag=40)
        for seed in range(3):
            y = np.roll(x, 9) + 0.2 * np.random.default_rng(seed).normal(
                size=600
            )
            ref = cross_correlation(x, y, max_lag=40)
            np.testing.assert_array_equal(cached.correlate(y), ref)
            np.testing.assert_allclose(
                ref, cross_correlation_loop(x, y, max_lag=40), atol=1e-8
            )

    def test_cached_correlator_best(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=1000)
        cached = CachedCorrelator(x, max_lag=30)
        lag, corr = cached.best(np.roll(x, 13))
        assert lag == 13
        assert corr > 0.9

    def test_cached_correlator_length_mismatch(self):
        cached = CachedCorrelator(np.arange(20.0), max_lag=4)
        with pytest.raises(ValueError):
            cached.correlate(np.zeros(19))


class TestEffectiveTolerance:
    def test_floor(self):
        assert effective_tolerance(0, tolerance=2) == 2
        assert effective_tolerance(3, tolerance=2) == 2

    def test_grows_with_delay(self):
        assert effective_tolerance(100, tolerance=2, rel_tolerance=0.35) == 35

    def test_monotone(self):
        widths = [effective_tolerance(d) for d in range(0, 200, 10)]
        assert widths == sorted(widths)


class TestCorrelateOutlierTrains:
    def test_exact_delay(self):
        a = np.array([10, 50, 200, 400, 700])
        b = a + 6
        pc = correlate_outlier_trains(a, b, max_lag=30)
        assert pc is not None
        assert pc.delay == 6
        assert pc.strength == pytest.approx(1.0)
        assert pc.n_matches == 5

    def test_jittered_delay(self):
        rng = np.random.default_rng(4)
        a = np.sort(rng.choice(100000, 50, replace=False))
        b = a + 60 + rng.integers(-15, 16, size=50)
        pc = correlate_outlier_trains(a, b, max_lag=120, rel_tolerance=0.35)
        assert pc is not None
        assert 45 <= pc.delay <= 75
        assert pc.strength > 0.8

    def test_small_true_delay_not_snapped_to_zero(self):
        # Regression: delay-0 windows are left-clipped and used to win.
        a = np.arange(0, 5000, 100)
        b = a + 2
        pc = correlate_outlier_trains(a, b, max_lag=30)
        assert pc.delay == 2

    def test_empty_trains(self):
        assert correlate_outlier_trains(np.array([]), np.array([1]), 10) is None
        assert correlate_outlier_trains(np.array([1]), np.array([]), 10) is None

    def test_no_matches_in_range(self):
        a = np.array([10, 20])
        b = np.array([5000, 6000])
        assert correlate_outlier_trains(a, b, max_lag=30) is None

    def test_min_matches_enforced(self):
        a = np.array([10, 5000])
        b = np.array([16])
        assert correlate_outlier_trains(a, b, max_lag=30, min_matches=2) is None

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            correlate_outlier_trains(np.array([1]), np.array([2]), -1)

    def test_unrelated_trains_weak(self):
        rng = np.random.default_rng(5)
        a = np.sort(rng.choice(100000, 40, replace=False))
        b = np.sort(rng.choice(100000, 40, replace=False))
        pc = correlate_outlier_trains(a, b, max_lag=60, min_matches=2)
        # may find a coincidental delay but never a strong one
        if pc is not None:
            assert pc.strength < 0.5

    def test_counts_fields(self):
        a = np.array([0, 100])
        b = np.array([5, 105, 900])
        pc = correlate_outlier_trains(a, b, max_lag=20)
        assert pc.n_a == 2 and pc.n_b == 3
        assert pc.delay == 5
