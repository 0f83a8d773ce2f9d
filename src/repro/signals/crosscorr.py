"""Lagged cross-correlation of signals and outlier trains.

The signal cross-correlation function provides the 2-pair correlations
that seed GRITE's first tree level (section III.C).  Two views are
provided:

* :func:`cross_correlation` — classic normalized cross-correlation of two
  dense signals over non-negative lags;
* :func:`correlate_outlier_trains` — the sparse, outlier-train view used
  in practice: given the outlier sample indices of two signals, find the
  delay at which outliers of B most often follow outliers of A, and how
  reliably.  This is what "we are correlating signals based on the
  occurrences of outliers in them" means operationally, and it is orders
  of magnitude cheaper than dense correlation when outliers are rare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


def cross_correlation(
    x: np.ndarray, y: np.ndarray, max_lag: int
) -> np.ndarray:
    """Normalized cross-correlation ``corr[lag] = corr(x[t], y[t+lag])``.

    Lags run from 0 to ``max_lag`` inclusive; both inputs are centered and
    scaled, so outputs are Pearson correlations in ``[-1, 1]`` (zero when
    either window is constant).  One :class:`CachedCorrelator` over
    ``x`` computes it.
    """
    return CachedCorrelator(x, max_lag).correlate(y)


class CachedCorrelator:
    """Repeated lag correlation against one cached reference signal.

    For lag ℓ the overlap is ``a = x[:n-ℓ]``, ``b = y[ℓ:]``.  The cross
    term ``Σ a·b`` for *every* ℓ is one circular correlation (real FFTs
    with zero padding); per-lag sums and sums of squares of the two
    windows come from prefix sums, giving means and variances in O(1)
    per lag — O(n log n) in all instead of a per-lag loop's O(lags·n).
    Windows whose variance underflows are reported as 0.

    A drift check correlates the *same* anchor history against a fresh
    observation window every time it fires, so everything derivable
    from the reference — its padded FFT (conjugated), prefix sums, and
    per-lag means/variances — is computed once here, and each
    :meth:`correlate` call pays one FFT of the query signal plus
    O(lags) arithmetic.
    """

    def __init__(self, reference: np.ndarray, max_lag: int) -> None:
        x = np.asarray(reference, dtype=np.float64)
        if max_lag < 0 or max_lag >= x.size:
            raise ValueError("max_lag out of range")
        self.n = x.size
        self.max_lag = int(max_lag)
        lags = np.arange(self.max_lag + 1)
        self._length = self.n - lags
        self._m = 1 << int(np.ceil(np.log2(2 * self.n)))
        self._fx_conj = np.conj(np.fft.rfft(x, self._m))
        cx = np.cumsum(x)
        cx2 = np.cumsum(x * x)
        sum_a = cx[self._length - 1]
        sum_a2 = cx2[self._length - 1]
        self._mean_a = sum_a / self._length
        var_a = sum_a2 / self._length - self._mean_a * self._mean_a
        eps_a = 1e-12 * np.maximum(1.0, sum_a2 / self._length)
        self._ok_a = var_a > eps_a
        self._var_a = var_a

    def correlate(self, y: np.ndarray) -> np.ndarray:
        """Pearson correlation per lag of ``y`` against the reference."""
        y = np.asarray(y, dtype=np.float64)
        if y.size != self.n:
            raise ValueError("signals must share length")
        length = self._length
        max_lag = self.max_lag
        fy = np.fft.rfft(y, self._m)
        cross = np.fft.irfft(self._fx_conj * fy, self._m)[: max_lag + 1]
        cy = np.cumsum(y)
        cy2 = np.cumsum(y * y)
        sum_b = cy[-1] - np.concatenate(([0.0], cy[:max_lag]))
        sum_b2 = cy2[-1] - np.concatenate(([0.0], cy2[:max_lag]))
        mean_b = sum_b / length
        var_b = sum_b2 / length - mean_b * mean_b
        eps_b = 1e-12 * np.maximum(1.0, sum_b2 / length)
        ok = self._ok_a & (var_b > eps_b)
        cov = cross / length - self._mean_a * mean_b
        out = np.zeros(max_lag + 1)
        denom = np.sqrt(np.where(ok, self._var_a * var_b, 1.0))
        out[ok] = (cov / denom)[ok]
        return out

    def best(self, y: np.ndarray) -> Tuple[int, float]:
        """Lag maximizing :meth:`correlate` and its correlation."""
        corr = self.correlate(y)
        lag = int(np.argmax(corr))
        return lag, float(corr[lag])


def best_lag_correlation(
    x: np.ndarray, y: np.ndarray, max_lag: int
) -> Tuple[int, float]:
    """Lag in ``[0, max_lag]`` maximizing the cross-correlation."""
    corr = cross_correlation(x, y, max_lag)
    lag = int(np.argmax(corr))
    return lag, float(corr[lag])


@dataclass(frozen=True)
class PairCorrelation:
    """A 2-pair correlation: outliers of B follow outliers of A.

    ``delay`` is in samples; ``strength`` is the fraction of A-outliers
    followed by a B-outlier at ``delay`` (± tolerance) — the empirical
    P(B | A, θ).  ``n_matches`` of ``n_a`` A-outliers matched; ``n_b`` is
    B's total outlier count (used for the significance test downstream).
    """

    delay: int
    strength: float
    n_matches: int
    n_a: int
    n_b: int


def effective_tolerance(
    delay: int, tolerance: int = 1, rel_tolerance: float = 0.35
) -> int:
    """Matching half-window for a given delay.

    Inter-event delays jitter roughly proportionally to their size (a
    node-card chain's hour-scale steps wander by minutes), so the match
    window grows with the delay.  This is also why "for delays larger
    than 5 minutes, the larger the delay the lower the similarity degree
    and so the lower the confidence" (section IV.B): wider windows dilute
    the per-sample evidence.
    """
    return max(int(tolerance), int(rel_tolerance * delay))


def correlate_outlier_trains(
    times_a: np.ndarray,
    times_b: np.ndarray,
    max_lag: int,
    tolerance: int = 1,
    rel_tolerance: float = 0.35,
    min_matches: int = 2,
) -> Optional[PairCorrelation]:
    """Best fixed-delay correlation between two outlier trains.

    Every (A-outlier, B-outlier) pair within ``max_lag`` contributes its
    delay to a histogram.  Candidate delays are scored by the histogram
    mass inside their :func:`effective_tolerance` window (so long, jittery
    delays still accumulate evidence); the best-scoring delay wins, ties
    to the smallest.  Strength counts the fraction of A-outliers with at
    least one B match inside the winning window.  Returns ``None`` when
    fewer than ``min_matches`` A-outliers match.
    """
    a = np.asarray(times_a, dtype=np.int64)
    b = np.asarray(times_b, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return None
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    b = np.sort(b)
    lo = np.searchsorted(b, a, side="left")
    hi = np.searchsorted(b, a + max_lag, side="right")
    per_a = hi - lo
    total = int(per_a.sum())
    if total == 0:
        return None
    # Flatten all (b - a) delay pairs without a Python loop: for each a_i
    # the matching b indices are lo_i .. hi_i - 1.
    starts = np.repeat(np.cumsum(per_a) - per_a, per_a)
    flat_idx = np.arange(total) - starts + np.repeat(lo, per_a)
    diffs = b[flat_idx] - np.repeat(a, per_a)
    counts = np.bincount(diffs, minlength=max_lag + 1)[: max_lag + 1]

    # Windowed score per candidate delay, window growing with the delay.
    cum = np.concatenate([[0], np.cumsum(counts)])
    delays = np.arange(max_lag + 1)
    widths = np.maximum(int(tolerance), (rel_tolerance * delays).astype(np.int64))
    w_lo = np.maximum(0, delays - widths)
    w_hi = np.minimum(max_lag, delays + widths)
    scores = cum[w_hi + 1] - cum[w_lo]
    # Normalize by window size so wide windows do not win on bulk alone.
    scores = scores / (w_hi - w_lo + 1)
    best = int(np.argmax(scores))
    # Left-clipped windows near lag 0 have small denominators, biasing the
    # argmax toward 0; refine to the mass-weighted mean delay inside the
    # winning window so a true 1-3 sample lag is not snapped to zero.
    lo_b, hi_b = int(w_lo[best]), int(w_hi[best])
    mass = counts[lo_b : hi_b + 1]
    if mass.sum() > 0:
        delay = int(round(np.average(np.arange(lo_b, hi_b + 1), weights=mass)))
    else:  # pragma: no cover - mass>0 guaranteed by total>0 at argmax
        delay = best

    width = effective_tolerance(delay, tolerance, rel_tolerance)
    d_lo, d_hi = max(0, delay - width), delay + width
    matched = np.count_nonzero(
        np.searchsorted(b, a + d_hi, side="right")
        > np.searchsorted(b, a + d_lo, side="left")
    )
    if matched < min_matches:
        return None
    return PairCorrelation(
        delay=delay,
        strength=matched / a.size,
        n_matches=int(matched),
        n_a=int(a.size),
        n_b=int(b.size),
    )
