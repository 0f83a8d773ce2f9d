"""Per-lag Pearson loop: the oracle of ``cross_correlation``."""

from __future__ import annotations

import numpy as np


def cross_correlation_loop(
    x: np.ndarray, y: np.ndarray, max_lag: int
) -> np.ndarray:
    """``corr[lag] = corr(x[t], y[t+lag])`` for lags 0..``max_lag``,
    one overlap at a time (zero where either window is constant)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = np.zeros(max_lag + 1)
    for lag in range(max_lag + 1):
        a = x[: x.size - lag]
        b = y[lag:]
        sa, sb = a.std(), b.std()
        if sa <= 0 or sb <= 0:
            continue
        out[lag] = float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))
    return out
