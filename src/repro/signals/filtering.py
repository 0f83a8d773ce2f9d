"""Causal moving filters.

The online outlier detector is "a filtering signal analysis module so that
it can be easily inserted between signal analysis modules" built on "a
causal moving data window … appropriate to realtime applications"
(section III.B.1).  This module provides the causal moving median and
average as offline transforms over whole training signals, and
:class:`RollingMedian`, the O(log N)-per-point sliding median behind
:func:`causal_moving_median`.
:class:`repro.signals.outliers.OnlineOutlierDetector` keeps its own
window, ``_DualWindow``: raw and corrected history in one sorted view.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Deque, List, Optional

import numpy as np


def causal_moving_median(x: np.ndarray, window: int) -> np.ndarray:
    """Median of the trailing ``window`` samples (inclusive) at each point.

    The first samples use the partial prefix (growing window), so the
    output is defined everywhere and the filter is strictly causal.
    """
    x = np.asarray(x, dtype=np.float64)
    if window < 1:
        raise ValueError("window must be >= 1")
    med = RollingMedian(window)
    out = np.empty_like(x)
    for i, v in enumerate(x):
        med.push(float(v))
        out[i] = med.median()
    return out


def causal_moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Mean of the trailing ``window`` samples (inclusive) at each point.

    Fully vectorized with a cumulative sum; the growing-prefix convention
    matches :func:`causal_moving_median`.
    """
    x = np.asarray(x, dtype=np.float64)
    if window < 1:
        raise ValueError("window must be >= 1")
    csum = np.cumsum(x)
    out = np.empty_like(x)
    head = min(window, x.size)
    out[:head] = csum[:head] / (np.arange(head) + 1)
    if x.size > window:
        out[window:] = (csum[window:] - csum[:-window]) / window
    return out


class RollingMedian:
    """Sliding-window median with O(log N) push.

    Keeps the window contents in a sorted list (bisect insort) plus an
    eviction queue.  For the paper's two-month windows (~half a million
    samples) the per-push cost is a few microseconds — dominated by the
    ``list.insert`` memmove, which numpy cannot improve on without a
    dedicated indexable skip list.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._sorted: List[float] = []
        self._queue: Deque[float] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, value: float) -> Optional[float]:
        """Insert ``value``; evicts and returns the oldest when full."""
        evicted: Optional[float] = None
        if len(self._queue) == self.capacity:
            evicted = self._queue.popleft()
            idx = bisect.bisect_left(self._sorted, evicted)
            del self._sorted[idx]
        self._queue.append(value)
        bisect.insort(self._sorted, value)
        return evicted

    def replace_newest(self, value: float) -> None:
        """Swap the most recent sample (outlier replacement support)."""
        if not self._queue:
            raise IndexError("empty window")
        old = self._queue.pop()
        idx = bisect.bisect_left(self._sorted, old)
        del self._sorted[idx]
        self._queue.append(value)
        bisect.insort(self._sorted, value)

    def median(self) -> float:
        """Current window median (average of middles for even sizes)."""
        s = self._sorted
        n = len(s)
        if n == 0:
            raise IndexError("median of empty window")
        mid = n // 2
        if n % 2:
            return s[mid]
        return 0.5 * (s[mid - 1] + s[mid])

    def quantile(self, q: float) -> float:
        """Order-statistic quantile of the current window (nearest rank)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        s = self._sorted
        if not s:
            raise IndexError("quantile of empty window")
        idx = min(len(s) - 1, int(round(q * (len(s) - 1))))
        return s[idx]
