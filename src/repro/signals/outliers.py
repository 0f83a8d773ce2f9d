"""Outlier detection: offline (training) and online (streaming).

Online detection follows section III.B.1 exactly: for a window of N
points the analyzed list for the current sample ``y_k`` is::

    V_k = {yc_{k-N}, ..., yc_{k-1},  y_{k-N}, ..., y_k}

i.e. the *corrected* history and the *raw* history together.  ``y_k`` is
compared with the median ``ym`` of ``V_k``; when the distance exceeds the
per-signal threshold, ``y_k`` is declared an outlier and the replacement
``yc_k = ym`` is recorded (the raw value is kept too).  Keeping both is
the paper's defence against "a large number of faults hitting the same
signal for a larger period of time": replacements anchor the median while
raw values keep legitimate drifts visible.

Offline detection is the vectorized batch analogue used during the
training phase, where execution time is unconstrained.
"""

from __future__ import annotations

import base64
import bisect
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.signals.characterize import NormalBehavior
from repro.simulation.templates import SignalClass


@dataclass
class OutlierResult:
    """Outcome of scanning one signal.

    ``flags`` marks outlier samples; ``corrected`` is the signal with
    outliers replaced; ``indices`` lists the outlier sample positions.
    """

    flags: np.ndarray
    corrected: np.ndarray

    @property
    def indices(self) -> np.ndarray:
        """Sorted sample indices of the outliers."""
        return np.flatnonzero(self.flags)

    @property
    def n_outliers(self) -> int:
        """Total outliers found."""
        return int(self.flags.sum())


#: zlib level of the ring encoding: the fastest, because checkpoints are
#: written on the serving path; an all-zero day-long ring (8,641
#: samples, 69 KB of float64) still encodes to 432 characters
RING_ZLIB_LEVEL = 1


def encode_ring(values) -> str:
    """A window ring as text: base64 of zlib-compressed little-endian
    float64 bytes.

    Exact for every float64 (``-0.0``, subnormals, infinities, NaN
    payloads), and short for the silent signals that fill most windows
    (Fig. 1), where a JSON float list spends five characters per
    ``0.0``.
    """
    data = np.asarray(values, dtype="<f8").tobytes()
    return base64.b64encode(zlib.compress(data, RING_ZLIB_LEVEL)).decode(
        "ascii"
    )


def decode_ring(state) -> np.ndarray:
    """The float64 values of a ring: :func:`encode_ring` text, or the
    JSON float list that checkpoints held before it."""
    if not isinstance(state, str):
        return np.array([float(v) for v in state], dtype=np.float64)
    try:
        data = zlib.decompress(base64.b64decode(state, validate=True))
    except (ValueError, zlib.error) as exc:  # binascii.Error: ValueError
        raise ValueError(f"corrupt ring encoding: {exc}") from exc
    return np.frombuffer(data, dtype="<f8")


class _DualWindow:
    """Bounded raw+corrected history with a shared sorted view.

    Holds up to ``capacity + 1`` raw points (history plus the current
    sample) and up to ``capacity`` corrected points, exactly matching the
    paper's ``V_k``.  Median queries read the combined sorted list.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._raw: Deque[float] = deque()
        self._corr: Deque[float] = deque()
        self._sorted: List[float] = []

    def _insert(self, v: float) -> None:
        bisect.insort(self._sorted, v)

    def _remove(self, v: float) -> None:
        idx = bisect.bisect_left(self._sorted, v)
        del self._sorted[idx]

    def push_raw(self, v: float) -> None:
        """Add the current raw sample, evicting beyond capacity + 1."""
        self._raw.append(v)
        self._insert(v)
        if len(self._raw) > self.capacity + 1:
            self._remove(self._raw.popleft())

    def push_corrected(self, v: float) -> None:
        """Add the previous sample's corrected value."""
        self._corr.append(v)
        self._insert(v)
        if len(self._corr) > self.capacity:
            self._remove(self._corr.popleft())

    def median(self) -> float:
        """Median of the combined raw + corrected window."""
        s = self._sorted
        n = len(s)
        if n == 0:
            raise IndexError("median of empty window")
        mid = n // 2
        if n % 2:
            return s[mid]
        return 0.5 * (s[mid - 1] + s[mid])

    def state_dict(self) -> dict:
        """JSON-ready window contents, each ring as :func:`encode_ring`
        text (the sorted view is derivable)."""
        return {
            "capacity": self.capacity,
            "raw": encode_ring(self._raw),
            "corr": encode_ring(self._corr),
        }

    @classmethod
    def from_state(cls, state: dict) -> "_DualWindow":
        """Rebuild a window from :meth:`state_dict` output; rings may be
        encoded text or, as older checkpoints hold them, float lists."""
        win = cls(int(state["capacity"]))
        win._raw = deque(decode_ring(state["raw"]).tolist())
        win._corr = deque(decode_ring(state["corr"]).tolist())
        win._sorted = sorted(list(win._raw) + list(win._corr))
        return win


class OnlineOutlierDetector:
    """Streaming causal outlier detector with replacement (Fig. 3).

    Parameters
    ----------
    threshold:
        Distance bound from the window median; use the value derived by
        :func:`repro.signals.characterize.derive_threshold` for the
        signal's class ("predefined thresholds for each signal, specified
        automatically in the preprocessing step").
    window:
        N, in samples.  The paper uses two months (518 400 samples at the
        10-second sampling period); scaled scenarios use less.
    warmup:
        Samples to observe before flagging anything, so the window median
        is meaningful from the first decision on.
    """

    def __init__(
        self, threshold: float, window: int, warmup: Optional[int] = None
    ) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = float(threshold)
        self.window = int(window)
        self.warmup = int(warmup) if warmup is not None else min(window, 16)
        self._dual = _DualWindow(self.window)
        self._seen = 0

    def process(self, value: float) -> Tuple[bool, float]:
        """Consume one sample; returns ``(is_outlier, corrected_value)``."""
        self._dual.push_raw(float(value))
        median = self._dual.median()
        is_outlier = (
            self._seen >= self.warmup
            and abs(float(value) - median) > self.threshold
        )
        corrected = median if is_outlier else float(value)
        self._dual.push_corrected(corrected)
        self._seen += 1
        return is_outlier, corrected

    def process_array(self, x: np.ndarray) -> OutlierResult:
        """Scan a whole signal, sample by sample (still strictly causal)."""
        x = np.asarray(x, dtype=np.float64)
        flags = np.zeros(x.size, dtype=bool)
        corrected = np.empty_like(x)
        for i, v in enumerate(x):
            out, corr = self.process(float(v))
            flags[i] = out
            corrected[i] = corr
        return OutlierResult(flags=flags, corrected=corrected)

    def state_dict(self) -> dict:
        """Checkpointable state; restoring it resumes the exact stream."""
        return {
            "kind": "median",
            "threshold": self.threshold,
            "window": self.window,
            "warmup": self.warmup,
            "seen": self._seen,
            "dual": self._dual.state_dict(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlineOutlierDetector":
        det = cls(
            threshold=float(state["threshold"]),
            window=int(state["window"]),
            warmup=int(state["warmup"]),
        )
        det._seen = int(state["seen"])
        det._dual = _DualWindow.from_state(state["dual"])
        return det


def periodic_gap_outliers(
    x: np.ndarray,
    period: int,
    gap_factor: float = 1.8,
    burst_factor: float = 2.5,
) -> OutlierResult:
    """Outliers of a periodic (beat) signal: missing beats and bursts.

    A phase-aligned seasonal baseline is fragile — a period estimate off
    by a fraction of a sample drifts out of phase and floods the residual
    with false outliers.  Beat signals are better judged by their *gaps*:
    a silence longer than ``gap_factor`` periods is the paper's
    "lack of messages in the log" anomaly (node-crash syndrome), flagged
    once at the first missing beat of each silence; a beat carrying more
    than ``burst_factor`` times the typical amplitude is a burst anomaly.

    The corrected signal fills missing beats with the typical amplitude
    and clips bursts to it, mirroring the replacement strategy of the
    moving-median filter.
    """
    x = np.asarray(x, dtype=np.float64)
    if period < 1:
        raise ValueError("period must be >= 1")
    flags = np.zeros(x.size, dtype=bool)
    corrected = x.copy()
    beats = np.flatnonzero(x)
    if beats.size == 0:
        return OutlierResult(flags=flags, corrected=corrected)
    amplitude = float(np.median(x[beats]))

    # Bursts: beats far above the typical amplitude.
    burst = x > burst_factor * max(amplitude, 1.0)
    flags |= burst
    corrected[burst] = amplitude

    # Gaps: one outlier at the head of each silence.
    gap_limit = gap_factor * period
    prev = beats[:-1]
    nxt = beats[1:]
    gap_mask = (nxt - prev) > gap_limit
    for p in prev[gap_mask]:
        idx = int(p + period)
        if idx < flags.size:
            flags[idx] = True
            corrected[idx] = amplitude
    return OutlierResult(flags=flags, corrected=corrected)


class OnlinePeriodicDetector:
    """Streaming absence/burst detector for periodic signals.

    Tracks the last observed beat; when the silence since it exceeds
    ``gap_factor`` periods, one absence outlier is emitted (further
    silence stays quiet until beats resume — the component is already
    known to be down).  Bursts are flagged like the offline detector.  This
    is the online path that lets the hybrid method predict failures whose
    only symptom is a *lack* of notifications — the signal class plain
    data mining cannot see at all (section III).
    """

    def __init__(
        self,
        period: int,
        amplitude: float = 1.0,
        gap_factor: float = 1.8,
        burst_factor: float = 2.5,
    ) -> None:
        if period < 1:
            raise ValueError("period must be >= 1")
        self.period = int(period)
        self.amplitude = float(max(amplitude, 1.0))
        self.gap_factor = gap_factor
        self.burst_factor = burst_factor
        self._last_beat: Optional[int] = None
        self._gap_reported = False
        self._k = -1

    def process(self, value: float) -> Tuple[bool, float]:
        """Consume one sample; returns ``(is_outlier, corrected)``."""
        self._k += 1
        k = self._k
        if value > 0:
            burst = value > self.burst_factor * self.amplitude
            self._last_beat = k
            self._gap_reported = False
            return burst, (self.amplitude if burst else float(value))
        if self._last_beat is None or self._gap_reported:
            return False, 0.0
        if k - self._last_beat > self.gap_factor * self.period:
            self._gap_reported = True
            return True, self.amplitude
        return False, 0.0

    def process_array(self, x: np.ndarray) -> OutlierResult:
        """Scan a whole signal through the streaming detector."""
        x = np.asarray(x, dtype=np.float64)
        flags = np.zeros(x.size, dtype=bool)
        corrected = np.empty_like(x)
        for i, v in enumerate(x):
            out, corr = self.process(float(v))
            flags[i] = out
            corrected[i] = corr
        return OutlierResult(flags=flags, corrected=corrected)

    def state_dict(self) -> dict:
        """Checkpointable state; restoring it resumes the exact stream."""
        return {
            "kind": "periodic",
            "period": self.period,
            "amplitude": self.amplitude,
            "gap_factor": self.gap_factor,
            "burst_factor": self.burst_factor,
            "last_beat": self._last_beat,
            "gap_reported": self._gap_reported,
            "k": self._k,
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlinePeriodicDetector":
        det = cls(
            period=int(state["period"]),
            amplitude=float(state["amplitude"]),
            gap_factor=float(state["gap_factor"]),
            burst_factor=float(state["burst_factor"]),
        )
        det._last_beat = (
            None if state["last_beat"] is None else int(state["last_beat"])
        )
        det._gap_reported = bool(state["gap_reported"])
        det._k = int(state["k"])
        return det


def restore_detector(state: dict):
    """Rebuild either online detector kind from its ``state_dict``."""
    if state["kind"] == "median":
        return OnlineOutlierDetector.from_state(state)
    if state["kind"] == "periodic":
        return OnlinePeriodicDetector.from_state(state)
    raise ValueError(f"unknown detector kind {state['kind']!r}")


def detect_outliers_offline(
    x: np.ndarray, behavior: NormalBehavior
) -> OutlierResult:
    """Vectorized batch outlier detection for the training phase.

    Silent and noise signals compare against their scalar median with the
    class threshold; periodic signals use gap/burst detection (see
    :func:`periodic_gap_outliers`).
    """
    x = np.asarray(x, dtype=np.float64)
    if behavior.signal_class == SignalClass.PERIODIC and behavior.period:
        result = periodic_gap_outliers(x, behavior.period)
    else:
        baseline = np.full_like(x, behavior.median)
        residual = x - baseline
        flags = np.abs(residual) > behavior.threshold
        corrected = np.where(flags, baseline, x)
        result = OutlierResult(flags=flags, corrected=corrected)
    obs.counter("outliers.signals_scanned").inc()
    obs.counter("outliers.flagged").inc(result.n_outliers)
    obs.counter("outliers.replaced").inc(
        int(np.count_nonzero(result.corrected != x))
    )
    return result
