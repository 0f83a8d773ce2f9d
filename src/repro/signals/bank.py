"""Vectorized detector bank: all anchors' dual windows in shared arrays.

The streaming predictor closes every 10-second sample by stepping one
online detector per anchor.  Each step is cheap, but N Python calls per
tick (plus a circuit-breaker wrapper per call) dominate the tick cost
long before the arithmetic does.  The bank holds every anchor's state in
shared numpy arrays and closes a tick with *one* vectorized pass:

* **median group** (:class:`~repro.signals.outliers.OnlineOutlierDetector`
  equivalents): raw and corrected histories live in shared ring buffers
  of shape ``(n, window+1)`` / ``(n, window)`` with shared cursors, and a
  per-value histogram per anchor.  One kernel closes every block of at
  most a window's ticks: a flag needs only whether the median falls
  outside ``[value - thr, value + thr]``, two probes of the combined
  cumulative count, which one table of every anchor's pushes and
  evictions answers for the whole block; actual medians (an O(bins)
  cumulative-sum select instead of a sort) are computed only at
  flagged ticks.
* **periodic group** (:class:`~repro.signals.outliers.OnlinePeriodicDetector`
  equivalents): the last-beat/gap-reported state machine as flat arrays.

Exactness, not approximation
----------------------------
The scalar semantics are reproduced bit for bit, which is what lets the
fast path be an implementation detail rather than a model change:

* The combined window ``V_k`` always holds an **odd** number of points
  (``min(t+1, W+1) + min(t, W)`` is odd for every ``t``), so the median
  is always a single element of the multiset — never an average — and a
  histogram selection returns the exact same value a sorted list would.
* Signal samples are event *counts*: non-negative integers.  Corrected
  values are either the raw sample or the window median, and a median of
  integers (odd window) is an integer, so by induction every window
  value sits on the integer histogram grid.
* Any anchor whose stream ever leaves the grid (a count beyond
  ``grid_limit``, or a non-integer value from an external caller) is
  **demoted**: its exact scalar detector is rebuilt from the ring
  contents and stepped per tick from then on.  Demotion preserves
  bit-identical output at the cost of that one anchor's speed.

State compatibility
-------------------
:meth:`state_dicts` emits per-anchor dictionaries in the *scalar*
``state_dict`` format ("median" / "periodic" kinds), and
:meth:`from_states` accepts the same — so checkpoints written by either
implementation resume on the other, and ``swap_model`` keeps working.
Construction raises :class:`BankLayoutError` when the detectors cannot
share a layout (an unknown detector class, mixed windows,
desynchronized tick counts); the streaming engine has no other detector
store, so it rejects such a model at construction and such a
checkpoint at load.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.signals.outliers import (
    OnlineOutlierDetector,
    OnlinePeriodicDetector,
    _DualWindow,
    encode_ring,
    restore_detector,
)

Detector = Union[OnlineOutlierDetector, OnlinePeriodicDetector]


class BankLayoutError(ValueError):
    """The given detectors cannot share one vectorized layout."""


def _ring_cols(start: int, n: int, cap: int) -> Tuple[slice, slice]:
    """Columns of ring positions ``start, ..., start + n - 1`` modulo
    ``cap`` (``n <= cap``): up to the ring's end, then from its start."""
    start %= cap
    cut = min(n, cap - start)
    return slice(start, start + cut), slice(0, n - cut)


def _ring_read(ring: np.ndarray, rows: np.ndarray, start: int,
               n: int) -> np.ndarray:
    """``rows``' values at ring positions ``start, ..., start + n - 1``."""
    head, tail = _ring_cols(start, n, ring.shape[1])
    return np.concatenate([ring[rows, head], ring[rows, tail]], axis=1)


def _ring_write(ring: np.ndarray, rows: np.ndarray, start: int,
                values: np.ndarray) -> None:
    """Write ``values`` into ``rows`` from ring position ``start`` on."""
    head, tail = _ring_cols(start, values.shape[1], ring.shape[1])
    cut = head.stop - head.start
    ring[rows, head] = values[:, :cut]
    ring[rows, tail] = values[:, cut:]


class VectorizedDetectorBank:
    """Tick-synchronized vector replacement for a set of online detectors.

    Parameters
    ----------
    detectors:
        The scalar detectors to absorb, in the caller's anchor order
        (the bank answers :meth:`tick` in the same order).  Their current
        state — including mid-stream window contents — is copied in, so
        a bank can be built at any point of a stream.  Detectors that
        cannot be vectorized exactly (off-grid window values) are kept
        as scalar fallbacks internally.
    grid_limit:
        Histogram bins per anchor; values in ``[0, grid_limit)`` on the
        integer grid are vectorized, anything else demotes its anchor to
        the scalar path.
    """

    def __init__(
        self, detectors: Sequence[Detector], grid_limit: int = 512
    ) -> None:
        if not detectors:
            raise BankLayoutError("empty detector bank")
        self.n = len(detectors)
        self.grid_limit = int(grid_limit)
        self._med_ix: List[int] = []
        self._per_ix: List[int] = []
        for i, det in enumerate(detectors):
            if isinstance(det, OnlineOutlierDetector):
                self._med_ix.append(i)
            elif isinstance(det, OnlinePeriodicDetector):
                self._per_ix.append(i)
            else:
                raise BankLayoutError(f"unsupported detector {type(det)!r}")
        self._build_median([detectors[i] for i in self._med_ix])
        self._build_periodic([detectors[i] for i in self._per_ix])
        self._med_ix_arr = np.asarray(self._med_ix, dtype=np.intp)
        self._per_ix_arr = np.asarray(self._per_ix, dtype=np.intp)

    # -- construction --------------------------------------------------------

    def _build_median(self, dets: List[OnlineOutlierDetector]) -> None:
        self._demoted: Dict[int, OnlineOutlierDetector] = {}
        self._nm = len(dets)
        if not dets:
            return
        windows = {d.window for d in dets}
        warmups = {d.warmup for d in dets}
        seens = {d._seen for d in dets}
        if len(windows) != 1 or len(warmups) != 1 or len(seens) != 1:
            raise BankLayoutError(
                "median detectors must share window/warmup/seen "
                f"(got windows={windows}, warmups={warmups}, seens={seens})"
            )
        self.window = dets[0].window
        self.warmup = dets[0].warmup
        self._seen = dets[0]._seen
        lens = {(len(d._dual._raw), len(d._dual._corr)) for d in dets}
        if len(lens) != 1:
            raise BankLayoutError("median windows are desynchronized")
        (self._raw_len, self._corr_len) = lens.pop()
        W = self.window
        B = self.grid_limit
        self._thr = np.array([d.threshold for d in dets], dtype=np.float64)
        self._raw_ring = np.zeros((self._nm, W + 1), dtype=np.float64)
        self._corr_ring = np.zeros((self._nm, W), dtype=np.float64)
        self._raw_start = 0
        self._corr_start = 0
        self._hist = np.zeros((self._nm, B), dtype=np.int64)
        for row, det in enumerate(dets):
            raw = np.fromiter(det._dual._raw, dtype=np.float64,
                              count=self._raw_len)
            corr = np.fromiter(det._dual._corr, dtype=np.float64,
                               count=self._corr_len)
            if not (self._on_grid(raw).all() and self._on_grid(corr).all()):
                self._demoted[row] = det
                continue
            self._raw_ring[row, : self._raw_len] = raw
            self._corr_ring[row, : self._corr_len] = corr
            np.add.at(self._hist[row], raw.astype(np.int64), 1)
            np.add.at(self._hist[row], corr.astype(np.int64), 1)
        self._med_act = np.array(
            [r for r in range(self._nm) if r not in self._demoted],
            dtype=np.intp,
        )

    def _build_periodic(self, dets: List[OnlinePeriodicDetector]) -> None:
        self._np = len(dets)
        if not dets:
            return
        ks = {d._k for d in dets}
        if len(ks) != 1:
            raise BankLayoutError(
                f"periodic detectors must share the tick count (got {ks})"
            )
        self._per_k = ks.pop()
        self._period = np.array([d.period for d in dets], dtype=np.int64)
        self._amplitude = np.array(
            [d.amplitude for d in dets], dtype=np.float64
        )
        self._gap_factor = np.array(
            [d.gap_factor for d in dets], dtype=np.float64
        )
        self._burst_factor = np.array(
            [d.burst_factor for d in dets], dtype=np.float64
        )
        self._last_beat = np.array(
            [-1 if d._last_beat is None else d._last_beat for d in dets],
            dtype=np.int64,
        )
        self._gap_reported = np.array(
            [d._gap_reported for d in dets], dtype=bool
        )

    def _on_grid(self, v: np.ndarray) -> np.ndarray:
        return (v >= 0) & (v < self.grid_limit) & (np.floor(v) == v)

    def _windows(self, rows) -> Tuple[np.ndarray, np.ndarray]:
        """``rows``' raw and corrected windows, oldest value first."""
        return (
            _ring_read(self._raw_ring, rows, self._raw_start, self._raw_len),
            _ring_read(
                self._corr_ring, rows, self._corr_start, self._corr_len
            ),
        )

    # -- demotion ------------------------------------------------------------

    def _demote(self, row: int) -> OnlineOutlierDetector:
        """Rebuild row's exact scalar detector from the ring contents."""
        W = self.window
        raw, corr = self._windows([row])
        det = OnlineOutlierDetector(
            threshold=float(self._thr[row]), window=W, warmup=self.warmup
        )
        det._seen = self._seen
        det._dual = _DualWindow.from_state(
            {"capacity": W, "raw": raw[0], "corr": corr[0]}
        )
        self._demoted[row] = det
        self._med_act = self._med_act[self._med_act != row]
        return det

    # -- the tick ------------------------------------------------------------

    def tick(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Consume one sample per anchor; ``(is_outlier, corrected)``.

        ``values`` is one float per detector in construction order; the
        returned boolean/float arrays use the same order.  One column of
        :meth:`tick_many`.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n,):
            raise ValueError(f"expected {self.n} values, got {values.shape}")
        flags, corrected = self.tick_many(values[:, None])
        return flags[:, 0], corrected[:, 0]

    #: ticks per internal batch, and never more than the window, so that
    #: every value a block evicts was in the rings before the block;
    #: bounds the per-block ``(rows, ticks)`` arrays and probe tables
    TICK_BLOCK = 1024

    def tick_many(
        self, values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Consume ``m`` samples per anchor in one vectorized pass.

        ``values`` is ``(n, m)`` in construction order; returns
        ``(flags, corrected)`` of the same shape.  Outputs and the final
        bank state — rings, histograms, cursors, demotions — are
        identical to stepping each scalar detector ``m`` times, and so
        to ``m`` single-column calls, whatever the split.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != self.n:
            raise ValueError(
                f"expected ({self.n}, m) matrix, got {values.shape}"
            )
        m = values.shape[1]
        flags = np.zeros((self.n, m), dtype=bool)
        corrected = np.zeros((self.n, m), dtype=np.float64)
        step = self.TICK_BLOCK
        if self._nm:
            step = min(step, self.window)
        for a in range(0, m, step):
            b = min(m, a + step)
            if self._nm:
                f, c = self._tick_median_many(values[self._med_ix_arr, a:b])
                flags[self._med_ix_arr, a:b] = f
                corrected[self._med_ix_arr, a:b] = c
            if self._np:
                f, c = self._tick_periodic_many(
                    values[self._per_ix_arr, a:b]
                )
                flags[self._per_ix_arr, a:b] = f
                corrected[self._per_ix_arr, a:b] = c
        return flags, corrected

    def _tick_median_many(
        self, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        nm, m = v.shape
        flags = np.zeros((nm, m), dtype=bool)
        corrected = np.zeros((nm, m), dtype=np.float64)
        act = self._med_act
        if act.size:
            bad = ~self._on_grid(v[act]).all(axis=1)
            if bad.any():
                # an off-grid value anywhere in the block demotes the row
                # for the whole block; the scalar replay is exact, so the
                # outcome matches demoting it on the value's arrival
                for row in act[bad]:
                    self._demote(int(row))
                act = self._med_act
        W = self.window
        r0 = self._raw_len
        c0 = self._corr_len
        if act.size:
            self._tick_median_rows(v, act, flags, corrected, r0, c0, m)
        # the shared cursors advance as m single ticks would; a demoted
        # row's ring slots go stale, and only its scalar detector is read
        self._raw_start = (
            self._raw_start + max(0, r0 + m - (W + 1))
        ) % (W + 1)
        self._corr_start = (self._corr_start + max(0, c0 + m - W)) % W
        self._raw_len = min(r0 + m, W + 1)
        self._corr_len = min(c0 + m, W)
        self._seen += m
        for row, det in self._demoted.items():
            for j in range(m):
                out, cv = det.process(float(v[row, j]))
                flags[row, j] = out
                corrected[row, j] = cv
        return flags, corrected

    #: cells (ticks x columns) of one probe table; live rows whose value
    #: ranges add up past it are probed in groups, bounding the table
    PROBE_CELLS = 1 << 20

    def _tick_median_rows(
        self,
        v: np.ndarray,
        act: np.ndarray,
        flags: np.ndarray,
        corrected: np.ndarray,
        r0: int,
        c0: int,
        m: int,
    ) -> None:
        """Exact median kernel for a block of ``m <= window`` ticks, every
        ``act`` row in one pass.

        The flag test ``|va - med| > thr`` never needs the median itself
        — only whether it falls outside ``[va - thr, va + thr]``, which
        two probes of the combined cumulative count decide exactly: with
        ``C[j, g]`` counting window values ``<= g`` at tick ``j`` and
        medians living on the integer grid,
        ``med > va + thr  <=>  C[j, floor(va + thr)] <= k_j`` and
        ``med < va - thr  <=>  C[j, ceil(va - thr) - 1] > k_j``.
        ``C[j, g]`` is the base histogram plus this block's raw pushes at
        ticks ``<= j`` and corrected ones at ticks ``< j`` (optimistically
        equal to the raw values), minus what those pushes evict.  A push
        evicts the value in the ring slot it lands on, and a block is at
        most one window long, so every eviction is a value the rings held
        before the block, known before any tick is decided.  One probe
        table holds every row's pushes and evictions side by side, each
        row in columns spanning only its own value range, and its double
        cumulative sum answers every probe of every row at once
        (:meth:`_probe`).

        Most anchors are silent most of the time, and a row whose window
        median stays 0 needs no probes: its flags are ``va > thr`` and
        its corrections are 0.  The median provably stays 0 through the
        block when ``hist[0] + 1 - z - e > k_0``, ``z`` being the block's
        nonzero samples and ``e`` the zeros it evicts: a tick whose
        sample is 0 pushes a raw 0 and a corrected 0 (a zero sample is
        never flagged while the median is 0), so by tick ``j`` at least
        ``2j + 1 - z - min(z, j)`` zeros were pushed and at most ``e``
        evicted, while ``k_j <= k_0 + j``; bin 0 keeps more than ``k_j``
        values.  An all-zero block on a silent window is the case
        ``z = 0``: it cannot flag.

        On the other rows actual medians are computed only at flagged
        ticks (rare), row by row: each correction shifts that row's later
        counts by ±1, an O(m) probe update, after which its remaining
        flags are re-decided — reproducing the sequential semantics
        exactly.

        The rows commit in place: the block's values overwrite the slots
        they evict at the shared cursors, and one offset ``bincount`` of
        the pushes and one ``subtract.at`` of the evictions update every
        histogram; the caller advances the shared cursors, lengths and
        seen counter once per block.
        """
        W = self.window
        G = self.grid_limit
        va = v[act]
        co = va
        js = np.arange(m)
        # the first ticks whose raw / corrected push evicts; a corrected
        # push's eviction shows from the next tick's median on
        j0r = min(m, max(0, W + 1 - r0))
        j0c = min(m, max(0, W - c0))
        er = _ring_read(
            self._raw_ring, act, self._raw_start + r0 + j0r, m - j0r
        ).astype(np.int64)
        ec = _ring_read(
            self._corr_ring, act, self._corr_start + c0 + j0c, m - j0c
        ).astype(np.int64)
        evicted = np.concatenate([er, ec], axis=1)
        warm = (self._seen + js) >= self.warmup
        n_win = np.minimum(r0 + js + 1, W + 1) + np.minimum(c0 + js, W)
        k = n_win >> 1
        hist = self._hist[act]
        thr = self._thr[act]
        live = js[:0]
        if warm.any():
            zero = (
                hist[:, 0] + 1 - np.count_nonzero(va, axis=1)
                - (evicted == 0).sum(axis=1)
            ) > k[0]
            fl = (va > thr[:, None]) & warm & zero[:, None]
            flags[act] = fl
            co = np.where(fl, 0.0, va)
            live = np.flatnonzero(~zero)
        q = va[live].astype(np.int64)
        width = np.concatenate([q, evicted[live]], axis=1).max(
            axis=1, initial=0
        ) + 1
        ends = np.cumsum(width)
        cap = max(1, self.PROBE_CELLS // m)
        a = 0
        while a < live.size:
            b = max(a + 1, int(np.searchsorted(
                ends, ends[a] - width[a] + cap, side="right"
            )))
            rows = live[a:b]
            flag, chi, clo, ghi, glo = self._probe(
                va[rows], q[a:b], er[rows], ec[rows], hist[rows],
                width[a:b], thr[rows], warm, k, n_win - (r0 + c0),
            )
            for i in np.flatnonzero(flag.any(axis=1)).tolist():
                r = int(rows[i])
                qr, fr, hi, lo = q[a + i], flag[i], ghi[i], glo[i]
                j = -1
                while True:
                    nz = np.flatnonzero(fr[j + 1:])
                    if not nz.size:
                        break
                    j += 1 + int(nz[0])
                    # exact median at the flagged tick only
                    hj = hist[r] + np.bincount(
                        np.concatenate([qr[: j + 1], co[r, :j]]).astype(
                            np.int64
                        ),
                        minlength=G,
                    ) - np.bincount(
                        np.concatenate([
                            er[r, : max(0, j + 1 - j0r)],
                            ec[r, : max(0, j - j0c)],
                        ]),
                        minlength=G,
                    )
                    med = int(np.searchsorted(hj.cumsum(), k[j], "right"))
                    flags[act[r], j] = True
                    co[r, j] = med
                    if j + 1 == m:
                        break
                    # the corrected push at j replaces the optimistic raw
                    # one in every later tick's count
                    t = slice(j + 1, None)
                    chi[i, t] += (med <= hi[t]).astype(np.int64) - (
                        qr[j] <= hi[t]
                    )
                    clo[i, t] += (med <= lo[t]).astype(np.int64) - (
                        qr[j] <= lo[t]
                    )
                    fr[t] = warm[t] & (
                        (chi[i, t] <= k[t])
                        | ((lo[t] >= 0) & (clo[i, t] > k[t]))
                    )
            a = b
        corrected[act] = co
        _ring_write(self._raw_ring, act, self._raw_start + r0, va)
        _ring_write(self._corr_ring, act, self._corr_start + c0, co)
        off = (act * G)[:, None]
        pushed = np.concatenate([va, co], axis=1).astype(np.intp) + off
        flat = self._hist.reshape(-1)
        flat += np.bincount(pushed.ravel(), minlength=flat.size)
        np.subtract.at(flat, (evicted + off).ravel(), 1)

    @staticmethod
    def _probe(
        va: np.ndarray,
        q: np.ndarray,
        er: np.ndarray,
        ec: np.ndarray,
        hist: np.ndarray,
        width: np.ndarray,
        thr: np.ndarray,
        warm: np.ndarray,
        k: np.ndarray,
        grow: np.ndarray,
    ) -> Tuple[np.ndarray, ...]:
        """Optimistic flags and probe counts of ``q``'s rows in one table.

        ``er`` / ``ec`` are the raw / corrected values the block's last
        ``er.shape[1]`` / ``ec.shape[1]`` pushes evict, and
        ``grow[j]`` is how much every row's window has grown by tick
        ``j``.  Returns ``(flag, chi, clo, ghi, glo)``, each
        ``(rows, m)``: the flags as if no tick before were corrected, the
        combined counts at the upper and lower probe bins, and those
        bins.  Row ``i``'s entries land in table columns
        ``off[i] + [0, width[i])``; a probe above a row's largest value
        reads its last column, which already counts all of its entries.
        """
        n, m = q.shape
        G = hist.shape[1]
        js = np.arange(m)
        ri = np.arange(n)[:, None]
        off = (np.cumsum(width) - width)[:, None]
        top = (width - 1)[:, None]
        ghi = np.floor(va + thr[:, None]).astype(np.int64)
        glo = np.ceil(va - thr[:, None]).astype(np.int64) - 1
        # Z[j, c]: how tick j changes the count of column c — its raw
        # push and eviction, and the corrected push and eviction of
        # tick j - 1; each assignment hits distinct cells
        Z = np.zeros((m, int(width.sum())), dtype=np.int32)
        Z[js, off + q] = 1
        Z[js[1:], off + q[:, :-1]] += 1
        Z[js[m - er.shape[1]:], off + er] -= 1
        Z[js[m - ec.shape[1] + 1:], off + ec[:, :-1]] -= 1
        # T[j, c]: the window's change by tick j in columns <= c; the
        # columns of the rows before row i add i * grow[j] to every
        # probe of row i
        T = Z.cumsum(axis=0, dtype=np.int32).cumsum(axis=1, dtype=np.int32)
        before = ri * grow
        cum = hist.cumsum(axis=1)
        chi = (
            cum[ri, np.minimum(ghi, G - 1)]
            + T[js, off + np.minimum(ghi, top)]
            - before
        )
        lo = np.maximum(glo, 0)
        clo = cum[ri, lo] + T[js, off + np.minimum(lo, top)] - before
        flag = warm & ((chi <= k) | ((glo >= 0) & (clo > k)))
        return flag, chi, clo, ghi, glo

    def _tick_periodic_many(
        self, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        npr, m = v.shape
        k0 = self._per_k
        ks = k0 + 1 + np.arange(m, dtype=np.int64)
        beat = v > 0
        amp = self._amplitude[:, None]
        burst = beat & (v > self._burst_factor[:, None] * amp)
        corrected = np.where(beat, np.where(burst, amp, v), 0.0)
        # the state machine is feed-forward: the last beat before each
        # tick is a prefix maximum, and within one silent run the gap
        # condition is monotone, so the run's single report is its first
        # tick over the threshold (suppressed in the leading run when
        # the gap was already reported before this block)
        lb_incl = np.maximum.accumulate(
            np.where(beat, ks[None, :], np.int64(-1)), axis=1
        )
        lb_incl = np.maximum(lb_incl, self._last_beat[:, None])
        lb_prev = np.concatenate(
            [self._last_beat[:, None], lb_incl[:, :-1]], axis=1
        )
        cond = (
            ~beat
            & (lb_prev >= 0)
            & (
                (ks[None, :] - lb_prev)
                > self._gap_factor[:, None] * self._period[:, None]
            )
        )
        cond_prev = np.concatenate(
            [np.zeros((npr, 1), dtype=bool), cond[:, :-1]], axis=1
        )
        run_id = beat.cumsum(axis=1)
        gap_hit = (
            cond
            & ~cond_prev
            & ~((run_id == 0) & self._gap_reported[:, None])
        )
        corrected = np.where(gap_hit, amp, corrected)
        final_run = run_id[:, -1]
        self._gap_reported = (
            gap_hit & (run_id == final_run[:, None])
        ).any(axis=1) | (self._gap_reported & (final_run == 0))
        self._last_beat = lb_incl[:, -1].copy()
        self._per_k = k0 + m
        return burst | gap_hit, corrected

    # -- scalar-compatible state --------------------------------------------

    def state_dicts(self) -> List[dict]:
        """Per-detector states in the scalar ``state_dict`` format."""
        out: List[Optional[dict]] = [None] * self.n
        if self._nm:
            W = self.window
            raw, corr = self._windows(np.arange(self._nm))
            for row, i in enumerate(self._med_ix):
                det = self._demoted.get(row)
                if det is not None:
                    out[i] = det.state_dict()
                    continue
                out[i] = {
                    "kind": "median",
                    "threshold": float(self._thr[row]),
                    "window": W,
                    "warmup": self.warmup,
                    "seen": self._seen,
                    "dual": {
                        "capacity": W,
                        "raw": encode_ring(raw[row]),
                        "corr": encode_ring(corr[row]),
                    },
                }
        for row, i in enumerate(self._per_ix):
            lb = int(self._last_beat[row])
            out[i] = {
                "kind": "periodic",
                "period": int(self._period[row]),
                "amplitude": float(self._amplitude[row]),
                "gap_factor": float(self._gap_factor[row]),
                "burst_factor": float(self._burst_factor[row]),
                "last_beat": None if lb < 0 else lb,
                "gap_reported": bool(self._gap_reported[row]),
                "k": self._per_k,
            }
        return out  # type: ignore[return-value]

    @classmethod
    def from_states(
        cls, states: Sequence[dict], grid_limit: int = 512
    ) -> "VectorizedDetectorBank":
        """Rebuild a bank from scalar-format ``state_dict`` entries."""
        return cls(
            [restore_detector(s) for s in states], grid_limit=grid_limit
        )
