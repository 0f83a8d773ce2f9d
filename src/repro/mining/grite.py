"""GRITE adapted to delayed outlier trains (section III.C).

The sequential GRITE algorithm explores a tree level by level: "Itemsets
from the L level are computed by combining frequent itemsets siblings from
the L-1 level by using a procedure for joining two itemsets into a larger
one.  Candidates that are more frequent than a predefined threshold are
retained."  The paper's adaptations, all implemented here:

* the first level is **seeded with the 2-pair correlations** from the
  signal cross-correlation function rather than all attributes — this is
  the hybrid step that keeps the miner tractable;
* each item carries a **delay** θ, and joins compose delays
  (θ13 = θ12 + θ23 in the paper's worked example);
* only the **≥ operator** is kept (an outlier in S1 implies outliers in
  the other signals at fixed delays);
* the **Mann-Whitney test** decides when a seeding correlation is
  statistically significant.

Support of an itemset counts complete occurrences: anchor outliers whose
every member signal has an outlier at its delay (± tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np
from scipy import stats as _scipy_stats

from repro import obs
from repro.mining.correlations import CorrelationChain, GradualItem
from repro.mining.mannwhitney import mann_whitney_u
from repro.signals.crosscorr import (
    PairCorrelation,
    correlate_outlier_trains,
    effective_tolerance,
)


@dataclass
class GriteConfig:
    """Mining thresholds.

    ``max_pair_delay`` bounds the delay searched between two signals (in
    samples); chains may span much longer via delay composition, up to
    ``max_chain_span``.  ``min_support`` / ``min_confidence`` prune the
    tree; ``alpha`` is the Mann-Whitney significance level.
    ``max_train_size`` skips hyperactive signals whose outlier trains are
    too dense to carry timing information (pure noise floors).
    """

    max_pair_delay: int = 360
    tolerance: int = 2
    rel_tolerance: float = 0.35
    min_support: int = 5
    min_confidence: float = 0.3
    alpha: float = 0.05
    #: chance-surprise level: a pair must beat the binomial tail
    #: probability of its matches arising from an unrelated train.  This
    #: guards the argmax-over-delays multiple-comparison problem, which
    #: the rank test alone cannot (and keeps small-sample chains that the
    #: rank test has no power on — 3 exact matches of a rare pair are
    #: overwhelming evidence even though n=3 caps the Mann-Whitney p).
    alpha_chance: float = 1e-6
    #: a pair whose match window catches an unrelated B-outlier with
    #: probability above this carries no timing information (wide window
    #: over a dense train) — reject regardless of the tail probability,
    #: which multiple comparisons across ~10⁴ pairs × 360 delays can fake.
    max_chance_hit: float = 0.2
    #: Mann-Whitney is only demanded when the anchor train is large
    #: enough for the rank test to have power.
    mw_min_samples: int = 20
    #: a chain extension must retain at least this fraction of its
    #: parent's confidence; spurious tails dilute confidence sharply
    #: while genuine syndrome members keep it.
    min_extension_ratio: float = 0.7
    max_chain_size: int = 16
    max_chain_span: int = 720
    max_train_size: int = 20000
    #: per-level candidate budget: when a join level would exceed it,
    #: only the best-supported candidates survive.  Densely interlinked
    #: event cliques otherwise multiply delay-variant chains
    #: combinatorially (gigabytes of near-duplicates).
    max_level_candidates: int = 512
    maximal_only: bool = True


class GriteMiner:
    """Level-wise gradual-itemset miner over per-event outlier trains."""

    def __init__(self, config: Optional[GriteConfig] = None) -> None:
        self.config = config or GriteConfig()
        #: pair correlations found during seeding (observability/ablation)
        self.seed_pairs: List[Tuple[int, int, PairCorrelation]] = []

    # -- public API ---------------------------------------------------------

    def mine(
        self, trains: Mapping[int, np.ndarray]
    ) -> List[CorrelationChain]:
        """Mine correlation chains from outlier trains.

        ``trains`` maps event-type id to the sorted sample indices of its
        outliers.  Returns chains sorted by (size desc, support desc); with
        ``maximal_only`` only chains not contained in a larger one are
        kept (sub-chains are implied).
        """
        cfg = self.config
        with obs.span("mine", trains=len(trains)) as sp:
            trains = {
                tid: np.asarray(t, dtype=np.int64)
                for tid, t in trains.items()
                if 0 < len(t) <= cfg.max_train_size
            }
            with obs.span("seed", trains=len(trains)) as ssp:
                pairs = self._seed_pairs(trains)
                ssp["pairs"] = len(self.seed_pairs)
            with obs.span("grow") as gsp:
                level = self._pairs_to_chains(pairs, trains)
                all_frequent: Dict[Tuple, CorrelationChain] = {
                    self._key(c): c for c in level
                }
                while level and level[0].size < cfg.max_chain_size:
                    level = self._grow(level, pairs, trains, all_frequent)
                gsp["frequent"] = len(all_frequent)
            chains = list(all_frequent.values())
            n_frequent = len(chains)
            if cfg.maximal_only:
                chains = self._maximal(chains)
            chains.sort(key=lambda c: (-c.size, -c.support))
            sp["chains"] = len(chains)
        obs.counter("mining.seed_pairs").inc(len(self.seed_pairs))
        obs.counter("mining.chains_generated").inc(n_frequent)
        obs.counter("mining.chains_pruned_maximal").inc(
            n_frequent - len(chains)
        )
        return chains

    # -- seeding --------------------------------------------------------------

    def _seed_pairs(
        self, trains: Mapping[int, np.ndarray]
    ) -> Dict[int, List[Tuple[int, PairCorrelation]]]:
        """All significant 2-pair correlations, indexed by source event.

        This is the signal-analysis half of the hybrid: the cross
        correlation of outlier trains proposes (delay, strength) per
        ordered pair, then the Mann-Whitney test filters chance
        co-occurrences.
        """
        horizon = self._horizon(trains)
        return self._index_seed_rows(
            self._seed_row(a, trains, horizon) for a in sorted(trains)
        )

    @staticmethod
    def _horizon(trains: Mapping[int, np.ndarray]) -> int:
        """Samples the trains span (the chance model's time base)."""
        return max(
            (int(t[-1]) + 1 for t in trains.values() if t.size), default=1
        )

    def _seed_row(
        self, a: int, trains: Mapping[int, np.ndarray], horizon: int
    ) -> List[Tuple[int, int, PairCorrelation]]:
        """All significant pairs ``(a, b, correlation)`` anchored at
        event type ``a``, in ``b`` order."""
        cfg = self.config
        ta = trains[a]
        row: List[Tuple[int, int, PairCorrelation]] = []
        for b in sorted(trains):
            if a == b:
                continue
            pc = correlate_outlier_trains(
                ta,
                trains[b],
                max_lag=cfg.max_pair_delay,
                tolerance=cfg.tolerance,
                rel_tolerance=cfg.rel_tolerance,
                min_matches=cfg.min_support,
            )
            if pc is None or pc.strength < cfg.min_confidence:
                continue
            if pc.delay == 0 and b < a:
                continue  # zero-delay pairs kept once (symmetric)
            p_hit, p_tail = self._chance_probability(pc, horizon)
            if p_hit > cfg.max_chance_hit or p_tail >= cfg.alpha_chance:
                continue
            if ta.size >= cfg.mw_min_samples:
                mw = self._pair_significance(ta, trains[b], pc.delay)
                if mw.p_value >= cfg.alpha:
                    continue
            row.append((a, b, pc))
        return row

    def _index_seed_rows(
        self, rows: Iterable[List[Tuple[int, int, PairCorrelation]]]
    ) -> Dict[int, List[Tuple[int, PairCorrelation]]]:
        """Keep the rows' pairs as ``seed_pairs``; index them by source."""
        self.seed_pairs = [pair for row in rows for pair in row]
        by_src: Dict[int, List[Tuple[int, PairCorrelation]]] = {}
        for a, b, pc in self.seed_pairs:
            by_src.setdefault(a, []).append((b, pc))
        return by_src

    def _chance_probability(
        self, pc: PairCorrelation, horizon: int
    ) -> Tuple[float, float]:
        """Chance model of a pair: (per-anchor hit prob, binomial tail).

        An A-outlier matches by chance when an unrelated B-outlier lands
        in its ``2w+1``-sample window, with B modeled as Poisson at its
        empirical density.  The tail is P(≥ n_matches) under that chance
        model — small tails mean the observed matches cannot be
        argmax-over-delays luck.
        """
        w = effective_tolerance(
            pc.delay, self.config.tolerance, self.config.rel_tolerance
        )
        density = pc.n_b / max(1, horizon)
        p_hit = 1.0 - float(np.exp(-density * (2 * w + 1)))
        p_tail = float(_scipy_stats.binom.sf(pc.n_matches - 1, pc.n_a, p_hit))
        return p_hit, p_tail

    def _pair_significance(
        self, ta: np.ndarray, tb: np.ndarray, delay: int
    ):
        """Mann-Whitney test: matches at ``delay`` vs a control delay.

        x = distance from each anchor outlier (shifted by the candidate
        delay) to the nearest B outlier; y = the same with a control
        shift.  A real correlation makes x stochastically *smaller*.
        """
        control = delay + self.config.max_pair_delay + 7
        x = self._nearest_distance(ta + delay, tb)
        y = self._nearest_distance(ta + control, tb)
        return mann_whitney_u(x, y, alternative="less")

    @staticmethod
    def _nearest_distance(points: np.ndarray, train: np.ndarray) -> np.ndarray:
        """Distance from each point to the nearest train element."""
        idx = np.searchsorted(train, points)
        left = np.abs(points - train[np.clip(idx - 1, 0, train.size - 1)])
        right = np.abs(train[np.clip(idx, 0, train.size - 1)] - points)
        return np.minimum(left, right).astype(np.float64)

    def _pairs_to_chains(
        self,
        pairs: Dict[int, List[Tuple[int, PairCorrelation]]],
        trains: Mapping[int, np.ndarray],
    ) -> List[CorrelationChain]:
        """Level 2: one chain per significant pair."""
        out: List[CorrelationChain] = []
        for a, lst in pairs.items():
            for b, pc in lst:
                items = (GradualItem(0, a), GradualItem(pc.delay, b))
                if items[0].event_type == items[1].event_type:
                    continue
                mw = self._pair_significance(trains[a], trains[b], pc.delay)
                chain = CorrelationChain(
                    items=items,
                    support=pc.n_matches,
                    confidence=pc.strength,
                    p_value=mw.p_value,
                )
                out.append(chain)
        return out

    # -- growth ---------------------------------------------------------------

    def _grow(
        self,
        level: List[CorrelationChain],
        pairs: Dict[int, List[Tuple[int, PairCorrelation]]],
        trains: Mapping[int, np.ndarray],
        all_frequent: Dict[Tuple, CorrelationChain],
    ) -> List[CorrelationChain]:
        """Build level L+1 by extending chains through seed pairs.

        A chain containing (Sa, d) joined with the pair Sa →θ Sb yields
        the candidate chain + (Sb, d + θ) — this composes delays exactly
        like the paper's θ12 + θ23 example and also covers the classic
        sibling join (Sa = anchor).
        """
        cfg = self.config
        next_level: List[CorrelationChain] = []
        seen: set = set()
        for chain in level:
            for item in chain.items:
                for b, pc in pairs.get(item.event_type, ()):  # Sa -> Sb
                    new_delay = item.delay + pc.delay
                    if new_delay > cfg.max_chain_span:
                        continue
                    if any(it.event_type == b for it in chain.items):
                        continue
                    items = chain.items + (GradualItem(new_delay, b),)
                    cand = CorrelationChain(items=items, p_value=chain.p_value)
                    key = self._key(cand)
                    if key in seen or key in all_frequent:
                        continue
                    seen.add(key)
                    support, confidence = self._count_support(cand, trains)
                    if (
                        support < cfg.min_support
                        or confidence < cfg.min_confidence
                        or confidence < cfg.min_extension_ratio * chain.confidence
                    ):
                        continue
                    cand = cand.with_stats(support, confidence, chain.p_value)
                    next_level.append(cand)
                    all_frequent[key] = cand
        if len(next_level) > cfg.max_level_candidates:
            next_level.sort(key=lambda c: (-c.support, -c.confidence))
            for dropped in next_level[cfg.max_level_candidates:]:
                all_frequent.pop(self._key(dropped), None)
            next_level = next_level[: cfg.max_level_candidates]
        return next_level

    def _count_support(
        self, chain: CorrelationChain, trains: Mapping[int, np.ndarray]
    ) -> Tuple[int, float]:
        """Complete-pattern support and confidence of a chain."""
        anchors = trains.get(chain.anchor)
        if anchors is None or anchors.size == 0:
            return 0, 0.0
        ok = np.ones(anchors.size, dtype=bool)
        for item in chain.items[1:]:
            tb = trains.get(item.event_type)
            if tb is None or tb.size == 0:
                return 0, 0.0
            tol = effective_tolerance(
                item.delay, self.config.tolerance, self.config.rel_tolerance
            )
            lo = np.searchsorted(tb, anchors + item.delay - tol, side="left")
            hi = np.searchsorted(tb, anchors + item.delay + tol, side="right")
            ok &= hi > lo
            if not ok.any():
                return 0, 0.0
        support = int(ok.sum())
        return support, support / anchors.size

    def chain_span_quantiles(
        self,
        chain: CorrelationChain,
        trains: Mapping[int, np.ndarray],
        quantiles: Tuple[float, float, float] = (0.1, 0.5, 0.9),
    ) -> Optional[Tuple[int, int, int]]:
        """Observed first-symptom→last-event span quantiles (samples).

        The chain's nominal delays are the modal values; real occurrences
        jitter around them.  The measured span distribution gives each
        chain its own *adaptive prediction window* — the per-event-type
        window of the authors' earlier SLAML'11 work [12] — which the
        online engine uses as a prediction interval instead of a point
        estimate.  Returns ``None`` when no complete occurrence exists.
        """
        anchors = self.match_anchor_times(chain, trains)
        if anchors.size == 0:
            return None
        last = chain.items[-1]
        tb = np.asarray(trains.get(last.event_type, ()), dtype=np.int64)
        if tb.size == 0:
            return None
        tol = effective_tolerance(
            last.delay, self.config.tolerance, self.config.rel_tolerance
        )
        spans = []
        for t in anchors:
            lo = np.searchsorted(tb, t + last.delay - tol, side="left")
            hi = np.searchsorted(tb, t + last.delay + tol, side="right")
            if hi > lo:
                # latest matching occurrence of the final event
                spans.append(int(tb[hi - 1] - t))
        if not spans:
            return None
        q = np.quantile(np.asarray(spans, dtype=float), quantiles)
        return int(q[0]), int(q[1]), int(q[2])

    def match_anchor_times(
        self, chain: CorrelationChain, trains: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """Anchor sample indices of every complete chain occurrence.

        Used by the location module to look up which nodes logged the
        chain's events around each occurrence.
        """
        anchors = np.asarray(trains.get(chain.anchor, ()), dtype=np.int64)
        if anchors.size == 0:
            return anchors
        ok = np.ones(anchors.size, dtype=bool)
        for item in chain.items[1:]:
            tb = np.asarray(trains.get(item.event_type, ()), dtype=np.int64)
            if tb.size == 0:
                return np.empty(0, dtype=np.int64)
            tol = effective_tolerance(
                item.delay, self.config.tolerance, self.config.rel_tolerance
            )
            lo = np.searchsorted(tb, anchors + item.delay - tol, side="left")
            hi = np.searchsorted(tb, anchors + item.delay + tol, side="right")
            ok &= hi > lo
        return anchors[ok]

    # -- bookkeeping -------------------------------------------------------------

    @staticmethod
    def _key(chain: CorrelationChain) -> Tuple:
        """Dedup key: the event-type *set*.

        Delay variants of the same syndrome (the same events reached
        through different join orders) are one itemset; keying on exact
        delays lets dense event cliques multiply delay permutations into
        a combinatorial explosion.  The first variant found wins —
        growth explores high-support chains first, and the end-stage
        maximal filter collapses by event set regardless.
        """
        return tuple(sorted(it.event_type for it in chain.items))

    def _maximal(
        self, chains: List[CorrelationChain]
    ) -> List[CorrelationChain]:
        """Collapse to maximal syndromes.

        Two passes: (1) chains over the *same* event-type set are
        near-duplicates differing only in delay jitter / event ordering —
        keep the best-supported one; (2) a chain whose event set is a
        strict subset of a kept chain's is implied by it and dropped.
        This is what turns the paper's "62" compact hybrid set out of the
        hundreds of raw frequent itemsets.
        """
        best: Dict[frozenset, CorrelationChain] = {}
        for c in chains:
            key = frozenset(c.event_types)
            cur = best.get(key)
            if cur is None or (c.support, c.confidence) > (
                cur.support, cur.confidence
            ):
                best[key] = c
        by_size = sorted(best.items(), key=lambda kv: -len(kv[0]))
        kept: List[CorrelationChain] = []
        kept_sets: List[frozenset] = []
        for key, c in by_size:
            if any(key < s for s in kept_sets):
                continue
            kept.append(c)
            kept_sets.append(key)
        return kept
