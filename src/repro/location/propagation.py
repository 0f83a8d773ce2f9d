"""Per-chain location extraction and the location-prediction heuristic.

"The heuristic used to extract location correlations is based on the
offline correlation chains extracted in a previous step.  We parse the
logs and monitor each occurrence of a correlation Gi … Based on it we
extract the list of possible locations for each chain
Loci = {(L11,..,L1k1), …, (Lm1,..,Lmkm)}" (section III.D).

:class:`LocationIndex` answers "which locations logged event type e near
sample t"; :func:`extract_location_profiles` walks every chain occurrence
and materializes the Loci lists; :class:`ChainLocationProfile` summarizes
a chain's propagation behaviour; :class:`LocationPredictor` turns the
profile into the location set attached to an online prediction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.columnar import RecordBatch, rows_by_type
from repro.mining.correlations import CorrelationChain
from repro.mining.grite import GriteMiner
from repro.signals.crosscorr import effective_tolerance
from repro.simulation.topology import HierarchyLevel, Machine


class LocationIndex:
    """Per-event-type (sample index → locations) lookup.

    Built once from a classified record batch (``event_ids`` int64,
    ``-1`` = unclassified and skipped); each type's rows are kept
    sorted by sample, in record order within a sample.  Queries are two
    binary searches plus a slice, so profiling thousands of chain
    occurrences is cheap.
    """

    def __init__(
        self,
        batch: RecordBatch,
        event_ids: np.ndarray,
        sampling_period: float = 10.0,
        t_start: float = 0.0,
    ) -> None:
        if len(batch) != len(event_ids):
            raise ValueError("event_ids must parallel the batch")
        self.sampling_period = float(sampling_period)
        self.t_start = float(t_start)
        self._pool = batch.loc_pool
        samples = (
            (batch.timestamps - t_start) / sampling_period
        ).astype(np.int64)
        self._samples: Dict[int, np.ndarray] = {}
        self._loc_ids: Dict[int, np.ndarray] = {}
        for tid, rows in rows_by_type(event_ids).items():
            rows = rows[np.argsort(samples[rows], kind="stable")]
            self._samples[tid] = samples[rows]
            self._loc_ids[tid] = batch.loc_ids[rows]

    def locations_near(
        self, event_type: int, sample: int, tolerance: int
    ) -> List[str]:
        """Locations that logged ``event_type`` within ±``tolerance``."""
        arr = self._samples.get(event_type)
        if arr is None or arr.size == 0:
            return []
        lo = int(np.searchsorted(arr, sample - tolerance, side="left"))
        hi = int(np.searchsorted(arr, sample + tolerance, side="right"))
        pool = self._pool
        return [pool[i] for i in self._loc_ids[event_type][lo:hi].tolist()]


@dataclass
class ChainLocationProfile:
    """The Loci list of one chain plus derived propagation statistics."""

    chain: CorrelationChain
    #: one entry per chain occurrence: unique locations of its events
    occurrences: List[Tuple[str, ...]] = field(default_factory=list)

    @property
    def n_occurrences(self) -> int:
        """How many complete occurrences were observed."""
        return len(self.occurrences)

    @property
    def propagates(self) -> bool:
        """Did any occurrence involve more than one location?"""
        return any(len(set(o)) > 1 for o in self.occurrences)

    @property
    def propagation_fraction(self) -> float:
        """Fraction of occurrences spanning multiple locations."""
        if not self.occurrences:
            return 0.0
        multi = sum(1 for o in self.occurrences if len(set(o)) > 1)
        return multi / len(self.occurrences)

    @property
    def mean_affected(self) -> float:
        """Mean number of distinct locations per occurrence."""
        if not self.occurrences:
            return 0.0
        return float(np.mean([len(set(o)) for o in self.occurrences]))

    @property
    def max_affected(self) -> int:
        """Largest occurrence footprint."""
        if not self.occurrences:
            return 0
        return max(len(set(o)) for o in self.occurrences)

    def typical_spread(
        self, machine: Machine, propagation_min_fraction: float = 0.15
    ) -> HierarchyLevel:
        """Hierarchy spread the chain should be planned for.

        ``NODE`` means the chain does not propagate (75 % of Blue Gene/L
        correlations in Fig. 7).  When a non-negligible fraction of
        occurrences *do* propagate (at least ``propagation_min_fraction``),
        the modal spread of those propagating occurrences is returned —
        a fault that spreads beyond one node in a third of its instances
        must be planned at its propagation footprint, not at the modal
        single node.  Locations unknown to the machine are skipped
        defensively.
        """
        votes: Counter = Counter()
        multi_votes: Counter = Counter()
        for occ in self.occurrences:
            known = [l for l in set(occ) if machine.contains(l)]
            if not known:
                continue
            level = machine.spread_level(known)
            votes[level] += 1
            if level != HierarchyLevel.NODE:
                multi_votes[level] += 1
        total = sum(votes.values())
        if total == 0:
            return HierarchyLevel.NODE
        n_multi = sum(multi_votes.values())
        if n_multi >= propagation_min_fraction * total:
            return multi_votes.most_common(1)[0][0]
        return votes.most_common(1)[0][0]

    def modal_spread(self, machine: Machine) -> HierarchyLevel:
        """Most common spread across *all* occurrences (Fig. 7's view)."""
        return self.typical_spread(machine, propagation_min_fraction=1.1)

    def initiator_included_fraction(self, machine: Machine) -> float:
        """How often the first-symptom location is among the affected.

        Section V: "for most propagation sequences the initiating node …
        is included in the set of nodes affected by the failure" — by
        construction of the Loci extraction the initiator is observed, so
        this is 1.0 unless occurrences were recorded with missing anchor
        locations; kept as a measured quantity for fidelity.
        """
        if not self.occurrences:
            return 0.0
        ok = sum(1 for occ in self.occurrences if occ and occ[0] in set(occ))
        return ok / len(self.occurrences)


def extract_location_profiles(
    chains: Sequence[CorrelationChain],
    miner: GriteMiner,
    trains: Mapping[int, np.ndarray],
    index: LocationIndex,
) -> List[ChainLocationProfile]:
    """Build the Loci list for every chain.

    For each complete occurrence (anchor time from
    :meth:`~repro.mining.grite.GriteMiner.match_anchor_times`) the
    locations of every member event near its expected delay are
    collected; the anchor's own locations come first so the initiating
    node is identifiable.
    """
    profiles: List[ChainLocationProfile] = []
    for chain in chains:
        profile = ChainLocationProfile(chain=chain)
        anchor_times = miner.match_anchor_times(chain, trains)
        for t in anchor_times:
            locs: List[str] = []
            for item in chain.items:
                tol = effective_tolerance(
                    item.delay,
                    miner.config.tolerance,
                    miner.config.rel_tolerance,
                )
                locs.extend(
                    index.locations_near(
                        item.event_type, int(t) + item.delay, tol
                    )
                )
            if locs:
                # unique, first-seen order (anchor locations lead)
                seen: List[str] = []
                for l in locs:
                    if l not in seen:
                        seen.append(l)
                profile.occurrences.append(tuple(seen))
        profiles.append(profile)
    return profiles


def propagation_breakdown(
    profiles: Sequence[ChainLocationProfile], machine: Machine
) -> Dict[HierarchyLevel, float]:
    """Fraction of chains whose typical spread is each level (Fig. 7).

    ``NODE`` is "no propagation"; the paper reports ~75 % there for Blue
    Gene/L with ~2.16 % extending outside a midplane.
    """
    counts: Counter = Counter()
    for p in profiles:
        counts[p.modal_spread(machine)] += 1
    total = sum(counts.values())
    if total == 0:
        return {}
    return {level: counts.get(level, 0) / total for level in HierarchyLevel}


class LocationPredictor:
    """Predicts the location set of a firing chain (section V).

    Strategy, per the paper's observations:

    * chains that historically stay on one node predict the anchor's
      location only (75 % of cases — "the prediction system does not need
      to worry about finding the right location");
    * chains propagating within a node card / midplane / rack predict the
      anchor's enclosing unit, which is exactly the component a local
      checkpoint would cover;
    * chains with global spread cannot be localized; the anchor location
      is predicted alone and the miss shows up as recall loss, matching
      the paper's conclusion that "the recall … will be more affected by
      the location predictor than its precision".
    """

    def __init__(
        self,
        machine: Machine,
        profiles: Sequence[ChainLocationProfile],
    ) -> None:
        self.machine = machine
        self._spread: Dict[Tuple, HierarchyLevel] = {}
        self._modal_locations: Dict[Tuple, List[str]] = {}
        for p in profiles:
            key = self._chain_key(p.chain)
            self._spread[key] = p.typical_spread(machine)
            votes: Counter = Counter()
            for occ in p.occurrences:
                votes.update(set(occ))
            self._modal_locations[key] = [
                loc for loc, _ in votes.most_common(3)
            ]

    @staticmethod
    def _chain_key(chain: CorrelationChain) -> Tuple:
        return tuple((it.event_type, it.delay) for it in chain.items)

    def spread_of(self, chain: CorrelationChain) -> HierarchyLevel:
        """Learned spread of a chain (defaults to NODE when unseen)."""
        return self._spread.get(self._chain_key(chain), HierarchyLevel.NODE)

    def predict(
        self, chain: CorrelationChain, anchor_location: str
    ) -> List[str]:
        """Locations expected to be affected when ``chain`` fires.

        An unknown anchor location (absence-triggered chains have no
        record to read a location from) falls back to the chain's
        historically most common locations.
        """
        if not self.machine.contains(anchor_location):
            historical = self._modal_locations.get(self._chain_key(chain))
            return list(historical) if historical else [anchor_location]
        level = self.spread_of(chain)
        if level in (HierarchyLevel.NODE, HierarchyLevel.GLOBAL):
            return [anchor_location]
        return self.machine.peers(anchor_location, level)
