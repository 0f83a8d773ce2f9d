"""Multicore gradual-itemset mining (the paper's PGP-mc direction).

"Recent research on gradual itemset mining has focused on parallel
methods that are able to use multi-core architectures [3].  We plan to
investigate the use of such methods on-line in order to adapt
correlations to changes in the system." (section III.C)

The dominant cost of :class:`repro.mining.grite.GriteMiner` is level-1
seeding: an all-pairs sweep of outlier trains (O(n² ) correlation calls).
Pairs are independent, so the sweep parallelizes embarrassingly;
:class:`ParallelGriteMiner` fans the anchor rows out over a process pool
(processes, not threads — the work is numpy-light Python that the GIL
would serialize); each worker runs the sequential miner's own per-anchor
row, and the growth/pruning machinery is reused as is, so results are
bit-identical to the sequential miner's.

Workers receive the full train table once via the pool initializer, so
per-task pickling stays O(1).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.mining.grite import GriteConfig, GriteMiner
from repro.signals.crosscorr import PairCorrelation

# Worker-process globals, set once by the pool initializer.
_WORKER_TRAINS: Dict[int, np.ndarray] = {}
_WORKER_CONFIG: Optional[GriteConfig] = None
_WORKER_HORIZON: int = 1


def _init_worker(
    trains: Dict[int, np.ndarray], config: GriteConfig, horizon: int
) -> None:
    """Install the shared mining state in a worker process."""
    global _WORKER_TRAINS, _WORKER_CONFIG, _WORKER_HORIZON
    _WORKER_TRAINS = trains
    _WORKER_CONFIG = config
    _WORKER_HORIZON = horizon


def _seed_anchor_row(a: int) -> List[Tuple[int, int, PairCorrelation]]:
    """All significant pairs anchored at event type ``a`` (worker side):
    the sequential miner's own :meth:`GriteMiner._seed_row`."""
    return GriteMiner(_WORKER_CONFIG)._seed_row(
        a, _WORKER_TRAINS, _WORKER_HORIZON
    )


class ParallelGriteMiner(GriteMiner):
    """GRITE with a process-parallel level-1 sweep.

    Parameters
    ----------
    config:
        Same knobs as the sequential miner.
    n_jobs:
        Worker processes; defaults to the machine's CPU count.  With
        ``n_jobs=1`` the sequential path runs (no pool overhead), which
        also makes the class a drop-in default.
    """

    def __init__(
        self,
        config: Optional[GriteConfig] = None,
        n_jobs: Optional[int] = None,
    ) -> None:
        super().__init__(config)
        self.n_jobs = n_jobs if n_jobs is not None else (os.cpu_count() or 1)
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")

    def _seed_pairs(
        self, trains: Mapping[int, np.ndarray]
    ) -> Dict[int, List[Tuple[int, PairCorrelation]]]:
        if self.n_jobs == 1 or len(trains) < 8:
            return super()._seed_pairs(trains)

        trains = dict(trains)
        anchors = sorted(trains)
        with ProcessPoolExecutor(
            max_workers=min(self.n_jobs, len(anchors)),
            initializer=_init_worker,
            initargs=(trains, self.config, self._horizon(trains)),
        ) as pool:
            return self._index_seed_rows(
                pool.map(_seed_anchor_row, anchors, chunksize=4)
            )
