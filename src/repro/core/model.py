"""The trained (offline-phase) model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.helo.template import TemplateTable
from repro.location.propagation import ChainLocationProfile, LocationPredictor
from repro.mining.correlations import CorrelationChain
from repro.signals.characterize import NormalBehavior
from repro.simulation.trace import Severity


@dataclass
class TrainedModel:
    """Everything the offline phase learns.

    ``chains`` holds every mined correlation chain;
    ``predictive_chains`` the subset surviving the severity filter
    (section IV.A discards chains whose members are all INFO — restart
    sequences, multiline dumps and other informational structure, about
    23 % of the total); ``info_chains`` is that discarded remainder, kept
    for the §IV.A statistics.
    """

    table: TemplateTable
    n_types: int
    behaviors: Dict[int, NormalBehavior]
    trains: Dict[int, np.ndarray]
    chains: List[CorrelationChain]
    predictive_chains: List[CorrelationChain]
    info_chains: List[CorrelationChain]
    severities: Dict[int, Severity]
    profiles: List[ChainLocationProfile]
    location_predictor: LocationPredictor
    seed_pairs: List[Tuple[int, int, object]]
    t_train_start: float
    t_train_end: float
    #: per-chain observed span quantiles (q10, q50, q90) in samples —
    #: the adaptive prediction windows the online engine emits as
    #: intervals (keyed like the engine's chain keys)
    span_quantiles: Dict[Tuple, Tuple[int, int, int]] = field(
        default_factory=dict
    )

    @property
    def info_chain_fraction(self) -> float:
        """Fraction of chains with no predictive potential (§IV.A ~23 %)."""
        if not self.chains:
            return 0.0
        return len(self.info_chains) / len(self.chains)

    def event_name(self, event_type: int) -> str:
        """Human-readable name of an event type (template skeleton)."""
        return self.table[event_type].skeleton()

    def describe_chain(self, chain: CorrelationChain) -> str:
        """Render a chain in the paper's Table I listing style."""
        return chain.describe(self.table.skeletons())
