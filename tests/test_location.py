"""Tests for location correlation and the propagation heuristic."""

import numpy as np
import pytest

from repro.columnar import RecordBatch
from repro.location.propagation import (
    ChainLocationProfile,
    LocationIndex,
    LocationPredictor,
    extract_location_profiles,
    propagation_breakdown,
)
from repro.mining.correlations import CorrelationChain, GradualItem
from repro.mining.grite import GriteMiner
from repro.simulation.topology import HierarchyLevel, build_bluegene_machine
from repro.simulation.trace import LogRecord, Severity
from tests.conftest import ground_truth


@pytest.fixture(scope="module")
def machine():
    return build_bluegene_machine(n_racks=2)


def _records(machine, events):
    """events: (timestamp, node_index, event_type)."""
    return [
        LogRecord(t, machine.nodes[n], Severity.INFO, "m", event_type=e)
        for t, n, e in events
    ]


class TestLocationIndex:
    def test_lookup(self, machine):
        recs = _records(machine, [(5.0, 0, 1), (25.0, 3, 1), (5.0, 7, 2)])
        idx = LocationIndex(*ground_truth(recs))
        assert idx.locations_near(1, 0, 0) == [machine.nodes[0]]
        assert idx.locations_near(1, 2, 0) == [machine.nodes[3]]
        assert idx.locations_near(2, 0, 1) == [machine.nodes[7]]

    def test_tolerance_widens(self, machine):
        recs = _records(machine, [(5.0, 0, 1), (45.0, 3, 1)])
        idx = LocationIndex(*ground_truth(recs))
        assert len(idx.locations_near(1, 2, 3)) == 2

    def test_unknown_event_empty(self, machine):
        idx = LocationIndex(*ground_truth([]))
        assert idx.locations_near(9, 0, 5) == []

    def test_none_ids_skipped(self, machine):
        recs = _records(machine, [(5.0, 0, 1)])
        idx = LocationIndex(RecordBatch.from_records(recs), np.array([-1]))
        assert idx.locations_near(1, 0, 2) == []

    def test_parallel_enforced(self, machine):
        recs = _records(machine, [(5.0, 0, 1)])
        with pytest.raises(ValueError):
            LocationIndex(RecordBatch.from_records(recs),
                          np.empty(0, dtype=np.int64))


class TestChainLocationProfile:
    def _chain(self):
        return CorrelationChain(items=(GradualItem(0, 0), GradualItem(3, 1)))

    def test_no_propagation(self, machine):
        p = ChainLocationProfile(self._chain())
        p.occurrences = [(machine.nodes[0],), (machine.nodes[4],)]
        assert not p.propagates
        assert p.propagation_fraction == 0.0
        assert p.mean_affected == 1.0
        assert p.typical_spread(machine) == HierarchyLevel.NODE

    def test_propagation_stats(self, machine):
        card = machine.nodes[:3]
        p = ChainLocationProfile(self._chain())
        p.occurrences = [tuple(card), (machine.nodes[9],)]
        assert p.propagates
        assert p.propagation_fraction == pytest.approx(0.5)
        assert p.max_affected == 3

    def test_typical_spread_uses_propagating_occurrences(self, machine):
        # 1/3 of occurrences propagate across a node card: plan for it.
        p = ChainLocationProfile(self._chain())
        p.occurrences = [
            (machine.nodes[0],),
            (machine.nodes[0],),
            (machine.nodes[0], machine.nodes[1]),
        ]
        assert p.typical_spread(machine) == HierarchyLevel.NODE_CARD
        # ...but the Fig. 7 modal view reports no propagation.
        assert p.modal_spread(machine) == HierarchyLevel.NODE

    def test_rare_propagation_ignored(self, machine):
        p = ChainLocationProfile(self._chain())
        p.occurrences = [(machine.nodes[0],)] * 19 + [
            (machine.nodes[0], machine.nodes[1])
        ]
        assert p.typical_spread(machine) == HierarchyLevel.NODE

    def test_empty_profile(self, machine):
        p = ChainLocationProfile(self._chain())
        assert p.typical_spread(machine) == HierarchyLevel.NODE
        assert p.mean_affected == 0.0
        assert p.max_affected == 0

    def test_unknown_locations_skipped(self, machine):
        p = ChainLocationProfile(self._chain())
        p.occurrences = [("weird-loc",)]
        assert p.typical_spread(machine) == HierarchyLevel.NODE


class TestExtractLocationProfiles:
    def test_profiles_capture_occurrence_locations(self, machine):
        # anchor (type 0) on node 0, follower (type 1) on node 1, x3.
        events = []
        for k in range(5):
            t0 = 1000.0 * k
            events.append((t0, 0, 0))
            events.append((t0 + 30.0, 1, 1))
        recs = _records(machine, events)
        trains = {
            0: np.array([int(e[0] // 10) for e in events[::2]]),
            1: np.array([int(e[0] // 10) for e in events[1::2]]),
        }
        chain = CorrelationChain(items=(GradualItem(0, 0), GradualItem(3, 1)))
        miner = GriteMiner()
        idx = LocationIndex(*ground_truth(recs))
        profiles = extract_location_profiles([chain], miner, trains, idx)
        assert len(profiles) == 1
        prof = profiles[0]
        assert prof.n_occurrences == 5
        assert set(prof.occurrences[0]) == {machine.nodes[0], machine.nodes[1]}
        assert prof.initiator_included_fraction(machine) == 1.0


class TestPropagationBreakdown:
    def test_fractions(self, machine):
        chain = CorrelationChain(items=(GradualItem(0, 0), GradualItem(1, 1)))
        p_node = ChainLocationProfile(chain)
        p_node.occurrences = [(machine.nodes[0],)]
        p_rack = ChainLocationProfile(chain)
        mid_size = machine.cards_per_midplane * machine.nodes_per_card
        p_rack.occurrences = [(machine.nodes[0], machine.nodes[mid_size])]
        out = propagation_breakdown([p_node, p_rack], machine)
        assert out[HierarchyLevel.NODE] == pytest.approx(0.5)
        assert out[HierarchyLevel.RACK] == pytest.approx(0.5)

    def test_empty(self, machine):
        assert propagation_breakdown([], machine) == {}


class TestLocationPredictor:
    def _profile(self, machine, chain, occurrences):
        p = ChainLocationProfile(chain)
        p.occurrences = occurrences
        return p

    def test_node_spread_predicts_anchor(self, machine):
        chain = CorrelationChain(items=(GradualItem(0, 0), GradualItem(1, 1)))
        prof = self._profile(machine, chain, [(machine.nodes[0],)])
        pred = LocationPredictor(machine, [prof])
        assert pred.predict(chain, machine.nodes[5]) == [machine.nodes[5]]

    def test_midplane_spread_predicts_unit(self, machine):
        chain = CorrelationChain(items=(GradualItem(0, 0), GradualItem(1, 1)))
        card = machine.nodes_per_card
        prof = self._profile(
            machine, chain,
            [(machine.nodes[0], machine.nodes[card])] * 3,
        )
        pred = LocationPredictor(machine, [prof])
        out = pred.predict(chain, machine.nodes[0])
        assert set(out) == set(
            machine.peers(machine.nodes[0], HierarchyLevel.MIDPLANE)
        )

    def test_global_spread_falls_back_to_anchor(self, machine):
        chain = CorrelationChain(items=(GradualItem(0, 0), GradualItem(1, 1)))
        prof = self._profile(
            machine, chain, [(machine.nodes[0], machine.nodes[-1])] * 3
        )
        pred = LocationPredictor(machine, [prof])
        assert pred.predict(chain, machine.nodes[0]) == [machine.nodes[0]]

    def test_unknown_anchor_uses_history(self, machine):
        chain = CorrelationChain(items=(GradualItem(0, 0), GradualItem(1, 1)))
        prof = self._profile(machine, chain, [(machine.nodes[3],)] * 4)
        pred = LocationPredictor(machine, [prof])
        assert pred.predict(chain, "unknown") == [machine.nodes[3]]

    def test_unseen_chain_defaults_node(self, machine):
        chain = CorrelationChain(items=(GradualItem(0, 8), GradualItem(1, 9)))
        pred = LocationPredictor(machine, [])
        assert pred.spread_of(chain) == HierarchyLevel.NODE
        assert pred.predict(chain, machine.nodes[2]) == [machine.nodes[2]]
