"""Shared fixtures.

The heavyweight artifacts (a generated scenario and a fitted ELSA model)
are session-scoped: integration tests across files share one build, so
the whole suite stays in tens of seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ELSA
from repro.columnar import RecordBatch
from repro.datasets import bluegene_scenario


def ground_truth(records):
    """A record list as a batch plus its generator ids (int64, ``-1`` for
    none): hand-built classified input for engine-level tests."""
    ids = np.array(
        [-1 if r.event_type is None else r.event_type for r in records],
        dtype=np.int64,
    )
    return RecordBatch.from_records(records), ids


@pytest.fixture(scope="session")
def rng():
    """Deterministic generator for tests that do not mutate it."""
    return np.random.default_rng(12345)


#: parameters of the shared scenario (``tests/test_golden.py`` pins its
#: predictions and regenerates its digests from the same scenario)
SMALL_SCENARIO = dict(
    duration_days=1.5,
    train_fraction=0.4,
    seed=42,
    fault_rate_scale=1.5,
    base_rate_per_sec=0.25,
)


@pytest.fixture(scope="session")
def small_scenario():
    """A 1.5-day Blue Gene-like scenario shared by integration tests."""
    return bluegene_scenario(**SMALL_SCENARIO)


@pytest.fixture(scope="session")
def fitted_elsa(small_scenario):
    """An ELSA pipeline fitted on the shared scenario's training window."""
    elsa = ELSA(small_scenario.machine)
    elsa.fit(small_scenario.records, t_train_end=small_scenario.train_end)
    return elsa
