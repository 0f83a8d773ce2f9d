"""Table IV — percentage waste improvement in checkpointing strategies.

Paper rows (C, precision, recall, MTTF → waste gain):

    1 min, 92, 20, one day  ->  9.13%
    1 min, 92, 36, one day  -> 17.33%
    10 s,  92, 36, one day  -> 12.09%
    10 s,  92, 45, one day  -> 15.63%
    1 min, 92, 50, 5 h      -> 21.74%
    10 s,  92, 65, 5 h      -> 24.78%

Four of the six rows are reproduced *exactly* by equations (1)-(7) with
R = 5 min, D = 1 min; the two 10-second rows land a few points high (the
closed form is fully determined by the stated parameters, so the printed
values likely used a slightly different setting — see EXPERIMENTS.md).
A discrete-event simulation cross-checks one row.
"""

import numpy as np
import pytest
from conftest import save_report

from repro.checkpoint import (
    CheckpointParams,
    CheckpointSimulator,
    waste_gain,
    waste_with_prediction,
)

ROWS = [
    # C (min), precision, recall, MTTF (min), paper gain %
    (1.0, 0.92, 0.20, 1440.0, 9.13),
    (1.0, 0.92, 0.36, 1440.0, 17.33),
    (10 / 60, 0.92, 0.36, 1440.0, 12.09),
    (10 / 60, 0.92, 0.45, 1440.0, 15.63),
    (1.0, 0.92, 0.50, 300.0, 21.74),
    (10 / 60, 0.92, 0.65, 300.0, 24.78),
]


def test_table4_waste_gains(benchmark):
    def compute():
        return [
            100 * waste_gain(
                CheckpointParams(checkpoint_time=C, mttf=mttf), N, P
            )
            for C, P, N, mttf, _ in ROWS
        ]

    gains = benchmark(compute)

    lines = [
        f"{'C':>6} {'Precision':>10} {'Recall':>7} {'MTTF':>9} "
        f"{'gain':>8} {'paper':>8}"
    ]
    for (C, P, N, mttf, paper), gain in zip(ROWS, gains):
        c_label = "1min" if C == 1.0 else "10s"
        mttf_label = "one day" if mttf == 1440.0 else "5h"
        lines.append(
            f"{c_label:>6} {P:>10.0%} {N:>7.0%} {mttf_label:>9} "
            f"{gain:>7.2f}% {paper:>7.2f}%"
        )
    save_report("table4_checkpoint", "\n".join(lines))

    exact = [0, 1, 4, 5]
    for i in exact:
        assert gains[i] == pytest.approx(ROWS[i][4], abs=0.02)
    for i in (2, 3):
        assert gains[i] == pytest.approx(ROWS[i][4], abs=4.5)
    # Monotonicity the paper highlights: >20% gain at 5h MTTF with
    # recall >= 50%.
    assert gains[4] > 20.0


def test_table4_simulator_crosscheck(benchmark):
    params = CheckpointParams(checkpoint_time=1.0, mttf=1440.0)
    sim = CheckpointSimulator(params, recall=0.36, precision=0.92)

    # a fresh generator per round, so the report does not depend on how
    # many rounds ran (``--benchmark-disable`` runs one)
    result = benchmark.pedantic(
        sim.run, setup=lambda: ((400_000, np.random.default_rng(0)), {}),
        rounds=2, iterations=1,
    )
    analytic = waste_with_prediction(params, 0.36, 0.92)
    text = (
        f"row (C=1min, P=92%, N=36%, MTTF=1day):\n"
        f"  simulated waste {result.waste:.4f}\n"
        f"  analytic  waste {analytic:.4f}\n"
        f"  failures {result.n_failures}, predicted {result.n_predicted}, "
        f"false alarms {result.n_false_alarms}\n"
    )
    save_report("table4_simulator_crosscheck", text)
    assert result.waste == pytest.approx(analytic, rel=0.2)
