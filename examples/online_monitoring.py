#!/usr/bin/env python3
"""Streaming monitoring demo: watch predictions fire in (simulated) time.

Shows the online half of the system the way an operator would see it:
the test window is replayed hour by hour; each hour is classified with
online HELO, appended to the signal set, scanned for outliers, and any
firing chains print their prediction with the remaining lead time.  The
node-crash chain demonstrates the paper's signature capability —
predicting a failure whose only symptom is a *lack* of messages.

Usage::

    python examples/online_monitoring.py [seed]
"""

import sys

from repro import ELSA, bluegene_scenario, evaluate_predictions
from repro.columnar import RecordBatch


def main(seed: int = 11) -> None:
    scenario = bluegene_scenario(duration_days=5.0, seed=seed)
    # columnarize once: every hourly make_stream reads the same batch
    records = RecordBatch.from_records(scenario.records)
    elsa = ELSA(scenario.machine)
    model = elsa.fit(records, t_train_end=scenario.train_end)
    predictor = elsa.hybrid_predictor()
    print(
        f"trained: {len(predictor.chains)} chains armed "
        f"(of {len(model.predictive_chains)} predictive)\n"
    )

    hour = 3600.0
    t = scenario.train_end
    total_preds = 0
    while t < scenario.t_end - hour:
        stream = elsa.make_stream(records, t, t + hour)
        predictions = predictor.run(stream)
        stamp = f"[day {t / 86400.0:4.2f}]"
        if not predictions:
            print(f"{stamp} -- quiet hour "
                  f"({len(stream.batch):5d} messages)")
        for p in predictions:
            total_preds += 1
            anchor = model.event_name(p.anchor_event)[:38]
            fatal = model.event_name(p.fatal_event)[:38]
            where = p.locations[0] if len(p.locations) == 1 else (
                f"{len(p.locations)} nodes around {p.locations[0]}"
            )
            print(
                f"{stamp} PREDICTION after '{anchor}':\n"
                f"         expect '{fatal}'\n"
                f"         in {p.visible_window:6.0f}s at {where} "
                f"(analysis took {p.analysis_time * 1000:.0f} ms)"
            )
        t += hour

    print(f"\n{total_preds} predictions over the replay window")

    # Compare against full-window evaluation for reference.
    full = predictor.run(
        elsa.make_stream(records, scenario.train_end, scenario.t_end)
    )
    res = evaluate_predictions(full, scenario.test_faults)
    print(f"whole-window reference: precision {res.precision:.0%}, "
          f"recall {res.recall:.0%}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 11)
