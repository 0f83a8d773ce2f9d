#!/usr/bin/env python3
"""Live telemetry demo: scrape a running predictor like Prometheus would.

The other monitoring example (``online_monitoring.py``) shows what the
*operator console* prints; this one shows what the *monitoring stack*
sees.  A streaming hybrid predictor replays the test window hour by
hour with an :class:`~repro.prediction.scoreboard.OnlineScoreboard`
(ground truth matched in-stream) and a drift detector attached, while a
:class:`~repro.obs.live.TelemetryServer` serves the metric registry
over HTTP.  Every simulated hour the script scrapes its own
``/metrics`` and ``/health`` endpoints — exactly what
``elsa-repro predict --listen HOST:PORT`` exposes — and prints the
rolling precision/recall, drift score and health verdict.

Usage::

    python examples/live_monitoring.py [seed]
"""

import json
import sys
import urllib.request

from repro import ELSA, bluegene_scenario
from repro.columnar import RecordBatch
from repro.obs.live import TelemetryServer
from repro.prediction.scoreboard import OnlineScoreboard


def scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.read().decode()


def metric(text: str, name: str, default: float = 0.0) -> float:
    """One sample value out of a Prometheus exposition body."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[-1])
    return default


def main(seed: int = 11) -> None:
    scenario = bluegene_scenario(duration_days=3.0, seed=seed)
    # columnarize once: every hourly make_stream reads the same batch
    records = RecordBatch.from_records(scenario.records)
    elsa = ELSA(scenario.machine)
    elsa.fit(records, t_train_end=scenario.train_end)

    predictor = elsa.streaming_predictor(scenario.train_end, scenario.t_end)
    predictor.attach_scoreboard(OnlineScoreboard(faults=scenario.test_faults))
    detector = predictor.attach_drift_detector()

    with TelemetryServer(host="127.0.0.1", port=0) as srv:
        print(f"telemetry at {srv.url}  (curl {srv.url}/metrics)\n")
        print("  hour  msgs   preds  win-P   win-R   drift  health")
        hour = 3600.0
        t = scenario.train_end
        while t < scenario.t_end:
            t1 = min(t + hour, scenario.t_end)
            chunk = elsa.make_stream(records, t, t1)
            predictor.feed(chunk.batch, chunk.event_ids)
            t = t1

            # what any Prometheus scraper of this process would see:
            prom = scrape(srv.url + "/metrics")
            health = json.loads(scrape(srv.url + "/health"))
            n = (t - scenario.train_end) / hour
            print(
                f"  {n:4.0f}  {predictor.n_records_fed:6d} "
                f"{metric(prom, 'scoreboard_predictions_total'):6.0f} "
                f"{metric(prom, 'scoreboard_window_precision'):6.1%} "
                f"{metric(prom, 'scoreboard_window_recall'):6.1%} "
                f"{metric(prom, 'scoreboard_drift_score'):7.2f}  "
                f"{health['status']}"
            )

        predictions = predictor.finish()
        print(f"\n{predictor.scoreboard.summary()}")
        print(
            f"{len(predictions)} predictions; drift alert episodes: "
            f"{detector.alert_episodes} (the online classifier's warm-up "
            f"and fault-storm message floods both perturb the stream)"
        )
        state = json.loads(scrape(srv.url + "/state"))
        print(
            f"/state carries {len(state['metrics'])} metrics and "
            f"{len(state['spans'])} span trees for elsa-repro stats"
        )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 11)
