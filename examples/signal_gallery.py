#!/usr/bin/env python3
"""Fig. 1 in the terminal: the three signal classes and their outliers.

Renders one trained signal per class as a sparkline panel with outlier
markers underneath — the closest terminal-native equivalent of the
paper's Fig. 1 ((a) noise with error bursts, (b) corrected-parity noise,
(c) the periodic "controlling BG/L rows" monitor) plus the node-crash
*absence* anomaly that motivates the whole signal-analysis approach.

Usage::

    python examples/signal_gallery.py [seed]
"""

import sys

from repro import ELSA, bluegene_scenario
from repro.signals.outliers import detect_outliers_offline
from repro.simulation.templates import SignalClass
from repro.viz import signal_panel


def main(seed: int = 11) -> None:
    scenario = bluegene_scenario(duration_days=3.0, seed=seed)
    elsa = ELSA(scenario.machine)
    model = elsa.fit(scenario.records, t_train_end=scenario.train_end)

    stream = elsa.make_stream(
        scenario.records, scenario.train_end, scenario.t_end
    )
    signals = stream.signals

    # pick the most active signal of each class
    picks = {}
    for tid, nb in model.behaviors.items():
        sig = signals.signal(tid)
        score = sig.sum()
        cur = picks.get(nb.signal_class)
        if cur is None or score > cur[1]:
            picks[nb.signal_class] = (tid, score, nb)

    width = 76
    order = [SignalClass.NOISE, SignalClass.PERIODIC, SignalClass.SILENT]
    for sclass in order:
        if sclass not in picks:
            continue
        tid, _, nb = picks[sclass]
        sig = signals.signal(tid).astype(float)
        res = detect_outliers_offline(sig, nb)
        # zoom to a window around the first anomaly (or the head) so one
        # character covers only a few samples
        idx = res.indices
        center = int(idx[0]) if idx.size else width
        lo = max(0, center - width // 2)
        hi = min(sig.size, lo + 4 * width)
        title = (
            f"[{sclass.value:^8}] {model.event_name(tid)[:52]} "
            f"(threshold {nb.threshold:.1f}"
            + (f", period {nb.period}u" if nb.period else "")
            + f"; samples {lo}-{hi})"
        )
        print(signal_panel(sig[lo:hi], title, flags=res.flags[lo:hi],
                           width=width))
        print()

    # the heartbeat with its crash-induced silences, zoomed to a crash
    hb = [
        tid for tid in model.behaviors
        if "heartbeat" in model.event_name(tid)
    ]
    if hb:
        tid = hb[0]
        nb = model.behaviors[tid]
        sig = signals.signal(tid).astype(float)
        res = detect_outliers_offline(sig, nb)
        idx = res.indices
        center = int(idx[0]) if idx.size else width
        lo = max(0, center - 60)
        hi = min(sig.size, lo + 3 * width)
        print(signal_panel(
            sig[lo:hi],
            f"[absence ] {model.event_name(tid)[:52]} — the gap under "
            f"the ^ is a node crash (samples {lo}-{hi})",
            flags=res.flags[lo:hi],
            width=width,
        ))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 11)
