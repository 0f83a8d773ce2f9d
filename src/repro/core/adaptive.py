"""Online correlation adaptation (the paper's section III.C direction).

"Systems experience software upgrades, configuration changes, and even
installation of new components during their lifetime.  These make it
difficult for the algorithms to learn patterns since the system will
experience phase shifts in behavior." (section I) … "We plan to
investigate the use of such methods on-line in order to adapt
correlations to changes in the system." (section III.C)

:class:`AdaptiveELSA` implements that loop: the online phase is replayed
in fixed *update intervals*; after each interval the correlation model is
re-learned over a trailing window (bounded by the pipeline's
``online_keep_seconds``, the paper's two-month memory).  Template ids
stay stable — online HELO classifies the new messages and may mint new
templates for message shapes that appeared after an upgrade — so chains
learned earlier remain valid while chains for *new* failure modes appear
as soon as one update window has seen enough instances.

A static model trained before a phase shift scores zero recall on the
new failure mode forever; the adaptive model converges to normal recall
after roughly one update interval — the contrast
``benchmarks/bench_ablation_adaptive.py`` measures on the latent
fan-degradation scenario.
"""

from __future__ import annotations

from typing import List, Optional

from repro.columnar import RecordBatch
from repro.core.elsa import ELSA, Records
from repro.core.model import TrainedModel
from repro.prediction.engine import Prediction


class AdaptiveELSA(ELSA):
    """ELSA with periodic online re-learning of the correlation model."""

    def predict_adaptive(
        self,
        records: Records,
        t_start: float,
        t_end: float,
        update_interval: float = 86400.0,
        keep_seconds: Optional[float] = None,
    ) -> List[Prediction]:
        """Predict over ``[t_start, t_end)`` with periodic model updates.

        Each interval is predicted with the *current* model (no
        lookahead), then the model is re-learned on the trailing window
        ending at the interval boundary.  Returns all predictions, in
        emission order.  A record list is columnarized once, and every
        interval's stream and update reads that one batch.
        """
        if update_interval <= 0:
            raise ValueError("update_interval must be positive")
        self._require_model()
        if not isinstance(records, RecordBatch):
            records = RecordBatch.from_records(records)
        predictions: List[Prediction] = []
        #: model refresh timeline, for observability in tests/benches
        self.update_times: List[float] = []
        t = t_start
        while t < t_end:
            chunk_end = min(t + update_interval, t_end)
            stream = self.make_stream(records, t, chunk_end)
            predictor = self.hybrid_predictor()
            predictions.extend(predictor.run(stream))
            if chunk_end < t_end:
                self.update_model(records, now=chunk_end,
                                  keep_seconds=keep_seconds)
                self.update_times.append(chunk_end)
            t = chunk_end
        predictions.sort(key=lambda p: p.emitted_at)
        return predictions

    def update_model(
        self,
        records: Records,
        now: float,
        keep_seconds: Optional[float] = None,
    ) -> TrainedModel:
        """Re-learn the correlation model on the trailing window.

        The window spans ``[now - keep_seconds, now)`` — "we keep only
        the last two months in the on-line module" — and is classified
        with the *online* HELO table so event-type ids stay stable
        across updates (new message shapes mint new ids at the end).

        The re-learn itself is :meth:`~repro.core.elsa.ELSA.learn_candidate`;
        this method is the adopt-unconditionally policy around it (the
        self-healing lifecycle loop validates before adopting instead).
        """
        keep = keep_seconds if keep_seconds is not None else (
            self.config.online_keep_seconds
        )
        t0 = max(0.0, now - keep)
        self.model = self.learn_candidate(records, t0, now)
        return self.model
