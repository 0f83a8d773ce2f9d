"""Pipeline configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.helo.miner import MinerConfig
from repro.mining.grite import GriteConfig
from repro.prediction.engine import PredictorConfig
from repro.resilience.config import ResilienceConfig


@dataclass
class PipelineConfig:
    """End-to-end knobs of the ELSA pipeline.

    ``sampling_period`` is the paper's 10-second unit.  Event types are
    always the HELO-mined templates: the pipeline reads a log's
    timestamp, location, severity and message, never a generator's
    ground-truth ids.
    ``online_keep_seconds`` bounds the online signal history ("we keep
    only the last two months in the on-line module"); scaled scenarios
    keep proportionally less.
    ``resilience`` enables the hardened ingestion path: records entering
    ``fit``/``make_stream`` are sanitized by
    :func:`~repro.resilience.stream.sanitize_batch` (late quarantine,
    dedupe, backpressure, reorder, gap sentinels).  ``None`` (the
    default) bypasses it entirely, keeping the clean-input pipeline
    byte-identical.
    """

    sampling_period: float = 10.0
    online_keep_seconds: float = 14 * 86400.0
    miner: MinerConfig = field(default_factory=MinerConfig)
    grite: GriteConfig = field(default_factory=GriteConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    resilience: Optional[ResilienceConfig] = None
