"""Resilience: hardened ingestion, failure budgets, crash recovery, chaos.

The paper's premise is that production HPC logs are messy — bursty,
gappy, full of evolving message shapes — yet analysis pipelines tend to
assume clean, sorted, well-formed input.  This package is the boundary
between that hostile reality and the pipeline's assumptions:

* :func:`sanitize_batch` (``repro.resilience.stream``) — late
  quarantine, dedupe, backpressure, bounded reordering, gap/clock
  sentinels over a columnar record batch;
* :class:`CircuitBreaker` / :class:`ComponentBreakers`
  (``repro.resilience.breaker``) — per-component failure budgets so one
  bad component degrades, never crashes, the predictor;
* ``repro.resilience.checkpoint`` — JSON checkpoint/restore of the
  online state (template table, detector windows, active chains) so a
  killed ``predict`` run resumes mid-stream with identical output;
* ``repro.resilience.chaos`` — seeded stream perturbators used by the
  resilience test matrix;
* :class:`ChaosTransport` (``repro.resilience.wire``) — wire-level
  fault injection (drop/duplicate/reorder/truncate/stall) between the
  ingest client and the network frontend.

``checkpoint`` and ``chaos`` are imported on demand (they pull in the
prediction engine); the lightweight ingestion pieces are re-exported
here.  Every degradation mode reports through ``resilience.*`` obs
metrics — degraded operation is visible, never silent.
"""

from repro.resilience.breaker import (
    BreakerOpen,
    BreakerState,
    CircuitBreaker,
    ComponentBreakers,
)
from repro.resilience.config import ResilienceConfig
from repro.resilience.stream import (
    GAP_MARKER_LOCATION,
    DeadLetter,
    sanitize_batch,
)
from repro.resilience.wire import ChaosTransport, WireDropped

__all__ = [
    "BreakerOpen",
    "BreakerState",
    "ChaosTransport",
    "CircuitBreaker",
    "ComponentBreakers",
    "DeadLetter",
    "GAP_MARKER_LOCATION",
    "ResilienceConfig",
    "WireDropped",
    "sanitize_batch",
]
