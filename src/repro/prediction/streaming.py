"""A second name for the online engine.

:class:`~repro.prediction.engine.HybridPredictor` is the one online
engine; ``StreamingHybridPredictor`` is the same class object, kept for
code that imports the engine from this module by that name.
"""

from repro.prediction.engine import HybridPredictor

StreamingHybridPredictor = HybridPredictor
