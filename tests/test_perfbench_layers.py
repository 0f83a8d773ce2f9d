"""The benchmark's layer trace targets exist in the program.

``perfbench/layers.py`` wraps named functions of the program to time
each layer.  A target that no longer exists fails only when a traced
benchmark run installs its tracer, so this test installs one and takes
it out again.
"""

import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", LAYERS_PY
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(layers, target):
    owner, attr = layers._resolve(target)
    if isinstance(owner, type):
        return vars(owner)[attr]
    return getattr(owner, attr)


def test_tracer_installs_and_uninstalls():
    layers = _load_layers()
    targets = [t for ts in layers.LAYERS.values() for t in ts]
    targets += layers.REQUEST_CONTEXTS
    before = {t: _current(layers, t) for t in targets}
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert tracer.active
        assert all(_current(layers, t) is not before[t] for t in targets)
    finally:
        tracer.uninstall()
    assert not tracer.active
    assert all(_current(layers, t) is before[t] for t in targets)
