"""Every function the benchmark's layer map wraps still exists.

``perfbench/layers.py`` times each ``TARGETS`` entry in the traced
benchmark run, and fails that run when an entry no longer resolves.
This test catches the same break in tier-1: it loads the file (nothing
under ``perfbench/`` changes) and resolves every entry the way
``LayerTrace.install`` does, as a module attribute or as a name in the
class's own ``vars``.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layer_map():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layer_map", LAYERS_FILE
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYER_MAP = load_layer_map()


@pytest.mark.parametrize(
    "target", LAYER_MAP.TARGETS, ids=lambda t: f"{t[1]}.{t[2]}"
)
def test_target_resolves(target):
    layer, owner, attr, workloads = target
    assert layer in LAYER_MAP.LAYERS
    assert workloads and set(workloads) <= set(LAYER_MAP.ALL)
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    if class_name:
        cls = getattr(module, class_name)
        assert attr in vars(cls), f"{class_name} defines no {attr}"
    else:
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
