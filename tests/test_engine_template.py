"""Algorithm 1 has one loop: ``EngineBase.fit`` and ``EngineBase._run``.

Every engine, the GPU, fleet, multi-core and SIMT-emulated ones
included, changes the algorithm only through the hooks that loop calls
(docs/architecture.md, "The engine template").  A class of its own
``fit`` or ``_run`` would be a second copy of the loop, free to drift
from the first: a copy the emulated engines once carried wrote no
checkpoints and ignored ``resume_from``.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro import BACKENDS
from repro.core.base import EngineBase
from repro.gpu_impl.emulated_engine import (
    EmulatedGpuFastProclusEngine,
    EmulatedGpuFastStarProclusEngine,
    EmulatedGpuProclusEngine,
)

EMULATED = (
    EmulatedGpuProclusEngine,
    EmulatedGpuFastProclusEngine,
    EmulatedGpuFastStarProclusEngine,
)


def _library_engines() -> list[type]:
    """Every ``EngineBase`` subclass the ``repro`` package defines."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    found, pending = [], [EngineBase]
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            # Tests subclass engines too (to record what they fit).
            if sub.__module__.startswith("repro."):
                found.append(sub)
    return found


@pytest.mark.parametrize("engine", _library_engines(), ids=lambda e: e.__name__)
def test_no_engine_or_mixin_defines_the_loop(engine):
    for klass in engine.__mro__:
        if klass is not EngineBase:
            assert "fit" not in vars(klass), klass
            assert "_run" not in vars(klass), klass


@pytest.mark.parametrize(
    "engine",
    [*BACKENDS.values(), *EMULATED],
    ids=lambda engine: engine.backend_name,
)
def test_every_backend_runs_the_base_loop(engine):
    assert engine.fit is EngineBase.fit
    assert engine._run is EngineBase._run
