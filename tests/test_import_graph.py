"""Pin the import graph, each check in a fresh interpreter.

This test process already holds every ``repro`` module, so only a new
interpreter shows what a run loads, an import-order cycle between
packages, or an export whose submodule no longer defines it.

* ``import repro`` plus one small gpu-fast fit loads only the engine
  stack: no serving, resilience, benchmark, evaluation or plotting
  module, no emulator or sanitizer, no data generator or loader;
* every package's ``__all__`` names resolve and ``dir()`` lists them,
  every submodule resolves as an attribute to itself, and an unknown
  name raises ``AttributeError``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)

#: Modules (and, ending in ``.``, packages) a gpu-fast fit must not load.
NOT_IN_A_FIT = (
    "repro.serve", "repro.serve.",
    "repro.resilience", "repro.resilience.",
    "repro.bench", "repro.bench.",
    "repro.eval", "repro.eval.",
    "repro.viz", "repro.viz.",
    "repro.cli", "repro.cli.",
    "repro.estimator",
    "repro.obs.monitor", "repro.obs.prometheus",
    "repro.obs.recorder", "repro.obs.postmortem",
    "repro.gpu.emulator", "repro.gpu.sanitizer",
    "repro.gpu.checker", "repro.gpu.profiler",
    "repro.data.synthetic", "repro.data.realworld",
    "repro.data.io", "repro.data.loaders",
)


def run_fresh(script: str) -> object:
    """Run ``script`` in a new interpreter; returns its printed JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_a_fit_loads_only_the_engine_stack():
    loaded = run_fresh("""
        import json, sys
        import numpy as np
        import repro

        data = np.random.default_rng(0).random((600, 6)).astype(np.float32)
        result = repro.proclus(data, k=3, l=3, backend="gpu-fast", seed=0)
        assert result.labels.shape == (600,)
        loaded = [m for m in sys.modules if m.startswith("repro")]
        print(json.dumps(sorted(loaded)))
    """)
    assert "repro.core.api" in loaded and "repro.gpu_impl.gpu_fast" in loaded
    unwanted = [
        module for module in loaded for prefix in NOT_IN_A_FIT
        if module == prefix
        or (prefix.endswith(".") and module.startswith(prefix))
    ]
    assert not unwanted, unwanted


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_resolve(package):
    report = run_fresh(f"""
        import importlib, json, pkgutil
        package = importlib.import_module({package!r})
        listed = set(dir(package))
        unresolved = [n for n in package.__all__ if not hasattr(package, n)]
        unlisted = [n for n in package.__all__ if n not in listed]
        unresolved += [
            info.name
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"
            and getattr(package, info.name) is not importlib.import_module(
                f"{{package.__name__}}.{{info.name}}"
            )
        ]
        try:
            package.no_such_export
            unknown = "resolved"
        except AttributeError:
            unknown = "AttributeError"
        count = len(package.__all__)
        print(json.dumps([count, unresolved, unlisted, unknown]))
    """)
    count, unresolved, unlisted, unknown = report
    assert count > 0
    assert unresolved == []
    assert unlisted == []
    assert unknown == "AttributeError"
