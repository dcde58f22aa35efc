"""Pin every single-device engine's run, bookkeeping included.

``engine_pins.json`` holds one sha256 per case.  Each digest covers a
fit's labels, medoids, subspaces, both costs, iteration counts, its
counters in insertion order, its phase and modeled seconds, its peak
device bytes and every event of its cost ledger, in accrual order
(floats as ``float.hex``).  The cases are:

* every backend in ``BACKENDS`` but the fleets, plus ``gpu-fast`` with
  ``dist_chunks=3``, on min-max normalized data and on the same data
  scaled by 100 (where the per-dimension sums round), with two seeds;
* level 0-3 parameter studies of every backend that keeps a medoid
  cache, one digest per study over its settings in grid order.

A change that moves work from one ``_account_*`` call to another, or
reorders them, changes a digest even when the clustering and the
totals stay put.  Regenerate the pin after a deliberate change with::

    PYTHONPATH=src python tests/test_engine_pins.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core.api import BACKENDS
from repro.core.multiparam import run_study
from repro.data import generate_subspace_data, minmax_normalize
from repro.params import ParameterGrid, ProclusParams

PIN = Path(__file__).with_name("engine_pins.json")

PARAMS = ProclusParams(k=4, l=3, a=20, b=4)
GRID = ParameterGrid(ks=(4, 3), ls=(3, 2), base=PARAMS)

#: Fit variants: backend name -> (registry name, engine keywords).
FITS = {
    name: (name, {}) for name in sorted(BACKENDS) if not name.startswith("fleet")
}
FITS["gpu-fast/dist_chunks=3"] = ("gpu-fast", {"dist_chunks": 3})
STUDIES = (
    "fast", "fast-star", "multicore-fast", "multicore-fast-star",
    "fast-dist-only", "fast-h-only",
    "gpu-fast", "gpu-fast-star", "gpu-fast-dist-only", "gpu-fast-h-only",
)
CASES = [
    f"{fit} {scale} seed={seed}"
    for fit in FITS for scale in ("unit", "raw") for seed in (1, 2)
] + [f"study {backend} level={level}" for backend in STUDIES for level in range(4)]


@lru_cache(maxsize=None)
def dataset(scale: str):
    data = minmax_normalize(
        generate_subspace_data(
            n=600, d=8, n_clusters=4, subspace_dims=4, seed=5
        ).data
    )
    return data if scale == "unit" else data * 100


def lines(engine, result) -> list[str]:
    """One fit as JSON lines: its result, stats and ledger."""
    stats = result.stats
    head = [
        result.labels.tolist(),
        result.medoids.tolist(),
        [list(dims) for dims in result.dimensions],
        result.cost.hex(),
        result.refined_cost.hex(),
        result.iterations,
        result.best_iteration,
        [[name, float(value).hex()] for name, value in stats.counters.items()],
        [[name, value.hex()] for name, value in stats.phase_seconds.items()],
        stats.modeled_seconds.hex(),
        stats.peak_device_bytes,
    ]
    return [json.dumps(head)] + [
        json.dumps([
            event.kind,
            event.name,
            event.phase,
            event.units,
            [list(component) for component in event.components],
            None if event.launch is None else list(astuple(event.launch)),
        ])
        for event in engine.model.events
    ]


def recording(backend: str, engines: list):
    """The backend's engine class, keeping each engine it fits."""

    class Recording(BACKENDS[backend]):
        def fit(self, data):
            engines.append(self)
            return super().fit(data)

    return Recording


def digest(case: str) -> str:
    engines: list = []
    out: list[str] = []
    if case.startswith("study "):
        _, backend, level = case.split(" ")
        study = run_study(
            dataset("unit"), recording(backend, engines), grid=GRID,
            level=int(level.removeprefix("level=")), seed=3,
        )
        for engine, result in zip(engines, study.results.values()):
            out += lines(engine, result)
    else:
        fit, scale, seed = case.split(" ")
        backend, kwargs = FITS[fit]
        engine = recording(backend, engines)(
            params=PARAMS, seed=int(seed.removeprefix("seed=")), **kwargs
        )
        out = lines(engine, engine.fit(dataset(scale)))
    return hashlib.sha256("\n".join(out).encode()).hexdigest()


@pytest.fixture(scope="module")
def pin():
    return json.loads(PIN.read_text())


def test_pin_covers_every_case(pin):
    assert list(pin) == CASES


@pytest.mark.parametrize("case", CASES)
def test_engine_matches_pin(pin, case):
    assert digest(case) == pin[case]


if __name__ == "__main__":  # pragma: no cover - regenerates the pin
    PIN.write_text(
        "{\n"
        + ",\n".join(
            f" {json.dumps(case)}: {json.dumps(digest(case))}" for case in CASES
        )
        + "\n}\n"
    )
    print(f"wrote {PIN}")
