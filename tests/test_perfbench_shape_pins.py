"""Pin whole fits at the shapes the wall-clock benchmark runs.

``perfbench_shape_pins.json`` holds one sha256 per case.  Each digest
covers a fit's labels, medoids, subspaces, both costs, iteration
counts, its counters in insertion order, its phase and modeled seconds
and every event of its cost ledgers in accrual order (floats as
``float.hex``); a fleet fit adds its logical ledger, every shard's
ledger and every shard's counters.  The cases are the benchmark's fit
workloads, each with two engine seeds on min-max normalized
``generate_subspace_data`` sets, k = 10, l = 5 and exactly 12
iterations:

* ``gpu``, ``gpu-fast`` and ``gpu-fast-star`` at n = 4096, d = 15
  (fit-small);
* ``gpu-fast`` at n = 32768, d = 30 (fit-large);
* ``fleet-gpu-fast`` on ``default_fleet(4)`` at n = 8192, d = 15
  (fleet-d4).

The benchmark checks each of its fits against the ``fast`` backend,
which runs the same numeric primitives, so it cannot see a change that
moves every backend alike; these pins can.  Regenerate them after a
deliberate change with::

    PYTHONPATH=src python tests/test_perfbench_shape_pins.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core.api import BACKENDS
from repro.data import generate_subspace_data, minmax_normalize
from repro.fleet import default_fleet
from repro.params import ProclusParams

PIN = Path(__file__).with_name("perfbench_shape_pins.json")

PARAMS = ProclusParams(k=10, l=5, patience=12, max_iterations=12)
#: workload -> (n, d, backends, devices)
SHAPES = {
    "fit-small": (4096, 15, ("gpu", "gpu-fast", "gpu-fast-star"), 0),
    "fit-large": (32768, 30, ("gpu-fast",), 0),
    "fleet-d4": (8192, 15, ("fleet-gpu-fast",), 4),
}
CASES = [
    f"{backend} {workload} seed={seed}"
    for workload, (_, _, backends, _) in SHAPES.items()
    for backend in backends
    for seed in (1, 2)
]


@lru_cache(maxsize=None)
def dataset(workload: str):
    n, d, _, _ = SHAPES[workload]
    return minmax_normalize(generate_subspace_data(n=n, d=d, seed=n + d).data)


def ledger(model) -> list[str]:
    """Every cost event of ``model``, in accrual order."""
    return [
        json.dumps([
            event.kind,
            event.name,
            event.phase,
            event.units,
            [list(component) for component in event.components],
            None if event.launch is None else list(astuple(event.launch)),
        ])
        for event in model.events
    ]


def lines(engine, result) -> list[str]:
    """One fit as JSON lines: its result, stats and ledgers."""
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
    ]
    model = engine.model
    out = [json.dumps(head)] + ledger(model)
    if hasattr(model, "shards"):
        out += ["logical"] + ledger(model.logical)
        for shard in model.shards:
            counters = [
                [name, float(value).hex()]
                for name, value in shard.counter.as_dict().items()
            ]
            out += ["shard", json.dumps(counters)] + ledger(shard)
    return out


def digest(case: str) -> str:
    backend, workload, seed = case.split(" ")
    _, _, _, devices = SHAPES[workload]
    kwargs = {"fleet": default_fleet(devices)} if devices else {}
    engine = BACKENDS[backend](
        params=PARAMS, seed=int(seed.removeprefix("seed=")), **kwargs
    )
    result = engine.fit(dataset(workload))
    assert result.iterations == PARAMS.max_iterations
    return hashlib.sha256("\n".join(lines(engine, result)).encode()).hexdigest()


@pytest.fixture(scope="module")
def pin():
    return json.loads(PIN.read_text())


def test_pin_covers_every_case(pin):
    assert list(pin) == CASES


@pytest.mark.parametrize("case", CASES)
def test_fit_matches_pin(pin, case):
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
