"""Pin every SIMT-emulated engine's run, span tree and launch sequence.

``emulated_pins.json`` holds one sha256 per case: each of the three
emulated engines (plain, FAST, FAST*) with seeds 0-2, on the in-order
schedule and on a shuffled one (``schedule_seed=99``).  Each digest
covers a fit's labels, medoids, subspaces, both costs, iteration
counts, its stats but the wall-clock seconds, its per-iteration trace,
its span tree (names, categories, attributes and nesting) and its
kernel launches in order (name, pipeline and geometry).

The shuffled schedule draws from one generator across all launches, so
a change that adds, drops, reorders or reshapes a launch changes the
digest even when the clustering stays put.  Regenerate the pin after a
deliberate change with::

    PYTHONPATH=src python tests/test_emulated_pins.py
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.data import generate_subspace_data, minmax_normalize
from repro.gpu_impl.emulated_engine import (
    EmulatedGpuFastProclusEngine,
    EmulatedGpuFastStarProclusEngine,
    EmulatedGpuProclusEngine,
)
from repro.obs import Tracer, use_run
from repro.params import ProclusParams

PIN = Path(__file__).with_name("emulated_pins.json")

PARAMS = ProclusParams(k=3, l=3, a=15, b=4, patience=3)
ENGINES = {
    engine.backend_name: engine
    for engine in (
        EmulatedGpuProclusEngine,
        EmulatedGpuFastProclusEngine,
        EmulatedGpuFastStarProclusEngine,
    )
}
SCHEDULES = {"in-order": None, "shuffled": 99}
CASES = [
    f"{backend} seed={seed} {schedule}"
    for backend in ENGINES for seed in (0, 1, 2) for schedule in SCHEDULES
]


@lru_cache(maxsize=None)
def dataset():
    return minmax_normalize(
        generate_subspace_data(
            n=120, d=6, n_clusters=3, subspace_dims=3, seed=5
        ).data
    )


def _plain(value):
    """JSON-ready form of a span attribute (floats as ``float.hex``)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value if isinstance(value, (bool, int, str)) or value is None else repr(value)


def _span(span) -> list:
    return [
        span.name,
        span.category,
        sorted([key, _plain(value)] for key, value in span.attrs.items()),
        [_span(child) for child in span.children],
    ]


def lines(result, tracer: Tracer) -> list[str]:
    """One fit as JSON lines: result, stats, trace, spans, launches."""
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
        stats.iterations,
        stats.backend,
        stats.hardware,
    ]
    trace = [
        json.dumps([
            record.iteration,
            record.cost.hex(),
            record.improved,
            record.best_cost.hex(),
            list(record.medoid_positions),
            list(record.cluster_sizes),
            list(record.bad_medoids),
        ])
        for record in result.trace
    ]
    spans = [json.dumps(_span(root)) for root in tracer.roots]
    launches = [
        json.dumps([
            event.name, event.pipeline, event.phase, event.clock,
            event.grid_blocks, event.threads_per_block,
        ])
        for event in tracer.kernel_events
    ]
    return [json.dumps(head)] + trace + spans + launches


def digest(case: str) -> str:
    backend, seed, schedule = case.split(" ")
    engine = ENGINES[backend](
        params=PARAMS,
        seed=int(seed.removeprefix("seed=")),
        schedule_seed=SCHEDULES[schedule],
        collect_trace=True,
    )
    tracer = Tracer()
    with use_run(tracer=tracer):
        result = engine.fit(dataset())
    return hashlib.sha256("\n".join(lines(result, tracer)).encode()).hexdigest()


@pytest.fixture(scope="module")
def pin():
    return json.loads(PIN.read_text())


def test_pin_covers_every_case(pin):
    assert list(pin) == CASES


@pytest.mark.parametrize("case", CASES)
def test_emulated_engine_matches_pin(pin, case):
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
