"""Pin the fleet's two books: per-device ledgers and the solo counter.

``fleet_books.json`` holds, for fleet-gpu, fleet-gpu-fast and
fleet-gpu-fast-star on homogeneous fleets of 2, 3 and 4 devices and on
``mixed_fleet()``:

* ``fleet_report(model)`` -- per-device busy, sync and idle seconds,
  launches, flops, bytes and atomics, and the straggler attribution;
* ``RunStats.counters``, in insertion order;
* the ordered ``counter.kernel_launches`` (the logical solo stream).

Every float is stored as its shortest round-trip repr, so equality is
bit equality.  Regenerate the pin after a deliberate accounting change
with::

    PYTHONPATH=src python tests/test_fleet_books.py
"""

from __future__ import annotations

import json
from dataclasses import astuple
from pathlib import Path

import pytest

from repro.core.api import BACKENDS
from repro.data.normalize import minmax_normalize
from repro.data.synthetic import generate_subspace_data
from repro.fleet import default_fleet, fleet_report, mixed_fleet
from repro.params import ProclusParams

PIN = Path(__file__).with_name("fleet_books.json")

BACKEND_NAMES = ("fleet-gpu", "fleet-gpu-fast", "fleet-gpu-fast-star")
FLEETS = {
    "D=2": lambda: default_fleet(2),
    "D=3": lambda: default_fleet(3),
    "D=4": lambda: default_fleet(4),
    "mixed": mixed_fleet,
}
CASES = [
    f"{backend} {fleet}" for backend in BACKEND_NAMES for fleet in FLEETS
]


def books(case: str) -> dict:
    """The books of one ``"<backend> <fleet>"`` case, as plain data."""
    backend, fleet = case.split(" ")
    dataset = generate_subspace_data(
        n=1000, d=8, n_clusters=4, subspace_dims=4, seed=5
    )
    engine = BACKENDS[backend](
        params=ProclusParams(k=4, l=3, a=30, b=5),
        seed=0,
        fleet=FLEETS[fleet](),
    )
    result = engine.fit(minmax_normalize(dataset.data))
    return {
        "fleet_report": fleet_report(engine.model),
        "counters": result.stats.counters,
        "counter_order": list(result.stats.counters),
        "kernel_launches": [
            list(astuple(launch))
            for launch in engine.model.counter.kernel_launches
        ],
    }


def render(pin: dict) -> str:
    """One line per case and book, so a diff names what moved."""
    cases = []
    for case, book in pin.items():
        fields = ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(value)}"
            for name, value in book.items()
        )
        cases.append(f" {json.dumps(case)}: {{\n{fields}\n }}")
    return "{\n" + ",\n".join(cases) + "\n}\n"


@pytest.fixture(scope="module")
def pin():
    return json.loads(PIN.read_text())


def test_pin_covers_every_case(pin):
    assert list(pin) == CASES


@pytest.mark.parametrize("case", CASES)
def test_books_match_pin(pin, case):
    assert json.loads(json.dumps(books(case))) == pin[case]


if __name__ == "__main__":  # pragma: no cover - regenerates the pin
    PIN.write_text(render({case: books(case) for case in CASES}))
    print(f"wrote {PIN}")
