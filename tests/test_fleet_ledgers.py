"""Pin the fleet's cost ledgers event by event.

``fleet_books.json`` pins per-device totals; a change that moved ledger
units from one launch to another on the same device would keep every
total.  ``fleet_ledgers.json`` holds, for fleet-gpu-fast and fleet-gpu
on ``default_fleet(3)``, ``default_fleet(4)``, ``mixed_fleet()`` and a
three-card fleet whose middle member has zero weight:

* the ``FleetModel`` ledger, the logical model's ledger and every
  shard model's ledger: each event's kind, name, phase, units,
  components and launch, in accrual order, as one sha256 per ledger
  plus its event count (a ledger unit is ``2**-1074`` s, so raw
  amounts run to about 320 digits each);
* every shard model's counter dict, in insertion order, with each
  float as its shortest round-trip repr.

Regenerate the pin after a deliberate accounting change with::

    PYTHONPATH=src python tests/test_fleet_ledgers.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple
from pathlib import Path

import pytest

from repro.core.api import BACKENDS
from repro.data.normalize import minmax_normalize
from repro.data.synthetic import generate_subspace_data
from repro.fleet import Fleet, default_fleet, mixed_fleet
from repro.hardware.specs import GTX_1660_TI
from repro.params import ProclusParams

PIN = Path(__file__).with_name("fleet_ledgers.json")

BACKEND_NAMES = ("fleet-gpu-fast", "fleet-gpu")
FLEETS = {
    "D=3": lambda: default_fleet(3),
    "D=4": lambda: default_fleet(4),
    "mixed": mixed_fleet,
    "zero-weight": lambda: Fleet(
        specs=(GTX_1660_TI,) * 3, weights=(1.0, 0.0, 1.0)
    ),
}
CASES = [
    f"{backend} {fleet}" for backend in BACKEND_NAMES for fleet in FLEETS
]


def ledger(model) -> dict:
    """Event count and sha256 of one model's ledger, in accrual order."""
    lines = [
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
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return {"events": len(lines), "sha256": digest}


def ledgers(case: str) -> dict:
    """The ledgers of one ``"<backend> <fleet>"`` case, as plain data."""
    backend, fleet = case.split(" ")
    dataset = generate_subspace_data(
        n=2000, d=8, n_clusters=4, subspace_dims=4, seed=3
    )
    engine = BACKENDS[backend](
        params=ProclusParams(k=4, l=3), seed=2, fleet=FLEETS[fleet]()
    )
    engine.fit(minmax_normalize(dataset.data))
    model = engine.model
    return {
        "fleet": ledger(model),
        "logical": ledger(model.logical),
        "shards": [
            {
                **ledger(shard),
                "counters": [
                    [name, value]
                    for name, value in shard.counter.as_dict().items()
                ],
            }
            for shard in model.shards
        ],
    }


def render(pin: dict) -> str:
    """One line per case and ledger, so a diff names what moved."""
    cases = []
    for case, books in pin.items():
        fields = ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(value)}"
            for name, value in books.items()
        )
        cases.append(f" {json.dumps(case)}: {{\n{fields}\n }}")
    return "{\n" + ",\n".join(cases) + "\n}\n"


@pytest.fixture(scope="module")
def pin():
    return json.loads(PIN.read_text())


def test_pin_covers_every_case(pin):
    assert list(pin) == CASES


@pytest.mark.parametrize("case", CASES)
def test_ledgers_match_pin(pin, case):
    assert json.loads(json.dumps(ledgers(case))) == pin[case]


if __name__ == "__main__":  # pragma: no cover - regenerates the pin
    PIN.write_text(render({case: ledgers(case) for case in CASES}))
    print(f"wrote {PIN}")
