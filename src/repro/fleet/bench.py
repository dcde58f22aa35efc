"""``repro bench fleet``: the multi-device scaling curve.

Runs one fixed workload solo and across fleets of 1..D modeled devices
per GPU backend, and reports the scaling curve — modeled speedup over
solo, communication fraction, collective step counts, and the
per-device ledgers — as the schema-versioned ``BENCH_fleet.json``.

The D = 1 fleet is an anchor: it issues the solo kernel geometry with
no collectives, so its modeled time matches the solo run's (to float
round-off) and its speedup is 1.0.  Every point on the curve also
re-checks the determinism contract (:func:`~repro.result.bit_identical`
to solo) so a bench run doubles as an end-to-end equivalence sweep.

The default workload (n = 16384, d = 64) sits where the model says
multi-device starts to pay: per-point kernel time comfortably above
the per-launch overhead, so splitting rows beats the added collective
latency.  Lower-dimensional workloads at this n are latency-bound and
the curve honestly reports speedups below 1 — that shape is the point
of the bench.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from ..core.api import BACKENDS
from ..data.normalize import minmax_normalize
from ..data.synthetic import generate_subspace_data
from ..obs.export import report_envelope
from ..params import ProclusParams
from ..result import bit_identical
from .fleet import Fleet, default_fleet
from .model import FleetModel, fleet_report

__all__ = ["FLEET_BENCH_SCHEMA", "DEFAULT_DEVICES", "run_fleet_bench",
           "write_fleet_bench"]

#: ``BENCH_fleet.json`` schema (bump on incompatible changes).
FLEET_BENCH_SCHEMA = "repro.fleet_bench/1"

#: Device counts of the default scaling curve.
DEFAULT_DEVICES: tuple[int, ...] = (1, 2, 3, 4)

#: GPU backends the curve covers (solo name -> fleet name).
_FLEET_BACKENDS: tuple[tuple[str, str], ...] = (
    ("gpu", "fleet-gpu"),
    ("gpu-fast", "fleet-gpu-fast"),
    ("gpu-fast-star", "fleet-gpu-fast-star"),
)


def _run(factory, params: ProclusParams, seed: int, data: np.ndarray, **kwargs):
    engine = factory(params=params, seed=seed, **kwargs)
    result = engine.fit(data)
    return engine, result


def run_fleet_bench(
    n: int = 16384,
    d: int = 64,
    k: int = 16,
    l: int = 4,
    devices: Sequence[int] = DEFAULT_DEVICES,
    seed: int = 0,
    backends: Sequence[str] | None = None,
    fleet_for: Callable[[int], Fleet] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run the scaling curve; returns the ``BENCH_fleet.json`` payload.

    ``fleet_for`` maps a device count to the :class:`Fleet` to model
    (default: that many GTX 1660 Ti cards).
    """
    if fleet_for is None:
        fleet_for = default_fleet
    wanted = backends if backends is not None else [s for s, _ in _FLEET_BACKENDS]
    pairs = [(s, f) for s, f in _FLEET_BACKENDS if s in wanted]
    dataset = generate_subspace_data(n=n, d=d, seed=seed)
    data = minmax_normalize(dataset.data)
    params = ProclusParams(k=k, l=l)

    out_backends = []
    for solo_name, fleet_name in pairs:
        if progress is not None:
            progress(f"running {solo_name} solo ...")
        _, solo = _run(BACKENDS[solo_name], params, seed, data)
        solo_seconds = solo.stats.modeled_seconds
        curve = []
        for count in devices:
            fleet = fleet_for(count)
            if progress is not None:
                progress(f"running {fleet_name} on {fleet.name} ...")
            engine, result = _run(
                BACKENDS[fleet_name], params, seed, data, fleet=fleet
            )
            assert isinstance(engine.model, FleetModel)
            report = fleet_report(engine.model)
            seconds = result.stats.modeled_seconds
            curve.append(
                {
                    "devices": count,
                    "fleet": fleet.name,
                    "modeled_seconds": seconds,
                    "speedup": solo_seconds / seconds if seconds > 0 else 0.0,
                    "communication_fraction": report["communication_fraction"],
                    "comm_seconds": report["comm_seconds"],
                    "comm_bytes": report["comm_bytes"],
                    "allreduce_steps": report["allreduce_steps"],
                    "broadcast_steps": report["broadcast_steps"],
                    "identical_to_solo": bit_identical(result, solo),
                    "straggler_index": report["attribution"]["straggler_index"],
                    "imbalance": report["attribution"]["imbalance"],
                    "attribution": report["attribution"],
                    "per_device": report["devices"],
                }
            )
        out_backends.append(
            {
                "backend": solo_name,
                "fleet_backend": fleet_name,
                "solo_modeled_seconds": solo_seconds,
                "curve": curve,
            }
        )

    ok = all(
        point["identical_to_solo"]
        for backend in out_backends
        for point in backend["curve"]
    )
    return {
        **report_envelope(FLEET_BENCH_SCHEMA),
        "ok": ok,
        "workload": {
            "n": n, "d": d, "k": k, "l": l, "seed": seed,
            "devices": list(devices),
        },
        "backends": out_backends,
    }


def write_fleet_bench(payload: dict[str, Any], path: str | Path) -> Path:
    """Write the bench payload as pretty JSON; returns the path."""
    path = Path(path)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def render_fleet_bench(payload: dict[str, Any]) -> str:
    """Human-readable scaling table for the CLI."""
    lines = []
    workload = payload["workload"]
    lines.append(
        f"fleet scaling at n={workload['n']} d={workload['d']} "
        f"k={workload['k']} l={workload['l']} (modeled seconds)"
    )
    header = (
        f"{'backend':<14} {'D':>2} {'modeled':>10} {'speedup':>8} "
        f"{'comm%':>6} {'strag':>6} {'imbal':>6} {'allred':>6} "
        f"{'bcast':>6} {'equal':>6}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for backend in payload["backends"]:
        for point in backend["curve"]:
            lines.append(
                f"{backend['backend']:<14} {point['devices']:>2} "
                f"{point['modeled_seconds'] * 1e3:>8.3f}ms "
                f"{point['speedup']:>7.2f}x "
                f"{point['communication_fraction'] * 100:>5.1f}% "
                f"{point.get('straggler_index', 1.0):>6.3f} "
                f"{point.get('imbalance', 1.0):>6.3f} "
                f"{point['allreduce_steps']:>6.0f} "
                f"{point['broadcast_steps']:>6.0f} "
                f"{'yes' if point['identical_to_solo'] else 'NO':>6}"
            )
    return "\n".join(lines)
