"""Hierarchical run attribution from the hardware-model cost ledger.

:func:`attribute_run` regroups a model's :class:`CostEvent` ledger into
the run -> phase -> pipeline -> kernel hierarchy, each level carrying an
exact per-component decomposition (launch / compute / memory / atomic /
transfer / comm).  The ledger holds exact integer amounts of
``2**-1074`` s (:data:`~repro.hardware.cost_model.UNITS_PER_SECOND`),
so the regrouping sums integers and converts each bucket to a
:class:`fractions.Fraction` once, when the tables are built.  Every
regrouping therefore sums back to the run's modeled seconds *bit for
bit* — the conservation contract the explain tests pin.

On top of the hierarchy three derived diagnostics are computed:

* **fusion headroom** — for each adjacent pair of kernel launches, the
  launch overhead the second launch would shed if fused into the first
  (the per-pair budget ROADMAP item 3's persistent-kernel work is
  banked against);
* **cache savings** — the Dist distance-row cache's hit rate turned
  into flops/bytes/seconds avoided versus the no-cache ablation, scaled
  from the observed per-missed-row cost of ``compute_l.distances``;
* **occupancy rollup** — per-kernel achieved/theoretical occupancy of
  the heaviest launch (:mod:`repro.gpu.occupancy`), plus a
  seconds-weighted achieved-occupancy figure for the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from ...gpu.occupancy import occupancy_report
from ...hardware.cost_model import (
    COMPONENTS,
    UNITS_PER_SECOND,
    CostEvent,
    GpuModel,
    HardwareModel,
    to_seconds,
)
from ..export import kernel_pipeline

__all__ = [
    "KernelAttribution",
    "RunAttribution",
    "attribute_run",
    "attribution_record",
]

_ZERO = Fraction()


def _event_pipeline(event: CostEvent) -> str:
    """Pipeline a ledger event belongs to (transfers get their track)."""
    if event.kind == "transfer":
        return "transfer"
    return kernel_pipeline(event.name)


def _dominant(exact: dict[str, Fraction]) -> str:
    """First-maximal component in canonical :data:`COMPONENTS` order."""
    if not exact:
        return "compute"
    return max(COMPONENTS, key=lambda c: exact.get(c, _ZERO))


def _floats(exact: dict[str, Fraction]) -> dict[str, float]:
    return {name: float(value) for name, value in exact.items()}


def _exact(units: dict[str, int]) -> dict[str, Fraction]:
    """A bucket of ledger units as exact seconds."""
    return {
        name: Fraction(value, UNITS_PER_SECOND)
        for name, value in units.items()
    }


@dataclass(slots=True)
class KernelAttribution:
    """Exact per-component attribution of one kernel (or transfer)."""

    name: str
    pipeline: str
    kind: str
    calls: int
    exact: dict[str, Fraction]

    @property
    def seconds_exact(self) -> Fraction:
        return sum(self.exact.values(), _ZERO)

    @property
    def seconds(self) -> float:
        return float(self.seconds_exact)

    @property
    def dominant(self) -> str:
        return _dominant(self.exact)

    def component_seconds(self) -> dict[str, float]:
        return _floats(self.exact)


@dataclass(slots=True)
class RunAttribution:
    """The full attribution of one run's cost ledger."""

    model_name: str
    total_exact: Fraction
    kernels: list[KernelAttribution]
    phase_exact: dict[str, dict[str, Fraction]]
    pipeline_exact: dict[str, dict[str, Fraction]]
    component_exact: dict[str, Fraction]
    fusion_pairs: list[dict[str, Any]]
    cache: dict[str, Any]
    occupancy: dict[str, Any] | None

    @property
    def total_seconds(self) -> float:
        return float(self.total_exact)

    def component_seconds(self) -> dict[str, float]:
        return _floats(self.component_exact)


def _accumulate(
    table: dict[str, dict[str, int]], key: str, event: CostEvent
) -> None:
    bucket = table.setdefault(key, {})
    for component, value in event.components:
        bucket[component] = bucket.get(component, 0) + value


def _fusion_pairs(events: list[CostEvent]) -> list[dict[str, Any]]:
    """Launch-overhead headroom per adjacent pair of kernel launches.

    Fusing launch *b* into the immediately preceding launch *a* saves
    *b*'s fixed launch overhead; summing that over every observed
    ``a -> b`` transition is the pair's fusion headroom.
    """
    pairs: dict[tuple[str, str], dict[str, Any]] = {}
    previous: CostEvent | None = None
    for event in events:
        if event.kind not in ("kernel", "fleet"):
            previous = None
            continue
        overhead = dict(event.components).get("launch", 0)
        if previous is not None and overhead:
            key = (previous.name, event.name)
            entry = pairs.setdefault(
                key,
                {
                    "before": key[0],
                    "after": key[1],
                    "transitions": 0,
                    "_units": 0,
                },
            )
            entry["transitions"] += 1
            entry["_units"] += overhead
        previous = event
    ordered = sorted(pairs.values(), key=lambda e: -e["_units"])
    for entry in ordered:
        entry["headroom_seconds"] = to_seconds(entry.pop("_units"))
    return ordered


def _cache_savings(model: HardwareModel) -> dict[str, Any]:
    """Dist-cache savings attribution versus the no-cache ablation.

    The Dist cache counters record how many medoid distance rows were
    reused (``hit``) versus recomputed (``missed``); the observed
    ``compute_l.distances`` launches give the per-missed-row flops and
    bytes, so the hits convert directly into work avoided.  (The H
    strategy's reuse is structural — the incremental launches simply
    never happen — so it needs no counter-based attribution here.)
    """
    counter = model.counter
    hit = counter.get("cache.dist_rows_hit")
    missed = counter.get("cache.dist_rows_missed")
    evicted = counter.get("cache.dist_rows_evicted")
    rows = hit + missed
    if rows <= 0:
        return {"enabled": False, "hits": 0.0, "misses": 0.0}
    launches = [
        l for l in counter.kernel_launches if l.name == "compute_l.distances"
    ]
    missed_flops = sum(l.flops for l in launches)
    missed_bytes = sum(l.gmem_bytes for l in launches)
    missed_seconds = sum(
        e.seconds
        for e in model.events
        if e.kind in ("kernel", "fleet") and e.name == "compute_l.distances"
    )
    per_row = (1.0 / missed) if missed > 0 else 0.0
    return {
        "enabled": True,
        "hits": hit,
        "misses": missed,
        "evictions": evicted,
        "hit_rate": hit / rows,
        "avoided_flops": hit * missed_flops * per_row,
        "avoided_bytes": hit * missed_bytes * per_row,
        "avoided_seconds_estimate": hit * missed_seconds * per_row,
        "missed_seconds": missed_seconds,
    }


def _occupancy_rollup(
    model: HardwareModel, kernels: list[KernelAttribution]
) -> dict[str, Any] | None:
    """Per-kernel occupancy of the heaviest launch + weighted rollup."""
    gpu = model if isinstance(model, GpuModel) else getattr(model, "logical", None)
    if not isinstance(gpu, GpuModel):
        return None
    groups: dict[str, list] = {}
    for launch in gpu.counter.kernel_launches:
        groups.setdefault(launch.name, []).append(launch)
    if not groups:
        return None
    seconds = {k.name: k.seconds for k in kernels}
    per_kernel: dict[str, Any] = {}
    weighted = 0.0
    weight_total = 0.0
    for name, launches in groups.items():
        heaviest = max(launches, key=gpu.launch_time)
        try:
            report = occupancy_report(
                gpu.spec,
                heaviest.grid_blocks,
                heaviest.threads_per_block,
                registers_per_thread=heaviest.registers_per_thread,
                smem_bytes_per_block=heaviest.smem_bytes_per_block,
            )
        except ValueError:
            continue
        per_kernel[name] = {
            "achieved": report.achieved_occupancy,
            "theoretical": report.theoretical_occupancy,
            "limiter": report.limiter,
            "grid_blocks": report.grid_blocks,
            "threads_per_block": report.threads_per_block,
        }
        weight = seconds.get(name, 0.0)
        weighted += report.achieved_occupancy * weight
        weight_total += weight
    if not per_kernel:
        return None
    return {
        "gpu": gpu.spec.name,
        "kernels": per_kernel,
        "weighted_achieved": weighted / weight_total if weight_total else 0.0,
    }


def attribute_run(model: HardwareModel) -> RunAttribution:
    """Attribute a model's cost ledger; exact at every level."""
    first: dict[str, CostEvent] = {}
    calls: dict[str, int] = {}
    kernel_table: dict[str, dict[str, int]] = {}
    phase_table: dict[str, dict[str, int]] = {}
    pipeline_table: dict[str, dict[str, int]] = {}
    component_table: dict[str, int] = {}
    total = 0
    for event in model.events:
        total += event.units
        first.setdefault(event.name, event)
        calls[event.name] = calls.get(event.name, 0) + 1
        _accumulate(kernel_table, event.name, event)
        _accumulate(phase_table, event.phase, event)
        _accumulate(pipeline_table, _event_pipeline(event), event)
        for component, value in event.components:
            component_table[component] = (
                component_table.get(component, 0) + value
            )
    kernels = sorted(
        (
            KernelAttribution(
                name=name,
                pipeline=_event_pipeline(first[name]),
                kind=first[name].kind,
                calls=calls[name],
                exact=_exact(units),
            )
            for name, units in kernel_table.items()
        ),
        key=lambda k: -k.seconds_exact,
    )
    return RunAttribution(
        model_name=model.name,
        total_exact=Fraction(total, UNITS_PER_SECOND),
        kernels=kernels,
        phase_exact={key: _exact(units) for key, units in phase_table.items()},
        pipeline_exact={
            key: _exact(units) for key, units in pipeline_table.items()
        },
        component_exact=_exact(component_table),
        fusion_pairs=_fusion_pairs(model.events),
        cache=_cache_savings(model),
        occupancy=_occupancy_rollup(model, kernels),
    )


def _table_record(
    table: dict[str, dict[str, Fraction]]
) -> dict[str, dict[str, Any]]:
    record: dict[str, dict[str, Any]] = {}
    for key, exact in table.items():
        record[key] = {
            "seconds": float(sum(exact.values(), _ZERO)),
            "components": _floats(exact),
            "dominant": _dominant(exact),
        }
    return record


def attribution_record(attr: RunAttribution) -> dict[str, Any]:
    """The attribution as a JSON-serializable record (floats).

    The ``conservation`` block is computed from the exact rationals:
    ``attributed_seconds`` re-sums the per-kernel per-component exact
    values, so ``exact`` is a bit-for-bit equality witness against the
    run's modeled seconds.
    """
    total = attr.total_seconds
    attributed_exact = _ZERO
    for kernel in attr.kernels:
        attributed_exact += sum(kernel.exact.values(), _ZERO)
    attributed = float(attributed_exact)
    fusion_total = sum(p["headroom_seconds"] for p in attr.fusion_pairs)
    return {
        "model": attr.model_name,
        "total_seconds": total,
        "components": attr.component_seconds(),
        "phases": _table_record(attr.phase_exact),
        "pipelines": _table_record(attr.pipeline_exact),
        "kernels": [
            {
                "name": kernel.name,
                "pipeline": kernel.pipeline,
                "kind": kernel.kind,
                "calls": kernel.calls,
                "seconds": kernel.seconds,
                "share": kernel.seconds / total if total else 0.0,
                "components": kernel.component_seconds(),
                "dominant": kernel.dominant,
            }
            for kernel in attr.kernels
        ],
        "fusion": {
            "total_headroom_seconds": fusion_total,
            "headroom_fraction": fusion_total / total if total else 0.0,
            "pairs": attr.fusion_pairs,
        },
        "cache": dict(attr.cache),
        "occupancy": attr.occupancy,
        "conservation": {
            "modeled_seconds": total,
            "attributed_seconds": attributed,
            "exact": attributed == total,
        },
    }
