"""nvprof-style kernel profile from a run's recorded launches.

Every GPU engine records each simulated kernel launch; this module
aggregates them into the familiar profiler table — calls, total time,
average, share — and computes per-kernel roofline diagnostics.  Since
the cost-ledger refactor each launch carries an *exact* cost-component
decomposition (launch / compute / memory / atomic), so profiles report
per-component second fractions rather than only the coarse single
``bound_by`` label (which is kept, computed as before from the heaviest
launch, for backward compatibility of the JSON records).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hardware.cost_model import GpuModel
from ..hardware.counters import KernelLaunch

__all__ = [
    "KernelProfile",
    "profile_kernels",
    "format_kernel_profile",
    "kernel_profile_records",
]


@dataclass(slots=True)
class KernelProfile:
    """Aggregated statistics of one kernel across a run."""

    name: str
    calls: int
    total_seconds: float
    total_flops: float
    total_bytes: float
    total_atomics: float
    #: Dominant cost component: launch / memory / compute / atomics.
    bound_by: str
    #: Exact per-component seconds (launch / compute / memory / atomic),
    #: summing to ``total_seconds`` when sourced from the cost ledger.
    components: dict[str, float] = field(default_factory=dict)

    @property
    def average_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    def component_shares(self) -> dict[str, float]:
        """Component fractions of this kernel's total time."""
        if self.total_seconds <= 0:
            return {}
        return {
            name: seconds / self.total_seconds
            for name, seconds in self.components.items()
        }


def _bound_by(model: GpuModel, launch: KernelLaunch) -> str:
    """Which term dominates this launch: launch overhead or roofline.

    Ties resolve in ``launch > memory > compute > atomics`` order.
    """
    terms = {
        "launch": model.spec.kernel_launch_overhead_s,
        **model.roofline_terms(launch),
    }
    bound = max(terms, key=terms.get)  # type: ignore[arg-type]
    # The profile records have always spelled this bucket "atomics".
    return "atomics" if bound == "atomic" else bound


def _ledger_components(model: GpuModel) -> dict[str, dict[str, float]]:
    """Per-kernel component seconds from the model's cost ledger."""
    totals: dict[str, dict[str, float]] = {}
    for event in model.events:
        if event.kind != "kernel":
            continue
        bucket = totals.setdefault(event.name, {})
        for component, seconds in event.component_seconds().items():
            bucket[component] = bucket.get(component, 0.0) + seconds
    return totals


def profile_kernels(model: GpuModel) -> list[KernelProfile]:
    """Aggregate a GPU model's recorded launches per kernel name.

    Every launch the model counts is also on its cost ledger
    (:meth:`GpuModel.launch` / :meth:`GpuModel.repeat`), which supplies
    the per-component seconds.  Returns profiles sorted by total time,
    descending (the nvprof convention).
    """
    groups: dict[str, list[KernelLaunch]] = {}
    for launch in model.counter.kernel_launches:
        groups.setdefault(launch.name, []).append(launch)
    ledger = _ledger_components(model)
    profiles = []
    for name, launches in groups.items():
        components = ledger[name]
        total = sum(components.values())
        # The bound of the most expensive single launch characterizes
        # the kernel (small setup calls of the same kernel don't).
        heaviest = max(launches, key=model.launch_time)
        profiles.append(
            KernelProfile(
                name=name,
                calls=len(launches),
                total_seconds=total,
                total_flops=sum(l.flops for l in launches),
                total_bytes=sum(l.gmem_bytes for l in launches),
                total_atomics=sum(l.atomic_ops for l in launches),
                bound_by=_bound_by(model, heaviest),
                components=components,
            )
        )
    profiles.sort(key=lambda p: -p.total_seconds)
    return profiles


def kernel_profile_records(profiles: list[KernelProfile]) -> list[dict]:
    """Profiles as flat JSON-serializable records (``repro profile --json``).

    The pre-ledger keys (including ``bound_by``) are kept unchanged;
    ``components`` is additive.
    """
    grand_total = sum(p.total_seconds for p in profiles)
    return [
        {
            "name": p.name,
            "calls": p.calls,
            "total_seconds": p.total_seconds,
            "average_seconds": p.average_seconds,
            "total_flops": p.total_flops,
            "total_bytes": p.total_bytes,
            "total_atomics": p.total_atomics,
            "bound_by": p.bound_by,
            "components": dict(p.components),
            "share": p.total_seconds / grand_total if grand_total else 0.0,
        }
        for p in profiles
    ]


def _component_cell(profile: KernelProfile) -> str:
    """Compact per-component share text, largest first."""
    shares = profile.component_shares()
    if not shares:
        return profile.bound_by
    return " ".join(
        f"{name} {share * 100:.0f}%"
        for name, share in sorted(shares.items(), key=lambda i: -i[1])
        if share >= 0.005
    )


def format_kernel_profile(
    profiles: list[KernelProfile], top: int | None = None
) -> str:
    """Render profiles as an nvprof-style table.

    ``top`` limits the table to the N most expensive kernels (the
    remainder is folded into one summary row); the grand total always
    covers every profile.
    """
    if not profiles:
        return "(no kernel launches recorded)"
    shown = profiles if top is None else profiles[:top]
    grand_total = sum(p.total_seconds for p in profiles)
    name_width = max(len(p.name) for p in shown)
    lines = [
        f"{'kernel'.ljust(name_width)}  {'calls':>6}  {'total':>11}  "
        f"{'avg':>10}  {'share':>6}  {'bound by':<8}  components"
    ]
    for p in shown:
        share = p.total_seconds / grand_total if grand_total else 0.0
        lines.append(
            f"{p.name.ljust(name_width)}  {p.calls:>6}  "
            f"{p.total_seconds * 1e3:>9.3f}ms  "
            f"{p.average_seconds * 1e6:>8.2f}us  "
            f"{share * 100:>5.1f}%  {p.bound_by:<8}  {_component_cell(p)}"
        )
    hidden = profiles[len(shown):]
    if hidden:
        rest = sum(p.total_seconds for p in hidden)
        lines.append(
            f"{f'(+{len(hidden)} more)'.ljust(name_width)}  "
            f"{sum(p.calls for p in hidden):>6}  {rest * 1e3:>9.3f}ms"
        )
    lines.append(
        f"{'total'.ljust(name_width)}  {sum(p.calls for p in profiles):>6}  "
        f"{grand_total * 1e3:>9.3f}ms"
    )
    return "\n".join(lines)
