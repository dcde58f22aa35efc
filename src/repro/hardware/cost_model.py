"""Analytical cost models translating work counters into modeled seconds.

Three models mirror the paper's three execution platforms:

* :class:`ScalarCpuModel` — the sequential C++ baseline.  Time is the
  sum of scalar-op and vectorizable-op counts divided by the calibrated
  sustained single-core throughputs.  (The compiler vectorizes the
  contiguous inner per-dimension loops of the C++ code, which is why
  those are accounted at a higher rate; this is also what makes the
  GPU-over-CPU speedup shrink slightly as ``d`` grows, as the paper
  observes in Figs. 2c-2d.)
* :class:`MulticoreCpuModel` — the OpenMP version: the same work spread
  over ``cores`` with a parallel-efficiency factor and a fork/join
  overhead per parallel region.  This saturates near the ~6x the paper
  reports.
* :class:`GpuModel` — a per-kernel roofline: each launch costs a fixed
  launch overhead plus the maximum of its compute time, its global
  memory time, and its atomic-throughput time, each derated by how well
  the launch configuration fills the device (resident-warp utilization).
  Small helper kernels (e.g. the ``k x k`` medoid-distance kernel of
  Algorithm 3) are therefore launch-overhead dominated, exactly as the
  paper's Section 5.4 discusses.

Models are stateful per run: they accumulate per-phase seconds and hold
the run's :class:`~repro.hardware.counters.WorkCounter`.  A
``GpuModel`` evaluates the roofline once per distinct
:class:`~repro.hardware.counters.KernelLaunch` in its table of
roofline results, and its occupancy utilizations once per launch
geometry.  The table ignores a launch name's ``@`` suffix (the fleet's
``@dev{i}`` shard sites), so the shard models of one fleet, which
share a table per card, cost identical shard launches once.  A
:class:`~repro.gpu.device.Device` keeps each distinct launch's first,
immutable :class:`CostEvent` and ledgers it again on a repeat
(:meth:`GpuModel.repeat`).  These memos last one run.

Cost ledger
-----------
Every accrued second is also recorded as a :class:`CostEvent` with an
exact decomposition into cost components (:data:`COMPONENTS`).  The
ledger backs :mod:`repro.obs.explain`'s attribution, and its arithmetic
is *exact*: amounts are Python ints counting ledger units of
``2**-1074`` s (:data:`UNITS_PER_SECOND`).  Every finite double is an
integer multiple of that unit, so :func:`to_units` is lossless and
integer sums are exact and associative; :func:`to_seconds` rounds an
amount to the nearest double once, exactly as ``float(Fraction)`` would.
Each model also keeps a running total, so ``total_seconds`` is a float
refreshed per accrual rather than a re-sum of the phase map.
Regrouping the ledger any way — by kernel, by pipeline, by component —
and converting the integer sum to float reproduces ``total_seconds``
bit for bit, which is the conservation contract the explain tests pin.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .counters import KernelLaunch, WorkCounter
from .specs import CpuSpec, GpuSpec

__all__ = [
    "COMPONENTS",
    "UNITS_PER_SECOND",
    "CostEvent",
    "HardwareModel",
    "ScalarCpuModel",
    "MulticoreCpuModel",
    "GpuModel",
    "to_seconds",
    "to_units",
]

#: Cost-component buckets every accrued second is attributed to.
#: ``launch`` also covers CPU fork/join overhead (the launch-overhead
#: analog of a parallel region); ``comm`` is fleet collective time.
COMPONENTS = ("launch", "compute", "memory", "atomic", "transfer", "comm")

#: Ledger units per second: one unit is ``2**-1074`` s, the smallest
#: subnormal double, so every finite double is a whole number of units.
UNITS_PER_SECOND = 1 << 1074


def to_units(seconds: float) -> int:
    """Exact ledger units of a finite double (raises on NaN or inf)."""
    numerator, denominator = float(seconds).as_integer_ratio()
    # ``denominator`` is 2**e with e <= 1074; scale the ratio to 2**1074.
    return numerator << (1075 - denominator.bit_length())


def to_seconds(units: int) -> float:
    """A ledger amount as the nearest double (ties to even).

    CPython rounds int true division correctly, so this equals
    ``float(Fraction(units, UNITS_PER_SECOND))``.
    """
    return units / UNITS_PER_SECOND


@dataclass(frozen=True, slots=True)
class CostEvent:
    """One accrual on a hardware model, with its exact decomposition.

    ``units`` and the ``components`` amounts are ledger units
    (:data:`UNITS_PER_SECOND`).  ``components`` always sums to
    ``units`` exactly (the residual construction in
    :meth:`HardwareModel.account` guarantees it), so any regrouping of
    a model's events conserves its total.
    """

    kind: str  #: ``kernel`` | ``transfer`` | ``cpu`` | ``fleet``
    name: str
    phase: str
    units: int
    components: tuple[tuple[str, int], ...]
    launch: KernelLaunch | None = None

    @property
    def seconds(self) -> float:
        return to_seconds(self.units)

    def component_seconds(self) -> dict[str, float]:
        """Component decomposition as floats (reporting only)."""
        return {name: to_seconds(value) for name, value in self.components}


class HardwareModel(ABC):
    """Base class: accumulates per-phase modeled seconds and counters."""

    def __init__(self) -> None:
        self.counter = WorkCounter()
        #: Per-phase ledger units backing ``phase_seconds``.
        self._phase_units: dict[str, int] = {}
        #: Running sum of ``_phase_units``, and that sum as a float.
        self._total_units = 0
        self._total_seconds = 0.0
        #: The cost ledger, in accrual order.
        self.events: list[CostEvent] = []

    @property
    @abstractmethod
    def name(self) -> str:
        """Human-readable name of the modeled hardware."""

    @property
    def phase_seconds(self) -> dict[str, float]:
        """Per-phase modeled seconds (floats of the exact accumulators)."""
        return {
            phase: to_seconds(units)
            for phase, units in self._phase_units.items()
        }

    @property
    def total_seconds(self) -> float:
        """Total modeled seconds accumulated so far (exact sum)."""
        return self._total_seconds

    def account(
        self,
        kind: str,
        name: str,
        phase: str,
        seconds: float,
        parts: tuple[tuple[str, int], ...] = (),
        residual: str = "compute",
        launch: KernelLaunch | None = None,
    ) -> float:
        """Accrue ``seconds`` into ``phase`` and ledger a cost event.

        ``parts`` are ``(component, ledger units)`` pairs, taken in
        order, each cut to what the event's units leave of it (a fleet
        launch's collective time can exceed its makespan growth by a
        rounding); whatever remains lands on the ``residual``
        component, so the event's components sum to its units exactly
        by construction.  Returns the accrued seconds as a float.
        """
        seconds = float(seconds)
        units = remaining = to_units(seconds)
        components = ()
        for component, value in parts:
            if value > remaining:
                value = remaining
            if value:
                components += ((component, value),)
                remaining -= value
        if remaining:
            components += ((residual, remaining),)
        self._record(CostEvent(kind, name, phase, units, components, launch))
        # A zero accrual reads back as 0.0, never -0.0.
        return seconds if units else 0.0

    def _record(self, event: CostEvent) -> None:
        """Ledger ``event`` and accrue its units into its phase."""
        units = event.units
        self._phase_units[event.phase] = (
            self._phase_units.get(event.phase, 0) + units
        )
        self._total_units += units
        # to_seconds, inline: this runs on every accrual.
        self._total_seconds = self._total_units / UNITS_PER_SECOND
        self.events.append(event)


class ScalarCpuModel(HardwareModel):
    """Sequential single-core CPU model."""

    def __init__(self, spec: CpuSpec) -> None:
        super().__init__()
        self.spec = spec

    @property
    def name(self) -> str:
        return f"{self.spec.name} (1 core)"

    def work(
        self,
        phase: str,
        scalar_ops: float = 0.0,
        vector_ops: float = 0.0,
    ) -> float:
        """Account a block of sequential work; returns its modeled seconds.

        ``vector_ops`` are operations in contiguous inner loops that a
        C++ compiler auto-vectorizes; ``scalar_ops`` everything else
        (branches, gathers, bookkeeping).
        """
        self.counter.add("cpu.scalar_ops", scalar_ops)
        self.counter.add("cpu.vector_ops", vector_ops)
        seconds = (
            scalar_ops / self.spec.scalar_ops_per_s
            + vector_ops / self.spec.vector_ops_per_s
        )
        return self.account(
            "cpu", f"cpu.{phase}", phase, seconds, residual="compute"
        )


class MulticoreCpuModel(HardwareModel):
    """OpenMP-style multi-core CPU model (same counters, shared cores)."""

    #: Amdahl share of each region's work that cannot be parallelized
    #: (reductions, critical sections).
    _SERIAL_FRACTION = 0.02

    def __init__(self, spec: CpuSpec) -> None:
        super().__init__()
        self.spec = spec

    @property
    def name(self) -> str:
        return f"{self.spec.name} ({self.spec.cores} cores)"

    def work(
        self,
        phase: str,
        scalar_ops: float = 0.0,
        vector_ops: float = 0.0,
    ) -> float:
        """Account one parallel region of work."""
        serial_fraction = self._SERIAL_FRACTION
        self.counter.add("cpu.scalar_ops", scalar_ops)
        self.counter.add("cpu.vector_ops", vector_ops)
        self.counter.add("cpu.parallel_regions", 1)
        serial = (
            scalar_ops * serial_fraction / self.spec.scalar_ops_per_s
            + vector_ops * serial_fraction / self.spec.vector_ops_per_s
        )
        speed = self.spec.cores * self.spec.parallel_efficiency
        parallel = (
            scalar_ops * (1 - serial_fraction) / (self.spec.scalar_ops_per_s * speed)
            + vector_ops * (1 - serial_fraction) / (self.spec.vector_ops_per_s * speed)
        )
        fork_join = self.spec.fork_join_overhead_s
        seconds = serial + parallel + fork_join
        # Fork/join overhead is the CPU analog of launch overhead; the
        # serial + parallel op time is the compute residual.
        return self.account(
            "cpu",
            f"cpu.{phase}",
            phase,
            seconds,
            parts=(("launch", to_units(fork_join)),),
            residual="compute",
        )


class GpuModel(HardwareModel):
    """Per-kernel roofline model of a CUDA GPU."""

    #: Resident warps per SM needed to saturate memory bandwidth.
    _SATURATION_WARPS_PER_SM = 8
    #: Threads per core needed to hide arithmetic latency.
    _LATENCY_HIDING_THREADS_PER_CORE = 4

    def __init__(self, spec: GpuSpec, rooflines: dict | None = None) -> None:
        """``rooflines``: the table of roofline results to use, shared
        by models of the same ``spec`` (a fleet's shards); by default
        the model's own."""
        super().__init__()
        self.spec = spec
        #: The roofline result of each distinct launch, its name's
        #: ``@`` suffix dropped, that a model of this table costed:
        #: seconds, ledger units and their exact components.
        self._rooflines: dict[tuple, tuple[float, int, tuple]] = (
            {} if rooflines is None else rooflines
        )
        #: ``(mem_util, compute_util)`` of each launch geometry (grid
        #: blocks, threads, shared memory, registers) seen so far.
        self._utilizations: dict[tuple, tuple[float, float]] = {}

    @property
    def name(self) -> str:
        return self.spec.name

    def resident_blocks_per_sm(self, launch: KernelLaunch) -> int:
        """Blocks of this launch that fit concurrently on one SM.

        :meth:`GpuSpec.resident_blocks`, clamped to at least one: the
        model costs a launch the occupancy report would refuse as if
        one block fit.
        """
        blocks, _ = self.spec.resident_blocks(
            launch.threads_per_block, launch.registers_per_thread,
            launch.smem_bytes_per_block,
        )
        return max(1, blocks)

    def _utilization(self, launch: KernelLaunch) -> tuple[float, float]:
        """Return ``(mem_util, compute_util)`` in ``(0, 1]`` for a launch.

        Both depend only on the launch geometry and the spec, so each
        geometry is worked out once per model.
        """
        geometry = (
            launch.grid_blocks, launch.threads_per_block,
            launch.smem_bytes_per_block, launch.registers_per_thread,
        )
        utilization = self._utilizations.get(geometry)
        if utilization is None:
            utilization = self._utilizations[geometry] = (
                self._geometry_utilization(launch)
            )
        return utilization

    def _geometry_utilization(self, launch: KernelLaunch) -> tuple[float, float]:
        spec = self.spec
        warps_per_block = math.ceil(launch.threads_per_block / spec.warp_size)
        resident_blocks = min(
            launch.grid_blocks,
            self.resident_blocks_per_sm(launch) * spec.sm_count,
        )
        active_warps = max(1, resident_blocks * warps_per_block)
        mem_util = min(
            1.0, active_warps / (self._SATURATION_WARPS_PER_SM * spec.sm_count)
        )
        active_threads = max(
            launch.threads_per_block,
            resident_blocks * warps_per_block * spec.warp_size,
        )
        compute_util = min(
            1.0,
            active_threads
            / (self._LATENCY_HIDING_THREADS_PER_CORE * spec.core_count),
        )
        return mem_util, compute_util

    def roofline_terms(self, launch: KernelLaunch) -> dict[str, float]:
        """The three roofline times of a launch, by component name."""
        spec = self.spec
        mem_util, compute_util = self._utilization(launch)
        return {
            "memory": launch.gmem_bytes / (spec.effective_bandwidth * mem_util),
            # Plain FP adds/abs run at one op per core-cycle, not the
            # FMA peak, hence core_count * clock rather than peak_flops;
            # the kernel's ipc factor derates dependent accumulation
            # chains.
            "compute": launch.flops
            / (spec.core_count * spec.clock_hz * launch.ipc * compute_util),
            "atomic": launch.atomic_ops / spec.atomic_ops_per_s,
        }

    def dominant_component(self, launch: KernelLaunch) -> str:
        """The roofline component that sets this launch's time.

        Ties resolve in ``memory > compute > atomic`` order, mirroring
        the ``max(t_mem, t_compute, t_atomic)`` in :meth:`launch_time`.
        """
        terms = self.roofline_terms(launch)
        return max(("memory", "compute", "atomic"), key=lambda c: terms[c])

    def launch_time(self, launch: KernelLaunch) -> float:
        """Modeled seconds for one kernel launch (without accruing it)."""
        terms = self.roofline_terms(launch)
        return self.spec.kernel_launch_overhead_s + max(terms.values())

    def launch(self, launch: KernelLaunch) -> float:
        """Account one kernel launch; returns its modeled seconds.

        Launches that differ at most in their name's ``@`` suffix cost
        the same, so the roofline is evaluated on the first of them in
        this model's table only.  Every launch still ledgers its own
        :class:`CostEvent`, with its own name and launch.
        """
        self.counter.record_launch(launch)
        key = (
            launch.name.partition("@")[0], launch.phase, launch.grid_blocks,
            launch.threads_per_block, launch.flops, launch.gmem_bytes,
            launch.atomic_ops, launch.smem_bytes_per_block,
            launch.registers_per_thread, launch.ipc,
        )
        cost = self._rooflines.get(key)
        if cost is None:
            # Exact decomposition: the fixed launch overhead, then the
            # whole roofline max on its dominant component.
            seconds = self.account(
                "kernel",
                launch.name,
                launch.phase,
                self.launch_time(launch),
                parts=(
                    ("launch", to_units(self.spec.kernel_launch_overhead_s)),
                ),
                residual=self.dominant_component(launch),
                launch=launch,
            )
            event = self.events[-1]
            self._rooflines[key] = (seconds, event.units, event.components)
            return seconds
        seconds, units, components = cost
        self._record(CostEvent(
            "kernel", launch.name, launch.phase, units, components, launch
        ))
        return seconds

    def repeat(self, event: CostEvent) -> None:
        """Ledger a repeat of the launch whose first event is ``event``.

        The launch is counted again and ``event`` (immutable) is
        ledgered again, as :meth:`launch` would for an equal launch.
        """
        self.counter.record_launch(event.launch)
        self._record(event)
