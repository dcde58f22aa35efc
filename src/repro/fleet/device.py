"""Multi-device facade behind the single-device :class:`Device` API.

The GPU engines talk to exactly one device object: they allocate named
arrays, upload the dataset, and record kernel launches.  A
:class:`FleetDevice` satisfies that contract while running two books:

* a **logical book** keeps the solo run's view: every launch is
  recorded unchanged (full geometry) on the run's counter without being
  costed, and a logical device holds the solo allocations and
  transfers (solo spec, no tracing, no fault injection), so the run's
  ``RunStats.counters`` are bit-identical to the solo run's;
* **shard devices** — one :class:`ShardDevice` per fleet member with a
  non-empty point range — receive the physically sharded version:
  row-proportional work splits (exact largest-remainder apportionment,
  so the per-device ledgers sum back to the solo totals), per-device
  Perfetto tracks, per-device memory managers (a shard OOM raises the
  usual :class:`~repro.exceptions.DeviceOutOfMemoryError`), and
  fault-injection sites suffixed ``@dev{i}`` so chaos tests can target
  one shard.

Kernels are classified by name: per-point kernels shard; the small
medoid/dimension kernels run on the root shard (device 0 of the
members holding points).  Transitions between the two drive the
collectives: accumulated partial sums are all-reduced before the next
root kernel consumes them, and root-computed parameters (medoids,
selected dimensions) are broadcast before the next sharded kernel.
Every collective is a barrier: all shard clocks jump to the maximum
plus the modeled communication time, which is exactly how the fleet
makespan (critical path) accrues on the :class:`FleetModel`.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ..gpu.device import Device, kernel_launch
from ..gpu.memory import DeviceArray
from ..hardware.cost_model import to_units
from ..hardware.counters import KernelLaunch
from ..hardware.specs import GpuSpec
from ..obs.export import kernel_pipeline
from ..obs.tracer import NULL_TRACER, Tracer
from .fleet import Fleet
from .interconnect import allreduce_seconds, broadcast_seconds
from .model import FleetModel
from .partition import ShardPlan, shard_shape, split_exact

__all__ = ["ShardDevice", "LogicalDevice", "FleetDevice", "SHARDED_KERNELS"]

#: Kernels whose work is proportional to the points they touch — these
#: split across the shards.  Everything else (greedy over the sample,
#: the k x k medoid kernels, dimension selection, bookkeeping) runs on
#: the root shard at full size.
SHARDED_KERNELS = frozenset(
    {
        "compute_l.distances",
        "compute_l.build_l",
        "find_dimensions.x_sums",
        "assign_points",
        "evaluate_cluster",
        "refinement.x_sums",
        "remove_outliers.check",
    }
)


class ShardDevice(Device):
    """One fleet member: its own model, memory, and Perfetto tracks."""

    def __init__(
        self,
        spec: GpuSpec,
        model,
        tracer: Tracer,
        index: int,
    ) -> None:
        super().__init__(spec, model=model, tracer=tracer)
        self.index = index
        #: Barrier waits this shard's clock carries beyond its own
        #: ledger, relative to zero (the trace offset is added only
        #: where events are placed, so tracing cannot round it).
        self.skew = 0.0

    def _pipeline(self, name: str) -> str:
        base = name.split("@", 1)[0]
        return f"gpu{self.index}:{kernel_pipeline(base)}"

    def _transfer_pipeline(self) -> str:
        return f"gpu{self.index}:transfer"


class LogicalDevice(Device):
    """The solo run's allocations and transfers, for the counter book.

    Never traces, never consults the fault injector (faults fire on
    the physical shards), and its memory capacity is widened to the
    fleet's total so a job only a *fleet* can hold still books its
    solo allocations.  Launches never reach it: :class:`FleetDevice`
    records them on the run's counter directly.
    """

    fires_injector = False


class FleetDevice:
    """The :class:`Device`-shaped facade the fleet engines launch into."""

    def __init__(
        self,
        fleet: Fleet,
        model: FleetModel,
        tracer: Tracer,
        plan: ShardPlan,
    ) -> None:
        self.fleet = fleet
        self.model = model
        self.tracer = tracer
        self.plan = plan
        self.n = plan.n
        logical_spec = replace(
            model.logical.spec,
            memory_bytes=max(
                model.logical.spec.memory_bytes,
                fleet.total_usable_bytes + model.logical.spec.reserved_bytes,
            ),
        )
        self.logical = LogicalDevice(
            logical_spec, model=model.logical, tracer=NULL_TRACER
        )
        self.clock_offset = tracer.device_offset() if tracer.enabled else 0.0
        #: One ShardDevice per member holding points; None for members
        #: with an empty range (zero weight / zero capacity).
        self.shards: list[ShardDevice | None] = []
        for index, (spec, count) in enumerate(zip(fleet.specs, plan.counts)):
            if count > 0:
                shard = ShardDevice(
                    spec, model=model.shards[index], tracer=tracer, index=index
                )
                shard.clock_offset = self.clock_offset
                self.shards.append(shard)
            else:
                self.shards.append(None)
        self._active = [shard for shard in self.shards if shard is not None]
        self._active_specs = tuple(shard.spec for shard in self._active)
        self._active_counts = tuple(
            count for count in plan.counts if count > 0
        )
        #: The active shards' row counts (which sum to n) as the
        #: weights of every sharded work split.
        self._split_weights = [float(count) for count in self._active_counts]
        #: Bytes of distributed partial state awaiting reduction, and
        #: whether the root holds parameters the shards have not seen.
        self._pending_reduce = 0.0
        self._root_fresh = False
        self._reduce_bytes: dict[str, float] = {}
        self._bcast_bytes: dict[str, float] = {}
        self._default_bcast = 0.0
        #: Collective seconds accrued inside the current launch() call,
        #: in exact ledger units, feeding the fleet ledger's comm component.
        self._comm_this_call = 0
        #: Each distinct ``launch(...)`` argument tuple's logical
        #: KernelLaunch and its dispatch (see _dispatch_of).
        self._dispatch: dict[tuple, tuple[KernelLaunch, bool, tuple]] = {}
        #: The fleet makespan, kept equal to :meth:`_fleet_elapsed` as
        #: launches, collectives and transfers move the shard clocks.
        self._makespan = self._fleet_elapsed()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure_collectives(
        self,
        reduce_bytes: dict[str, float],
        bcast_bytes: dict[str, float],
        default_bcast: float = 0.0,
    ) -> None:
        """Install the per-kernel collective payload sizes.

        ``reduce_bytes[name]`` — partial-sum bytes a sharded kernel
        leaves distributed (all-reduced before the next root kernel);
        ``bcast_bytes[name]`` — parameter bytes a sharded kernel needs
        from the root (broadcast when the root state is fresh).
        """
        self._reduce_bytes = dict(reduce_bytes)
        self._bcast_bytes = dict(bcast_bytes)
        self._default_bcast = float(default_bcast)

    # ------------------------------------------------------------------
    # Clocks
    # ------------------------------------------------------------------
    def _elapsed(self, shard: ShardDevice) -> float:
        return shard.skew + shard.model.total_seconds

    def _fleet_elapsed(self) -> float:
        if not self._active:
            return 0.0
        return max(self._elapsed(shard) for shard in self._active)

    def _advance(self, shard: ShardDevice) -> None:
        """Raise the running makespan to ``shard``'s clock.

        Called after ``shard`` ran work.  Running work only moves a
        shard's clock forward and leaves the others where they were,
        so the running maximum still equals :meth:`_fleet_elapsed`.
        """
        elapsed = self._elapsed(shard)
        if elapsed > self._makespan:
            self._makespan = elapsed

    def _collective(self, kind: str, nbytes: float, phase: str) -> None:
        """Barrier all shard clocks at ``max + comm`` and account it."""
        if len(self._active) < 2:
            return
        if kind == "allreduce":
            seconds = allreduce_seconds(nbytes, self._active_specs)
        else:
            seconds = broadcast_seconds(nbytes, self._active_specs)
        target = self._makespan + seconds
        for shard in self._active:
            elapsed = self._elapsed(shard)
            wait = target - elapsed
            if wait <= 0:
                continue
            if self.tracer.enabled:
                self.tracer.kernel(
                    f"comm.{kind}@dev{shard.index}",
                    f"gpu{shard.index}:comm",
                    phase,
                    self.clock_offset + elapsed,
                    wait,
                    clock="modeled",
                )
            self.model.sync_seconds[shard.index] += wait
            shard.skew = target - shard.model.total_seconds
            shard.clock_offset = self.clock_offset + shard.skew
        # A skew rounds, so a waiting shard's clock can land a bit off
        # ``target``: take the maximum afresh.
        self._makespan = self._fleet_elapsed()
        counter = self.model.counter
        counter.add("fleet.comm_bytes", nbytes)
        counter.add("fleet.comm_seconds", seconds)
        counter.add(f"fleet.{kind}_steps", 1)
        self._comm_this_call += to_units(seconds)

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def alloc(
        self, shape, dtype=np.float32, name: str = "unnamed"
    ) -> DeviceArray:
        """Allocate on every shard (split rows) and the logical book."""
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        array = self.logical.alloc(shape, dtype=dtype, name=name)
        for shard, count in zip(self._active, self._active_counts):
            shard.alloc(
                shard_shape(tuple(shape), self.n, count),
                dtype=dtype,
                name=f"{name}@dev{shard.index}",
            )
        return array

    def to_device(
        self, host: np.ndarray, name: str, phase: str = "transfer"
    ) -> DeviceArray:
        """Upload ``host`` — each shard receives its row slice."""
        before = self._makespan
        array = self.logical.to_device(host, name, phase)
        axis = next(
            (a for a, size in enumerate(host.shape) if size == self.n), None
        )
        for shard, count in zip(self._active, self._active_counts):
            if axis is None:
                piece = host
            else:
                piece = self.plan.shard(host, shard.index, axis=axis)
            shard.to_device(piece, f"{name}@dev{shard.index}", phase)
            self._advance(shard)
        self.model.account(
            "transfer", f"h2d:{name}", phase,
            self._makespan - before, residual="transfer",
        )
        return array

    def to_host(self, array: DeviceArray, phase: str = "transfer") -> np.ndarray:
        # The copy runs on the logical device, so no shard clock moves
        # and the fleet accrues zero seconds.
        host = self.logical.to_host(array, phase)
        self.model.account(
            "transfer", f"d2h:{array.name}", phase, 0.0, residual="transfer",
        )
        return host

    @property
    def memory(self):
        return _FleetMemory(
            [self.logical.memory]
            + [shard.memory for shard in self._active]
        )

    @property
    def peak_bytes(self) -> int:
        """Largest per-device peak footprint (the binding constraint)."""
        if not self._active:
            return self.logical.peak_bytes
        return max(shard.peak_bytes for shard in self._active)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _split_work(self, value: float) -> tuple[float, ...]:
        """Split an (integral-valued) work quantity exactly by rows."""
        total = int(round(value))
        if total <= 0 or abs(value - total) > 1e-6:
            return tuple(
                value * count / self.n for count in self._active_counts
            )
        return tuple(
            float(part) for part in split_exact(total, self._split_weights)
        )

    def _dispatch_of(self, launch: KernelLaunch) -> tuple[bool, tuple]:
        """Whether ``launch`` shards, and each target shard's arguments.

        A sharded kernel splits its blocks and work by rows over the
        active shards; any other kernel runs whole on the root shard.
        The arguments are :meth:`Device.launch`'s, in positional order.
        """
        sharded = launch.name in SHARDED_KERNELS
        if sharded:
            grid_blocks = launch.grid_blocks
            blocks = [
                max(1, math.ceil(grid_blocks * (count / self.n)))
                for count in self._active_counts
            ]
            targets = zip(self._active, zip(
                blocks,
                self._split_work(launch.flops),
                self._split_work(launch.gmem_bytes),
                self._split_work(launch.atomic_ops),
            ))
        else:
            whole = (launch.grid_blocks, launch.flops, launch.gmem_bytes,
                     launch.atomic_ops)
            targets = [(self._active[0], whole)]
        return sharded, tuple(
            (shard, (
                f"{launch.name}@dev{shard.index}", launch.phase, grid_blocks,
                launch.threads_per_block, flops, gmem_bytes, atomic_ops,
                launch.smem_bytes_per_block, launch.registers_per_thread,
                launch.ipc,
            ))
            for shard, (grid_blocks, flops, gmem_bytes, atomic_ops) in targets
        )

    def launch(
        self,
        name: str,
        phase: str,
        grid_blocks: int,
        threads_per_block: int,
        flops: float = 0.0,
        gmem_bytes: float = 0.0,
        atomic_ops: float = 0.0,
        smem_bytes_per_block: int = 0,
        registers_per_thread: int = 32,
        ipc: float = 1.0,
    ) -> float:
        """Record logically; dispatch physically; accrue fleet time.

        The logical launch and its dispatch are built once per distinct
        argument tuple; every call still records the launch, runs the
        collectives it triggers and launches on each target shard.
        """
        args = (
            name, phase, grid_blocks, threads_per_block, flops, gmem_bytes,
            atomic_ops, smem_bytes_per_block, registers_per_thread, ipc,
        )
        entry = self._dispatch.get(args)
        if entry is None:
            launch = kernel_launch(*args)
            entry = self._dispatch[args] = (launch, *self._dispatch_of(launch))
        launch, sharded, dispatch = entry
        before = self._makespan
        self._comm_this_call = 0
        # The logical book counts the solo launch stream; nothing reads
        # a cost for it.  Recorded before any collective, so the counter
        # keeps the solo run's insertion order.
        self.model.counter.record_launch(launch)
        if sharded and self._root_fresh:
            payload = self._bcast_bytes.get(name, self._default_bcast)
            self._collective("broadcast", payload, phase)
            self._root_fresh = False
        elif not sharded and self._pending_reduce > 0:
            self._collective("allreduce", self._pending_reduce, phase)
            self._pending_reduce = 0.0
        for shard, shard_args in dispatch:
            shard.launch(*shard_args)
            self._advance(shard)
        if sharded:
            self._pending_reduce += self._reduce_bytes.get(name, 0.0)
        else:
            self._root_fresh = True
        delta = self._makespan - before
        # The makespan delta splits exactly into collective time (the
        # barrier pushed every clock forward by the comm seconds) and
        # the critical-path compute growth that followed.
        comm = min(self._comm_this_call, to_units(delta))
        return self.model.account(
            "fleet", name, phase, delta,
            parts=(("comm", comm),), residual="compute",
        )

    @property
    def total_seconds(self) -> float:
        return self.model.total_seconds


class _FleetMemory:
    """free_all() across the logical and every shard memory manager."""

    def __init__(self, managers) -> None:
        self.managers = managers

    def free_all(self) -> None:
        for manager in self.managers:
            manager.free_all()
