"""Fleet cost model: logical solo accounting + per-device ledgers.

A :class:`FleetModel` runs *two* books in parallel:

* the **logical** book — a :class:`~repro.hardware.cost_model.GpuModel`
  whose :class:`~repro.hardware.counters.WorkCounter` records exactly
  the kernel-launch stream a solo run would issue, plus the solo
  transfers.  That counter is therefore bit-identical to the solo
  run's (the differential equivalence suite pins this), and
  ``RunStats.counters`` reports it.  Launches are counted, not costed:
  this book's readers (``RunStats``, explain's occupancy rollup) use
  its counter, spec and roofline, never its ledger.
* the **physical** book — one ``GpuModel`` per fleet member, holding
  that device's sharded launches.  Per-device busy seconds and work
  counters feed the ``fleet.*`` metrics and :func:`fleet_report`.
  Members with the same spec share one table of roofline results, so
  the shards of a sharded kernel, which mostly get identical split
  arguments, evaluate its roofline once; each still ledgers its own
  cost event.

Fleet wall time is the *critical path*: each member's clock advances
independently through its sharded launches, and every collective step
(all-reduce / broadcast) synchronizes all clocks to the maximum plus
the modeled communication time.  ``phase_seconds`` accrues those
fleet-clock increments, so ``total_seconds`` is the end-to-end modeled
makespan — the quantity ``BENCH_fleet.json``'s scaling curve reports.
"""

from __future__ import annotations

from ..hardware.cost_model import GpuModel, HardwareModel
from ..hardware.specs import GpuSpec
from ..obs.explain.fleetattr import fleet_attribution
from .fleet import Fleet

__all__ = ["FleetModel", "fleet_report"]


class FleetModel(HardwareModel):
    """Critical-path cost model over a fleet of modeled devices."""

    def __init__(self, fleet: Fleet, logical_spec: GpuSpec) -> None:
        super().__init__()
        self.fleet = fleet
        #: Counts the solo launch stream; its counter IS this model's
        #: counter, so RunStats matches the solo run bit for bit.
        self.logical = GpuModel(logical_spec)
        self.counter = self.logical.counter
        #: Per-member physical ledgers (index-aligned with fleet.specs).
        #: Members of one card share a table of roofline results, so a
        #: shard launch equal to another shard's is costed once.
        rooflines: dict[GpuSpec, dict] = {}
        self.shards = [
            GpuModel(spec, rooflines=rooflines.setdefault(spec, {}))
            for spec in fleet.specs
        ]
        #: Seconds each member spent waiting at collective steps
        #: (clock skew absorbed at synchronization), plus comm time.
        self.sync_seconds = [0.0] * fleet.num_devices

    @property
    def name(self) -> str:
        return self.fleet.name

    @property
    def comm_seconds(self) -> float:
        """Total modeled collective-communication seconds."""
        return self.counter.get("fleet.comm_seconds")

    @property
    def communication_fraction(self) -> float:
        """Share of the fleet makespan spent in collectives."""
        total = self.total_seconds
        return self.comm_seconds / total if total > 0 else 0.0


def fleet_report(model: FleetModel) -> dict:
    """Per-device ledger summary for metrics, bench, and the CLI.

    The ``attribution`` block is the straggler/imbalance analysis of
    :func:`repro.obs.explain.fleet_attribution` over the same ledgers,
    so ``BENCH_fleet.json`` and ``repro explain`` agree by construction.
    """
    makespan = model.total_seconds
    devices = []
    for index, shard in enumerate(model.shards):
        busy = shard.total_seconds
        sync = model.sync_seconds[index]
        devices.append(
            {
                "device": index,
                "spec": shard.spec.name,
                "busy_seconds": busy,
                "sync_seconds": sync,
                "idle_seconds": max(0.0, makespan - busy - sync),
                "kernel_launches": shard.counter.get("gpu.kernel_launches"),
                "flops": shard.counter.get("gpu.flops"),
                "gmem_bytes": shard.counter.get("gpu.gmem_bytes"),
                "h2d_bytes": shard.counter.get("gpu.h2d_bytes"),
                "atomic_ops": shard.counter.get("gpu.atomic_ops"),
            }
        )
    report = {
        "name": model.name,
        "num_devices": model.fleet.num_devices,
        "total_seconds": makespan,
        "comm_seconds": model.comm_seconds,
        "communication_fraction": model.communication_fraction,
        "allreduce_steps": model.counter.get("fleet.allreduce_steps"),
        "broadcast_steps": model.counter.get("fleet.broadcast_steps"),
        "comm_bytes": model.counter.get("fleet.comm_bytes"),
        "devices": devices,
    }
    report["attribution"] = fleet_attribution(report)
    return report
