"""Multi-device sharding: one job across a fleet of modeled GPUs.

Public surface:

* :class:`Fleet`, :func:`default_fleet`, :func:`mixed_fleet` — which
  devices to shard across;
* the ``fleet-gpu*`` engines — drop-in backends returning clusterings
  bit-identical to their solo counterparts;
* :func:`fleet_report` — per-device ledgers + communication summary;
* :func:`run_fleet_bench` — the scaling-curve benchmark behind
  ``repro bench fleet``;
* :mod:`repro.fleet.recovery` — elastic fault tolerance: re-shard
  plans after device loss (:func:`plan_recovery`,
  :func:`degraded_fleet`).

See ``docs/fleet.md`` for the sharding model and determinism contract.
"""

from .device import FleetDevice, ShardDevice, SHARDED_KERNELS
from .engine import (
    FleetEngineMixin,
    FleetGpuFastProclusEngine,
    FleetGpuFastStarProclusEngine,
    FleetGpuProclusEngine,
)
from .fleet import Fleet, default_fleet, mixed_fleet
from .interconnect import (
    allreduce_seconds,
    broadcast_seconds,
    link_bandwidth,
    link_latency,
)
from .model import FleetModel, fleet_report
from .partition import ShardPlan, split_exact, tree_merge
from .recovery import (
    RecoveryPlan,
    active_devices,
    dead_device_indices,
    degraded_fleet,
    plan_recovery,
)

__all__ = [
    "Fleet",
    "default_fleet",
    "mixed_fleet",
    "ShardPlan",
    "split_exact",
    "tree_merge",
    "FleetModel",
    "fleet_report",
    "FleetDevice",
    "ShardDevice",
    "SHARDED_KERNELS",
    "FleetEngineMixin",
    "FleetGpuProclusEngine",
    "FleetGpuFastProclusEngine",
    "FleetGpuFastStarProclusEngine",
    "allreduce_seconds",
    "broadcast_seconds",
    "link_bandwidth",
    "link_latency",
    "run_fleet_bench",
    "RecoveryPlan",
    "active_devices",
    "dead_device_indices",
    "degraded_fleet",
    "plan_recovery",
]


def run_fleet_bench(*args, **kwargs):
    # Deferred import: bench pulls in the full bench machinery.
    from .bench import run_fleet_bench as _run

    return _run(*args, **kwargs)
