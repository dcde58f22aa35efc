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

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "fleet": ("Fleet", "default_fleet", "mixed_fleet"),
    "partition": ("ShardPlan", "split_exact", "tree_merge"),
    "model": ("FleetModel", "fleet_report"),
    "device": ("FleetDevice", "ShardDevice", "SHARDED_KERNELS"),
    "engine": (
        "FleetEngineMixin",
        "FleetGpuProclusEngine",
        "FleetGpuFastProclusEngine",
        "FleetGpuFastStarProclusEngine",
    ),
    "interconnect": (
        "allreduce_seconds",
        "broadcast_seconds",
        "link_bandwidth",
        "link_latency",
    ),
    "bench": ("run_fleet_bench",),
    "recovery": (
        "RecoveryPlan",
        "active_devices",
        "dead_device_indices",
        "degraded_fleet",
        "plan_recovery",
    ),
})
