"""Per-layer wall-clock attribution by wrapping each layer's functions.

The traced run replaces the functions listed in :data:`TARGETS` with
wrappers that time every call.  Each thread keeps a stack of open
calls, so a layer's *self time* is its calls' duration minus the part
spent in nested wrapped calls (of any layer).  Nothing under ``src/``
changes: module-level functions are replaced in every ``repro`` module
that imported them (callers look them up there), methods and
properties on the class that defines them.

Layers are the repository's modules:

* ``core`` -- the numeric executor: ``core/distance.py``,
  ``core/phases.py``, ``core/greedy.py`` and the FAST caches (each
  engine's ``_compute_l_and_x``);
* ``engine`` -- the ``EngineBase`` template (construction and the
  ``fit`` loop); the private ``_account_*`` hooks run inside it and
  their launches land in ``gpu``/``hardware``;
* ``gpu`` -- the ``Device`` facade and its memory manager;
* ``hardware`` -- the exact cost ledger and the roofline model;
* ``fleet`` -- ``FleetDevice``, the collectives and sharded math;
* ``obs`` -- the tracer and metrics registry;
* ``resilience`` -- ``ResilientRunner.fit``;
* ``serve`` -- ``ClusterService``, scheduler, cache, registry, log;
* ``data`` -- ``dataset_fingerprint``;
* ``multiparam`` -- the coalesced groups' shared initialization;
* ``other`` -- the benchmark's own call around each fit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

LAYERS = (
    "core", "engine", "gpu", "hardware", "fleet", "obs", "resilience",
    "serve", "data", "multiparam", "other",
)

FITS = ("fit-small", "fit-large", "fleet-d4")
SERVE = ("serve-mix",)
ALL = FITS + SERVE

#: (layer, owner, attribute, workloads on which it must be called).
#: ``owner`` is a module or ``module:Class``.
TARGETS = (
    ("core", "repro.core.distance", "euclidean_to_point", ALL),
    ("core", "repro.core.distance", "abs_diff_dim_sums", ALL),
    ("core", "repro.core.distance", "segmental_distances", ALL),
    ("core", "repro.core.phases", "find_dimensions", ALL),
    ("core", "repro.core.phases", "assign_points", ALL),
    ("core", "repro.core.phases", "evaluate_clusters", ALL),
    ("core", "repro.core.phases", "compute_bad_medoids", ALL),
    ("core", "repro.core.phases", "find_outliers", ALL),
    ("core", "repro.core.phases", "cluster_sizes_from_labels", ALL),
    ("core", "repro.core.greedy", "greedy_select", ALL),
    ("core", "repro.core.base", "validate_data", ALL),
    ("core", "repro.core.proclus:ProclusEngine", "_compute_l_and_x",
     ("fit-small", "serve-mix")),
    ("core", "repro.core.fast:FastProclusEngine", "_compute_l_and_x", ALL),
    ("core", "repro.core.fast_star:FastStarProclusEngine", "_compute_l_and_x",
     ("fit-small",)),
    ("core", "repro.gpu_impl.gpu_fast:GpuFastProclusEngine",
     "_compute_l_and_x", ALL),
    ("engine", "repro.core.base:EngineBase", "__init__", ALL),
    ("engine", "repro.core.base:EngineBase", "fit", ALL),
    ("gpu", "repro.gpu.device:Device", "launch", ALL),
    ("gpu", "repro.gpu.device:Device", "alloc", ALL),
    ("gpu", "repro.gpu.device:Device", "to_device", ALL),
    ("gpu", "repro.gpu.memory:MemoryManager", "alloc", ALL),
    ("gpu", "repro.gpu.memory:MemoryManager", "free_all", ALL),
    ("hardware", "repro.hardware.cost_model:HardwareModel", "account", ALL),
    ("hardware", "repro.hardware.cost_model:HardwareModel", "total_seconds",
     ALL),
    ("hardware", "repro.hardware.cost_model:HardwareModel", "phase_seconds",
     ALL),
    ("hardware", "repro.hardware.cost_model:GpuModel", "launch", ALL),
    ("hardware", "repro.hardware.cost_model:GpuModel", "launch_time", ALL),
    ("hardware", "repro.hardware.cost_model:GpuModel", "dominant_component",
     ALL),
    ("hardware", "repro.hardware.counters:WorkCounter", "add", ALL),
    ("hardware", "repro.hardware.counters:WorkCounter", "as_dict", ALL),
    ("fleet", "repro.fleet.device:FleetDevice", "launch", ("fleet-d4",)),
    ("fleet", "repro.fleet.device:FleetDevice", "alloc", ("fleet-d4",)),
    ("fleet", "repro.fleet.device:FleetDevice", "to_device", ("fleet-d4",)),
    ("fleet", "repro.fleet.interconnect", "allreduce_seconds", ("fleet-d4",)),
    ("fleet", "repro.fleet.interconnect", "broadcast_seconds", ("fleet-d4",)),
    ("fleet", "repro.fleet.partition", "split_exact", ("fleet-d4",)),
    ("fleet", "repro.fleet.partition", "tree_merge", ("fleet-d4",)),
    ("fleet", "repro.fleet.fleet:Fleet", "shard_plan", ("fleet-d4",)),
    ("fleet", "repro.fleet.engine:FleetEngineMixin", "_distance_row",
     ("fleet-d4",)),
    ("fleet", "repro.fleet.engine:FleetEngineMixin", "_dim_sums",
     ("fleet-d4",)),
    ("fleet", "repro.fleet.engine:FleetEngineMixin", "_assign_points",
     ("fleet-d4",)),
    ("obs", "repro.obs.tracer:Tracer", "span", ALL),
    ("obs", "repro.obs.tracer:Tracer", "kernel", SERVE),
    ("obs", "repro.obs.tracer:Tracer", "counter", SERVE),
    ("obs", "repro.obs.tracer:Tracer", "device_offset", SERVE),
    ("obs", "repro.obs.tracer:Span", "__enter__", SERVE),
    ("obs", "repro.obs.tracer:Span", "__exit__", SERVE),
    ("obs", "repro.obs.metrics:MetricsRegistry", "counter", SERVE),
    ("obs", "repro.obs.metrics:MetricsRegistry", "histogram", SERVE),
    ("obs", "repro.obs.metrics:MetricsRegistry", "absorb_run_stats", SERVE),
    ("obs", "repro.obs.metrics:MetricsRegistry", "absorb_kernel_times", SERVE),
    ("resilience", "repro.resilience.runner:ResilientRunner", "fit", SERVE),
    ("serve", "repro.serve.service:ClusterService", "submit", SERVE),
    # The worker thread's unit of work: reservation, events, results.
    ("serve", "repro.serve.service:ClusterService", "_run_group", SERVE),
    ("serve", "repro.serve.scheduler:JobScheduler", "admit", SERVE),
    ("serve", "repro.serve.scheduler:JobScheduler", "push", SERVE),
    ("serve", "repro.serve.scheduler:JobScheduler", "pop_group", SERVE),
    ("serve", "repro.serve.scheduler:JobScheduler", "find_queued", SERVE),
    ("serve", "repro.serve.scheduler:JobScheduler", "observe", SERVE),
    ("serve", "repro.serve.cache:ResultCache", "get", SERVE),
    ("serve", "repro.serve.cache:ResultCache", "put", SERVE),
    ("serve", "repro.serve.registry:DatasetRegistry", "register", SERVE),
    ("serve", "repro.serve.registry:DatasetRegistry", "get", SERVE),
    ("serve", "repro.serve.events:ServeLog", "record", SERVE),
    ("data", "repro.data.fingerprint", "dataset_fingerprint", SERVE),
    ("multiparam", "repro.core.multiparam", "build_solo_shared_state", SERVE),
)


class LayerTrace:
    """Installs the wrappers and aggregates calls and self time."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: One ``{(layer, name): [calls, self seconds]}`` table per thread.
        self._tables: list[dict] = []
        self.expected: dict[tuple[str, str], tuple[str, ...]] = {}

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, fn, key: tuple[str, str]):
        """``fn`` with its calls and self time booked under ``key``."""

        def wrapper(*args, **kwargs):
            stack, table = self._state()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                entry = table.get(key)
                if entry is None:
                    entry = table[key] = [0, 0.0]
                entry[0] += 1
                entry[1] += elapsed - nested
                if stack:
                    stack[-1] += elapsed

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Wrap every target; raises ``LookupError`` for a missing one."""
        for layer, owner, attr, workloads in TARGETS:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            key = (layer, f"{owner}.{attr}")
            self.expected[key] = workloads
            if class_name:
                cls = getattr(module, class_name)
                if attr not in vars(cls):
                    raise LookupError(f"{class_name} defines no {attr}")
                original = vars(cls)[attr]
                if isinstance(original, property):
                    wrapped = property(self.wrap(original.fget, key))
                else:
                    wrapped = self.wrap(original, key)
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, key)
            for name, loaded in list(sys.modules.items()):
                if name == "repro" or name.startswith("repro."):
                    for symbol, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, symbol, wrapped)

    def reset(self) -> None:
        with self._lock:
            for table in self._tables:
                table.clear()

    def totals(self) -> dict[tuple[str, str], list]:
        """``{(layer, name): [calls, self seconds]}`` over all threads."""
        merged: dict[tuple[str, str], list] = {}
        with self._lock:
            tables = [dict(table) for table in self._tables]
        for table in tables:
            for key, (calls, busy) in table.items():
                entry = merged.setdefault(key, [0, 0.0])
                entry[0] += calls
                entry[1] += busy
        return merged

    def by_layer(self) -> dict[str, list]:
        """``{layer: [calls, self seconds]}`` for every layer."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for (layer, _), (calls, busy) in self.totals().items():
            out[layer][0] += calls
            out[layer][1] += busy
        return out

    def calls(self, name: str) -> int:
        """Calls recorded for one target (``owner.attr``)."""
        return sum(
            calls for (_, key), (calls, _) in self.totals().items() if key == name
        )

    def silent(self, workload: str) -> list[str]:
        """Targets meant for ``workload`` that recorded no call."""
        totals = self.totals()
        return sorted(
            name
            for (layer, name), workloads in self.expected.items()
            if workload in workloads and totals.get((layer, name), [0])[0] == 0
        )
