"""Pin the launch memo: a repeated launch still does every per-call step.

``Device`` and ``FleetDevice`` look a repeated ``launch(...)`` argument
tuple up in a per-object dictionary instead of rebuilding its
``KernelLaunch`` (on the fleet, also its per-shard dispatch; on a
device, also its cost), and a device's ``GpuModel`` ledgers a repeat's
first ``CostEvent`` again.  N identical launches must still

* call the installed fault injector N times, so a schedule that counts
  launches fires on the third;
* emit N modeled kernel events with non-decreasing starts to an enabled
  tracer;
* add N ledger events and N ``kernel_launches``.

``FleetDevice`` keeps a running makespan instead of scanning every
shard clock per launch; it must equal the largest shard clock after
every launch, collective and transfer.

The shard models of one card share a roofline table: shard launches
that differ only in their ``@dev{i}`` suffix evaluate the roofline
once, and each shard still ledgers its own event.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import BACKENDS
from repro.data.normalize import minmax_normalize
from repro.data.synthetic import generate_subspace_data
from repro.exceptions import KernelLaunchError
from repro.fleet import default_fleet, mixed_fleet
from repro.fleet.device import FleetDevice
from repro.fleet.model import FleetModel
from repro.gpu.device import Device
from repro.hardware.cost_model import GpuModel, to_units
from repro.hardware.specs import GTX_1660_TI
from repro.obs.tracer import NULL_TRACER, Tracer, use_run
from repro.params import ProclusParams
from repro.resilience.faults import FaultInjector

N = 5
N_POINTS = 3000

#: A root kernel (runs whole on the fleet's first shard) and a sharded
#: one (split by rows over every shard), with ``launch`` keywords.
ROOT = dict(
    name="greedy.distances", phase="initialization", grid_blocks=1,
    threads_per_block=1000, flops=46_000, gmem_bytes=68_000,
    atomic_ops=1000, ipc=0.25,
)
SHARDED = dict(
    name="assign_points", phase="assign_points", grid_blocks=240,
    threads_per_block=128, flops=N_POINTS * 53, gmem_bytes=N_POINTS * 64,
    atomic_ops=N_POINTS, smem_bytes_per_block=512, ipc=0.25,
)


def fleet_device(fleet, tracer=NULL_TRACER) -> FleetDevice:
    model = FleetModel(fleet, GTX_1660_TI)
    device = FleetDevice(fleet, model, tracer, fleet.shard_plan(N_POINTS))
    device.configure_collectives(
        reduce_bytes={"assign_points": 40.0}, bcast_bytes={}, default_bcast=600.0
    )
    return device


def makespan_of(device: FleetDevice) -> float:
    return max(
        shard.skew + shard.model.total_seconds for shard in device._active
    )


def modeled_events(tracer: Tracer, name: str) -> list:
    return [
        event for event in tracer.kernel_events
        if event.name == name and event.clock == "modeled"
    ]


class TestDeviceRepeats:
    def test_injector_fires_on_every_call(self):
        device = Device(GTX_1660_TI, tracer=NULL_TRACER)
        injector = FaultInjector(["launch@greedy.distances#3"])
        with use_run(injector=injector):
            device.launch(**ROOT)
            device.launch(**ROOT)
            with pytest.raises(KernelLaunchError):
                device.launch(**ROOT)
        assert len(injector.injected) == 1

    def test_every_call_is_traced(self):
        tracer = Tracer()
        device = Device(GTX_1660_TI, tracer=tracer)
        for _ in range(N):
            device.launch(**ROOT)
        events = modeled_events(tracer, ROOT["name"])
        assert len(events) == N
        starts = [event.start for event in events]
        assert starts == sorted(starts)

    def test_every_call_is_ledgered_and_counted(self):
        device = Device(GTX_1660_TI, tracer=NULL_TRACER)
        seconds = [device.launch(**ROOT) for _ in range(N)]
        model = device.model
        assert len(model.events) == N
        assert len(model.counter.kernel_launches) == N
        assert model.counter.get("gpu.kernel_launches") == N
        assert len(set(seconds)) == 1
        assert model.total_seconds == sum(seconds)


class TestFleetRepeats:
    @pytest.mark.parametrize(
        "kernel, site",
        [(ROOT, "greedy.distances@dev0"), (SHARDED, "assign_points@dev2")],
        ids=["root", "sharded"],
    )
    def test_injector_fires_on_every_call(self, kernel, site):
        device = fleet_device(default_fleet(3))
        injector = FaultInjector([f"launch@{site}#3"])
        with use_run(injector=injector):
            device.launch(**kernel)
            device.launch(**kernel)
            with pytest.raises(KernelLaunchError):
                device.launch(**kernel)
        assert len(injector.injected) == 1

    @pytest.mark.parametrize(
        "kernel, shards", [(ROOT, (0,)), (SHARDED, (0, 1, 2))],
        ids=["root", "sharded"],
    )
    def test_every_call_is_traced(self, kernel, shards):
        tracer = Tracer()
        device = fleet_device(default_fleet(3), tracer)
        for _ in range(N):
            device.launch(**kernel)
        for index in shards:
            events = modeled_events(tracer, f"{kernel['name']}@dev{index}")
            assert len(events) == N
            starts = [event.start for event in events]
            assert starts == sorted(starts)

    @pytest.mark.parametrize(
        "kernel, shards", [(ROOT, (0,)), (SHARDED, (0, 1, 2))],
        ids=["root", "sharded"],
    )
    def test_every_call_is_ledgered_and_counted(self, kernel, shards):
        device = fleet_device(default_fleet(3))
        for _ in range(N):
            device.launch(**kernel)
        model = device.model
        assert len(model.events) == N
        assert len(model.counter.kernel_launches) == N
        assert model.counter.get("gpu.kernel_launches") == N
        for index, shard in enumerate(model.shards):
            expected = N if index in shards else 0
            assert len(shard.events) == expected
            assert len(shard.counter.kernel_launches) == expected


class TestFleetMakespan:
    def test_tracks_every_launch_collective_and_transfer(self):
        # Mixed cards run at different speeds, so collectives make the
        # shards wait and their skews round.
        device = fleet_device(mixed_fleet(small=2, large=1))
        collective = device._collective
        collectives = []

        def checked_collective(*args):
            collective(*args)
            collectives.append(args[0])
            assert device._makespan == makespan_of(device)

        device._collective = checked_collective
        device.to_device(np.zeros((N_POINTS, 4), np.float32), "data")
        assert device._makespan == makespan_of(device)
        for kernel in [SHARDED, SHARDED, ROOT, ROOT, SHARDED, ROOT] * 3:
            device.launch(**kernel)
            assert device._makespan == makespan_of(device)
        device.alloc((N_POINTS,), np.int32, "labels")
        assert device._makespan == makespan_of(device)
        assert {"allreduce", "broadcast"} <= set(collectives)

    @pytest.mark.parametrize("fleet", [mixed_fleet, lambda: default_fleet(3)])
    def test_tracks_a_whole_fit(self, fleet, monkeypatch):
        checked = []
        for method in ("launch", "_collective", "to_device"):
            original = getattr(FleetDevice, method)

            def wrapper(self, *args, _original=original, **kwargs):
                result = _original(self, *args, **kwargs)
                assert self._makespan == makespan_of(self)
                checked.append(_original.__name__)
                return result

            monkeypatch.setattr(FleetDevice, method, wrapper)
        data = generate_subspace_data(
            n=1200, d=8, n_clusters=4, subspace_dims=4, seed=3
        ).data
        engine = BACKENDS["fleet-gpu-fast"](
            params=ProclusParams(k=4, l=3, a=30, b=5), seed=1, fleet=fleet()
        )
        engine.fit(minmax_normalize(data))
        assert {"launch", "_collective", "to_device"} <= set(checked)


class TestSharedRooflines:
    """A fleet's shard models share one roofline table per card."""

    @staticmethod
    def counted_evaluations(monkeypatch) -> list:
        evaluations = []
        original = GpuModel.launch_time

        def counted(self, launch):
            evaluations.append(launch.name)
            return original(self, launch)

        monkeypatch.setattr(GpuModel, "launch_time", counted)
        return evaluations

    def test_equal_shard_launches_cost_once(self, monkeypatch):
        evaluations = self.counted_evaluations(monkeypatch)
        device = fleet_device(default_fleet(3))
        # 3000 rows over three cards: every shard gets the same split.
        device.launch(**SHARDED)
        device.launch(**SHARDED)
        assert evaluations == ["assign_points@dev0"]
        shards = device.model.shards
        first = shards[0].events[0]
        for index, shard in enumerate(shards):
            assert len(shard.events) == 2
            event = shard.events[0]
            name = f"assign_points@dev{index}"
            assert event.name == event.launch.name == name
            assert (event.units, event.components) == (
                first.units, first.components
            )

    def test_each_card_keeps_its_own(self, monkeypatch):
        evaluations = self.counted_evaluations(monkeypatch)
        device = fleet_device(mixed_fleet(small=2, large=1))
        device.launch(**SHARDED)
        # The RTX 3090 (device 2) never reuses a GTX 1660 Ti's cost.
        assert "assign_points@dev2" in evaluations
        assert len(evaluations) == len(set(evaluations))

    def test_fleet_event_comm_part_is_cut_to_its_units(self):
        model = GpuModel(GTX_1660_TI)
        units = to_units(1e-6)
        model.account(
            "fleet", "k", "p", 1e-6,
            parts=(("comm", units + 5),), residual="compute",
        )
        assert model.events[-1].components == (("comm", units),)
        model.account(
            "fleet", "k", "p", 1e-6, parts=(("comm", 7),), residual="compute",
        )
        assert model.events[-1].components == (
            ("comm", 7), ("compute", units - 7)
        )
