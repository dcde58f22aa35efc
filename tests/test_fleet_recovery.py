"""Elastic fleet recovery: device loss, live re-sharding, bit-identity.

The tentpole contract: killing any fleet member at any stage of a run
must yield the clustering of the fault-free *solo* run, bit for bit —
labels, medoids, dimensions, cost, and the exact-work counters — via a
live re-shard over the surviving members (or, when nobody survives, a
degradation along the documented ladder).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import proclus
from repro.exceptions import DeviceLostError
from repro.fleet import (
    Fleet,
    RecoveryPlan,
    active_devices,
    dead_device_indices,
    default_fleet,
    degraded_fleet,
    plan_recovery,
)
from repro.hardware.specs import GTX_1660_TI
from repro.obs import use_run
from repro.params import ProclusParams
from repro.resilience import (
    ErrorClass,
    FaultInjector,
    ResilientRunner,
    RetryPolicy,
    classify_error,
)

PARAMS = ProclusParams(k=4, l=3)
FLEET_BACKENDS = ("fleet-gpu-fast", "fleet-gpu", "fleet-gpu-fast-star")

#: Stage name -> which matching operation the device dies on.  #1 is
#: the very first touch (the data upload); #8 lands inside the
#: iterative phase's sharded kernels.
STAGES = {"upload": 1, "iterate": 8}


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    return rng.normal(size=(300, 8)).astype(np.float32)


@pytest.fixture(scope="module")
def solo_reference(data):
    cache = {}

    def get(backend: str):
        if backend not in cache:
            cache[backend] = proclus(
                data, params=PARAMS, backend=backend, seed=0
            )
        return cache[backend]

    return get


def _exact_counters(stats):
    return {
        name: value
        for name, value in stats.counters.items()
        if name.startswith("gpu.")
    }


class TestRecoveryPlanning:
    def test_dead_device_indices_parses_tags(self):
        assert dead_device_indices(["dev1", "dev0", "dev1"]) == (0, 1)

    def test_solo_tag_is_ignored(self):
        assert dead_device_indices(["device"]) == ()
        assert dead_device_indices([]) == ()

    def test_degraded_fleet_zeroes_in_place(self):
        fleet = default_fleet(3)
        survivors = degraded_fleet(fleet, [1])
        assert survivors is not None
        # Numbering is stable: the dead member keeps its slot.
        assert survivors.num_devices == 3
        assert survivors.effective_weights()[1] == 0.0
        assert survivors.effective_weights()[0] > 0.0

    def test_degraded_fleet_none_when_all_dead(self):
        fleet = default_fleet(2)
        assert degraded_fleet(fleet, [0, 1]) is None

    def test_plan_recovery_shard_plan_covers_all_rows(self):
        plan = plan_recovery(default_fleet(3), [2])
        assert isinstance(plan, RecoveryPlan)
        assert plan.active == 2
        shard = plan.shard_plan(101)
        assert sum(shard.counts) == 101
        assert shard.counts[2] == 0

    def test_describe_names_the_dead(self):
        plan = plan_recovery(default_fleet(3), [0])
        assert "dev0" in plan.describe()
        assert "2 of 3" in plan.describe()

    def test_active_devices_counts_positive_weights(self):
        fleet = Fleet(specs=(GTX_1660_TI,) * 3, weights=(1.0, 0.0, 2.0))
        assert active_devices(fleet) == 2


class TestErrorClassification:
    def test_device_lost_classifies_as_device_loss(self):
        error = DeviceLostError("gone", device="dev1")
        assert classify_error(error) is ErrorClass.DEVICE_LOSS
        assert error.device == "dev1"


class TestDeviceDownDifferential:
    """Kill each device at each stage x D in {2..4} x every backend."""

    @pytest.mark.parametrize("backend", FLEET_BACKENDS)
    @pytest.mark.parametrize("devices", [2, 3, 4])
    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_any_loss_is_bit_identical_to_solo(
        self, data, solo_reference, backend, devices, stage
    ):
        solo = solo_reference(backend.removeprefix("fleet-"))
        for dead in range(devices):
            schedule = [f"device-down@dev{dead}#{STAGES[stage]}"]
            injector = FaultInjector(schedule, seed=0)
            with use_run(injector=injector):
                outcome = ResilientRunner(RetryPolicy()).fit(
                    data, backend=backend, params=PARAMS, seed=0,
                    engine_kwargs={"fleet": devices},
                )
            assert len(injector.injected) >= 1, (backend, devices, dead)
            assert np.array_equal(outcome.result.labels, solo.labels)
            assert np.array_equal(outcome.result.medoids, solo.medoids)
            assert outcome.result.dimensions == solo.dimensions
            assert outcome.result.cost == solo.cost
            assert _exact_counters(outcome.result.stats) == _exact_counters(
                solo.stats
            )
            reshards = [
                event for event in outcome.events if event.kind == "reshard"
            ]
            assert len(reshards) == 1
            assert reshards[0].to_rung == (
                f"{backend}[{devices - 1}/{devices} devices]"
            )
            # The outcome reports the shard plan that actually produced
            # the result, matching the docs/robustness.md example.
            assert outcome.rung == reshards[0].to_rung
            assert f"dev{dead}" in reshards[0].detail
            assert reshards[0].recovery_s > 0.0

    def test_two_devices_lost_reshards_twice(self, data, solo_reference):
        solo = solo_reference("gpu-fast")
        schedule = ["device-down@dev0#1", "device-down@dev2#4"]
        with use_run(injector=FaultInjector(schedule, seed=0)) as run:
            outcome = ResilientRunner(RetryPolicy()).fit(
                data, backend="fleet-gpu-fast", params=PARAMS, seed=0,
                engine_kwargs={"fleet": 3},
            )
        assert np.array_equal(outcome.result.labels, solo.labels)
        assert outcome.result.cost == solo.cost
        kinds = [event.kind for event in outcome.events]
        assert kinds.count("reshard") == 2
        assert len(run.injector.injected) == 2

    def test_all_devices_lost_degrades_to_solo_rung(self, data, solo_reference):
        solo = solo_reference("gpu-fast")
        schedule = ["device-down@dev0#1", "device-down@dev1#1"]
        with use_run(injector=FaultInjector(schedule, seed=0)):
            outcome = ResilientRunner(RetryPolicy()).fit(
                data, backend="fleet-gpu-fast", params=PARAMS, seed=0,
                engine_kwargs={"fleet": 2},
            )
        assert np.array_equal(outcome.result.labels, solo.labels)
        assert outcome.result.cost == solo.cost
        # Nothing left to re-shard onto: the run left the fleet rungs.
        assert not outcome.backend.startswith("fleet-")

    def test_recovery_counters_recorded(self, data):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        injector = FaultInjector(["device-down@dev1#1"], seed=0)
        with use_run(tracer=tracer, injector=injector):
            ResilientRunner(RetryPolicy()).fit(
                data, backend="fleet-gpu-fast", params=PARAMS, seed=0,
                engine_kwargs={"fleet": 3},
            )
        counters = tracer.metrics.as_dict()["counters"]
        assert counters["fleet.recovery.reshards"] == 1
        assert counters["fleet.recovery.devices_lost"] == 1
        assert counters["fleet.recovery.mttr_seconds"] > 0.0
        assert counters["resilience.faults.device-loss"] == 1

    def test_reshard_emits_resilience_span(self, data):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        injector = FaultInjector(["device-down@dev1#1"], seed=0)
        with use_run(tracer=tracer, injector=injector):
            ResilientRunner(RetryPolicy()).fit(
                data, backend="fleet-gpu-fast", params=PARAMS, seed=0,
                engine_kwargs={"fleet": 3},
            )
        spans = [
            span for span in tracer.all_spans() if span.name == "reshard"
        ]
        assert len(spans) == 1
        assert spans[0].category == "resilience"


class TestDeviceDownPermanence:
    def test_every_op_on_dead_device_raises(self):
        injector = FaultInjector(["device-down@dev1#1"], seed=0)
        with pytest.raises(DeviceLostError) as info:
            injector.on_transfer("h2d", "data@dev1", 100)
        assert info.value.device == "dev1"
        # Permanent: a context reset does not revive the member ...
        injector.device_reset()
        with pytest.raises(DeviceLostError):
            injector.on_launch("assign_points@dev1", "iter")
        with pytest.raises(DeviceLostError):
            injector.on_alloc("X@dev1", 64, 10**9, 10**9)
        # ... other members are untouched ...
        injector.on_launch("assign_points@dev0", "iter")
        # ... and only revive() brings it back.
        injector.revive("dev1")
        injector.on_launch("assign_points@dev1", "iter")

    def test_dead_devices_exposed(self):
        injector = FaultInjector(["device-down@dev2#1"], seed=0)
        assert injector.dead_devices == frozenset()
        with pytest.raises(DeviceLostError):
            injector.on_launch("kernel@dev2", "iter")
        assert injector.dead_devices == frozenset({"dev2"})
