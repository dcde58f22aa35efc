"""Tests for the fault-injection substrate (repro.resilience.faults)."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    DeviceOutOfMemoryError,
    KernelLaunchError,
    KernelTimeoutError,
    ParameterError,
    TransferCorruptionError,
    TransientDeviceError,
)
from repro.gpu.device import Device
from repro.obs import current_run, use_run
from repro.resilience import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    parse_fault,
)


class TestParseFault:
    @pytest.mark.parametrize("text", [
        "oom",
        "oom@Dist",
        "launch@assign_points#3",
        "launch#2+2",
        "oom#2+*",
        "transient@compute_*#2",
        "transient!nonsticky",
        "corrupt@d2h:*",
        "timeout?0.25",
    ])
    def test_round_trips_through_describe(self, text):
        spec = parse_fault(text)
        assert parse_fault(spec.describe()) == spec

    def test_defaults(self):
        spec = parse_fault("oom")
        assert spec == FaultSpec(kind="oom")
        assert spec.site == "*"
        assert spec.at == 1 and spec.count == 1
        assert spec.probability is None and spec.sticky

    def test_count_forever(self):
        assert parse_fault("oom#3+*").count == -1

    def test_nonsticky(self):
        assert parse_fault("transient!nonsticky").sticky is False
        assert parse_fault("transient").sticky is True

    @pytest.mark.parametrize("text", [
        "", "#3", "oom@", "oom#zero", "oom#1+", "launch lunch",
    ])
    def test_unparseable_raises_typed(self, text):
        with pytest.raises(ParameterError):
            parse_fault(text)

    def test_unknown_kind_raises(self):
        with pytest.raises(ParameterError, match="unknown fault kind"):
            parse_fault("explode")

    @pytest.mark.parametrize("kwargs", [
        {"kind": "oom", "at": 0},
        {"kind": "oom", "count": 0},
        {"kind": "oom", "count": -2},
        {"kind": "oom", "probability": 0.0},
        {"kind": "oom", "probability": 1.5},
    ])
    def test_spec_validation(self, kwargs):
        with pytest.raises(ParameterError):
            FaultSpec(**kwargs)

    def test_every_kind_maps_to_an_operation(self):
        assert set(FAULT_KINDS) == {
            "oom", "launch", "transient", "corrupt", "timeout",
            "device-down",
        }
        for kind in FAULT_KINDS:
            assert parse_fault(kind).operation in (
                "alloc", "launch", "transfer", "any"
            )


class TestScheduleSemantics:
    def test_fires_on_nth_matching_operation(self):
        injector = FaultInjector(["oom@Dist#2"])
        injector.on_alloc("Dist", 100, 1000, 1000)  # 1st: no fire
        with pytest.raises(DeviceOutOfMemoryError) as info:
            injector.on_alloc("Dist", 100, 1000, 1000)  # 2nd: fires
        assert info.value.injected is True
        injector.on_alloc("Dist", 100, 1000, 1000)  # window passed

    def test_site_pattern_filters(self):
        injector = FaultInjector(["launch@assign*"])
        injector.on_launch("compute_l", "iter")  # no match
        with pytest.raises(KernelLaunchError):
            injector.on_launch("assign_points", "iter")

    def test_count_window(self):
        injector = FaultInjector(["launch#2+2"])
        injector.on_launch("k", "p")  # 1: below window
        for _ in range(2):  # 2 and 3: inside window
            with pytest.raises(KernelLaunchError):
                injector.on_launch("k", "p")
        injector.on_launch("k", "p")  # 4: past window

    def test_forever(self):
        injector = FaultInjector(["oom#2+*"])
        injector.on_alloc("x", 1, 10, 10)
        for _ in range(5):
            with pytest.raises(DeviceOutOfMemoryError):
                injector.on_alloc("x", 1, 10, 10)

    def test_transfer_sites_include_direction(self):
        injector = FaultInjector(["corrupt@h2d:data"])
        injector.on_transfer("d2h", "data", 64)  # wrong direction
        with pytest.raises(TransferCorruptionError):
            injector.on_transfer("h2d", "data", 64)

    def test_timeout_kind(self):
        injector = FaultInjector(["timeout"])
        with pytest.raises(KernelTimeoutError):
            injector.on_launch("slow_kernel", "iter")

    def test_emulated_launch_shares_launch_schedule(self):
        injector = FaultInjector(["launch#2"])
        injector.on_launch("a", "iter")  # counts toward the same spec
        with pytest.raises(KernelLaunchError):
            injector.on_emulated_launch("b")

    def test_probability_is_seed_deterministic(self):
        def firing_pattern(seed):
            injector = FaultInjector(["launch?0.3"], seed=seed)
            pattern = []
            for _ in range(50):
                try:
                    injector.on_launch("k", "p")
                    pattern.append(False)
                except KernelLaunchError:
                    pattern.append(True)
            return pattern

        assert firing_pattern(7) == firing_pattern(7)
        assert any(firing_pattern(7))
        assert firing_pattern(7) != firing_pattern(8)

    def test_injection_records(self):
        injector = FaultInjector(["launch@assign*#2"])
        injector.on_launch("assign_points", "iter")
        with pytest.raises(KernelLaunchError):
            injector.on_launch("assign_cost", "iter")
        assert len(injector.injected) == 1
        record = injector.injected[0]
        assert record.kind == "launch"
        assert record.operation == "launch"
        assert record.site == "assign_cost"
        assert record.sequence == 2
        assert record.spec == "launch@assign*#2"


class TestStickyErrors:
    def test_sticky_transient_poisons_the_context(self):
        injector = FaultInjector(["transient"])
        with pytest.raises(TransientDeviceError) as info:
            injector.on_launch("k", "p")
        assert info.value.sticky
        assert injector.sticky_failed
        # Every subsequent operation fails until a device reset.
        with pytest.raises(TransientDeviceError):
            injector.on_alloc("x", 1, 10, 10)
        with pytest.raises(TransientDeviceError):
            injector.on_transfer("h2d", "x", 1)
        injector.device_reset()
        assert not injector.sticky_failed
        injector.on_alloc("x", 1, 10, 10)  # healthy again

    def test_nonsticky_transient_does_not_poison(self):
        injector = FaultInjector(["transient!nonsticky"])
        with pytest.raises(TransientDeviceError) as info:
            injector.on_launch("k", "p")
        assert not info.value.sticky
        assert not injector.sticky_failed
        injector.on_launch("k", "p")  # context survived


class TestAmbientInstallation:
    def test_use_run_injector_scopes_the_device_hooks(self):
        assert current_run().injector is None
        injector = FaultInjector(["oom#1+*"])
        device = Device()
        with use_run(injector=injector) as run:
            assert run.injector is injector
            with pytest.raises(DeviceOutOfMemoryError):
                device.alloc(4, name="x")
        assert current_run().injector is None
        device.alloc(4, name="x")
        assert len(injector.injected) == 1

    def test_schedule_accepts_strings_and_specs(self):
        injector = FaultInjector(["oom@Dist", FaultSpec(kind="launch")])
        assert injector.schedule[0] == FaultSpec(kind="oom", site="Dist")
        assert injector.schedule[1] == FaultSpec(kind="launch")
