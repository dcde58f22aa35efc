"""Edge-case tests for the kernel profiler."""

from __future__ import annotations

import pytest

from repro.gpu.profiler import (
    KernelProfile,
    format_kernel_profile,
    kernel_profile_records,
    profile_kernels,
)
from repro.hardware.counters import KernelLaunch
from repro.hardware.cost_model import GpuModel
from repro.hardware.specs import GTX_1660_TI


def _launch(name="k", blocks=4, threads=128, flops=0.0, gmem=0.0):
    return KernelLaunch(
        name=name, phase="compute_l", grid_blocks=blocks,
        threads_per_block=threads, flops=flops, gmem_bytes=gmem,
    )


class TestProfilerEdgeCases:
    def test_empty_launch_list(self):
        model = GpuModel(GTX_1660_TI)
        profiles = profile_kernels(model)
        assert profiles == []
        assert format_kernel_profile(profiles) == "(no kernel launches recorded)"
        assert kernel_profile_records(profiles) == []

    def test_zero_work_launch_is_launch_bound(self):
        model = GpuModel(GTX_1660_TI)
        model.launch(_launch(flops=0.0, gmem=0.0))
        (profile,) = profile_kernels(model)
        assert profile.bound_by == "launch"
        assert profile.total_seconds > 0  # launch overhead still accrues

    def test_zero_duration_profile_formats(self):
        """A synthetic zero-time profile must not divide by zero."""
        profile = KernelProfile(
            name="noop", calls=0, total_seconds=0.0, total_flops=0.0,
            total_bytes=0.0, total_atomics=0.0, bound_by="launch",
        )
        assert profile.average_seconds == 0.0
        text = format_kernel_profile([profile])
        assert "noop" in text
        records = kernel_profile_records([profile])
        assert records[0]["share"] == 0.0
        assert records[0]["average_seconds"] == 0.0

    def test_records_match_profiles(self):
        model = GpuModel(GTX_1660_TI)
        model.launch(_launch(name="a", flops=1e8))
        model.launch(_launch(name="b", gmem=1e8))
        profiles = profile_kernels(model)
        records = kernel_profile_records(profiles)
        assert [r["name"] for r in records] == [p.name for p in profiles]
        assert sum(r["share"] for r in records) == pytest.approx(1.0)
        for record, profile in zip(records, profiles):
            assert record["calls"] == profile.calls
            assert record["bound_by"] == profile.bound_by
