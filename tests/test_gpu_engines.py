"""Tests for the GPU engine variants: device residency, footprint, OOM."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import proclus
from repro.exceptions import DeviceOutOfMemoryError
from repro.gpu_impl.gpu_fast import GpuFastProclusEngine
from repro.gpu_impl.gpu_fast_star import GpuFastStarProclusEngine
from repro.gpu_impl.gpu_proclus import GpuProclusEngine
from repro.hardware.specs import GTX_1660_TI, RTX_3090
from repro.params import ProclusParams
from repro.serve import estimate_device_bytes

ENGINES = {
    "gpu": GpuProclusEngine,
    "gpu-fast": GpuFastProclusEngine,
    "gpu-fast-star": GpuFastStarProclusEngine,
}


class TestDeviceLifecycle:
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_device_memory_freed_after_fit(self, small_dataset, small_params, name):
        data, _ = small_dataset
        engine = ENGINES[name](params=small_params, seed=0)
        engine.fit(data)
        assert engine.device.memory.allocated_bytes == 0
        assert engine.device.peak_bytes > 0

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_peak_matches_analytic_footprint(self, small_dataset, small_params, name):
        data, _ = small_dataset
        engine = ENGINES[name](params=small_params, seed=0)
        result = engine.fit(data)
        expected = estimate_device_bytes(
            data.shape[0], data.shape[1], small_params, name
        )
        assert result.stats.peak_device_bytes == expected

    def test_gpu_spec_override(self, small_dataset, small_params):
        data, _ = small_dataset
        r = proclus(
            data, backend="gpu-fast", params=small_params, seed=0,
            gpu_spec=RTX_3090,
        )
        assert r.stats.hardware == "GeForce RTX 3090"

    def test_default_spec_for_small_problem(self, small_dataset, small_params):
        data, _ = small_dataset
        r = proclus(data, backend="gpu", params=small_params, seed=0)
        assert r.stats.hardware == "GeForce GTX 1660 Ti"


class TestSpaceHierarchy:
    def test_fast_uses_more_memory_than_fast_star(self, small_dataset, small_params):
        data, _ = small_dataset
        peaks = {}
        for name, cls in ENGINES.items():
            engine = cls(params=small_params, seed=0)
            peaks[name] = engine.fit(data).stats.peak_device_bytes
        assert peaks["gpu-fast"] > peaks["gpu-fast-star"]
        # FAST* is close to plain GPU-PROCLUS (paper: "similar").
        assert peaks["gpu"] <= peaks["gpu-fast-star"] < 1.1 * peaks["gpu"]

    def test_footprint_linear_in_n(self):
        p = ProclusParams()
        f1 = estimate_device_bytes(100_000, 15, p, "gpu-fast")
        f2 = estimate_device_bytes(200_000, 15, p, "gpu-fast")
        # Linear with a constant offset: doubling n roughly doubles it.
        assert 1.9 < f2 / f1 < 2.1

    def test_paper_oom_point(self):
        """GPU-FAST at 2^23 points must exceed the 6 GB card (Fig. 3e)."""
        bytes_needed = estimate_device_bytes(
            2**23, 15, ProclusParams(k=12), "gpu-fast"
        )
        # "exceeding the 4.2 GB of free memory on our relatively small GPU"
        assert bytes_needed > GTX_1660_TI.usable_bytes
        assert bytes_needed < RTX_3090.usable_bytes  # but fits the 3090


class TestOutOfMemory:
    def test_fit_raises_on_tiny_card(self, small_dataset, small_params):
        data, _ = small_dataset
        tiny_card = dataclasses.replace(
            GTX_1660_TI, memory_bytes=16 * 1024, reserved_bytes=0
        )
        engine = GpuFastProclusEngine(
            params=small_params, seed=0, gpu_spec=tiny_card
        )
        with pytest.raises(DeviceOutOfMemoryError):
            engine.fit(data)

    def test_fit_succeeds_on_sufficient_card(self, small_dataset, small_params):
        data, _ = small_dataset
        card = dataclasses.replace(
            GTX_1660_TI, memory_bytes=64 * 1024**2, reserved_bytes=0
        )
        engine = GpuFastProclusEngine(params=small_params, seed=0, gpu_spec=card)
        engine.fit(data)


class TestKernelAccounting:
    def test_every_phase_launches_kernels(self, small_dataset, small_params):
        data, _ = small_dataset
        engine = GpuProclusEngine(params=small_params, seed=0)
        engine.fit(data)
        names = {launch.name for launch in engine.model.counter.kernel_launches}
        expected = {
            "greedy.distances",
            "greedy.argmax_check",
            "compute_l.distances",
            "compute_l.medoid_delta",
            "compute_l.build_l",
            "find_dimensions.x_sums",
            "find_dimensions.z",
            "find_dimensions.select",
            "assign_points",
            "evaluate_cluster",
            "update_iteration",
            "refinement.x_sums",
            "remove_outliers.medoid_delta",
            "remove_outliers.check",
        }
        assert expected <= names

    def test_launch_count_scales_with_iterations(self, small_dataset, small_params):
        data, _ = small_dataset
        engine = GpuProclusEngine(params=small_params, seed=0)
        result = engine.fit(data)
        launches = result.stats.counters["gpu.kernel_launches"]
        # Greedy: 2 per pick; each iteration: ~10 kernels.
        m = small_params.effective_num_potential(data.shape[0])
        assert launches >= 2 * m + 8 * result.iterations

    def test_gpu_fast_distance_flops_lower(self, small_dataset, small_params):
        data, _ = small_dataset
        flops = {}
        for name in ("gpu", "gpu-fast"):
            r = proclus(data, backend=name, params=small_params, seed=0)
            flops[name] = r.stats.counters["gpu.flops"]
        assert flops["gpu-fast"] < flops["gpu"]
