"""Tests for the counters and the analytical hardware cost models."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hardware.counters import KernelLaunch, WorkCounter
from repro.hardware.cost_model import (
    UNITS_PER_SECOND,
    GpuModel,
    MulticoreCpuModel,
    ScalarCpuModel,
    to_seconds,
    to_units,
)
from repro.hardware.specs import (
    GTX_1660_TI,
    INTEL_I7_9750H,
    INTEL_I9_10940X,
    RTX_3090,
    cpu_for_problem,
    gpu_for_problem,
)


class TestWorkCounter:
    def test_add_accumulates(self):
        c = WorkCounter()
        c.add("x", 3)
        c.add("x", 4)
        assert c.get("x") == 7

    def test_get_default(self):
        assert WorkCounter().get("missing") == 0.0
        assert WorkCounter().get("missing", 9.0) == 9.0

    def test_record_launch_folds_counters(self):
        c = WorkCounter()
        c.record_launch(KernelLaunch("k", "p", 4, 32, flops=10, gmem_bytes=20, atomic_ops=3))
        assert c.get("gpu.kernel_launches") == 1
        assert c.get("gpu.flops") == 10
        assert len(c.kernel_launches) == 1

    def test_as_dict_is_copy(self):
        c = WorkCounter()
        c.add("x", 1)
        d = c.as_dict()
        d["x"] = 99
        assert c.get("x") == 1

    def test_total_threads(self):
        assert KernelLaunch("k", "p", 4, 32).total_threads == 128


class TestScalarCpuModel:
    def test_time_proportional_to_ops(self):
        m = ScalarCpuModel(INTEL_I7_9750H)
        t1 = m.work("p", scalar_ops=1e6)
        t2 = m.work("p", scalar_ops=2e6)
        assert t2 == pytest.approx(2 * t1)

    def test_vector_ops_faster_than_scalar(self):
        m = ScalarCpuModel(INTEL_I7_9750H)
        assert m.work("p", vector_ops=1e6) < m.work("p", scalar_ops=1e6)

    def test_phase_accumulation(self):
        m = ScalarCpuModel(INTEL_I7_9750H)
        m.work("a", scalar_ops=1e6)
        m.work("a", scalar_ops=1e6)
        m.work("b", scalar_ops=1e6)
        assert m.phase_seconds["a"] == pytest.approx(2 * m.phase_seconds["b"])
        assert m.total_seconds == pytest.approx(sum(m.phase_seconds.values()))

    def test_name_mentions_single_core(self):
        assert "1 core" in ScalarCpuModel(INTEL_I7_9750H).name


class TestMulticoreModel:
    def test_faster_than_scalar(self):
        scalar = ScalarCpuModel(INTEL_I7_9750H).work("p", scalar_ops=1e8)
        multi = MulticoreCpuModel(INTEL_I7_9750H).work("p", scalar_ops=1e8)
        assert multi < scalar

    def test_speedup_bounded_by_core_count(self):
        scalar = ScalarCpuModel(INTEL_I7_9750H).work("p", scalar_ops=1e9)
        multi = MulticoreCpuModel(INTEL_I7_9750H).work("p", scalar_ops=1e9)
        assert scalar / multi <= INTEL_I7_9750H.cores

    def test_fork_join_overhead_dominates_tiny_regions(self):
        m = MulticoreCpuModel(INTEL_I7_9750H)
        t = sum(m.work("p", scalar_ops=0.1) for _ in range(100))
        assert t >= 100 * INTEL_I7_9750H.fork_join_overhead_s
        assert m.counter.get("cpu.parallel_regions") == 100

    def test_more_cores_faster(self):
        t6 = MulticoreCpuModel(INTEL_I7_9750H).work("p", scalar_ops=1e9)
        t14 = MulticoreCpuModel(INTEL_I9_10940X).work("p", scalar_ops=1e9)
        assert t14 < t6


class TestGpuModel:
    def make_launch(self, **kw):
        args = dict(name="k", phase="p", grid_blocks=1024, threads_per_block=256)
        args.update(kw)
        return KernelLaunch(**args)

    def test_launch_overhead_floor(self):
        m = GpuModel(GTX_1660_TI)
        t = m.launch_time(self.make_launch())
        assert t >= GTX_1660_TI.kernel_launch_overhead_s

    def test_memory_bound_time_scales_with_bytes(self):
        m = GpuModel(GTX_1660_TI)
        t1 = m.launch_time(self.make_launch(gmem_bytes=1e8))
        t2 = m.launch_time(self.make_launch(gmem_bytes=2e8))
        assert t2 == pytest.approx(2 * t1, rel=0.05)

    def test_compute_bound_when_flops_dominate(self):
        m = GpuModel(GTX_1660_TI)
        mem = m.launch_time(self.make_launch(gmem_bytes=1e6))
        both = m.launch_time(self.make_launch(gmem_bytes=1e6, flops=1e12))
        assert both > mem

    def test_low_ipc_slows_compute(self):
        m = GpuModel(GTX_1660_TI)
        fast = m.launch_time(self.make_launch(flops=1e11, ipc=1.0))
        slow = m.launch_time(self.make_launch(flops=1e11, ipc=0.25))
        assert slow > fast

    def test_atomic_throughput_term(self):
        m = GpuModel(GTX_1660_TI)
        t = m.launch_time(self.make_launch(atomic_ops=2e9))
        assert t >= 1.0  # 2e9 atomics at 2e9/s

    def test_small_launch_underutilizes_bandwidth(self):
        """One tiny block cannot saturate memory bandwidth."""
        m = GpuModel(GTX_1660_TI)
        tiny = m.launch_time(
            self.make_launch(grid_blocks=1, threads_per_block=32, gmem_bytes=1e7)
        )
        full = m.launch_time(
            self.make_launch(grid_blocks=4096, threads_per_block=256, gmem_bytes=1e7)
        )
        assert tiny > full

    def test_launch_accrues(self):
        m = GpuModel(GTX_1660_TI)
        m.launch(self.make_launch(gmem_bytes=1e7))
        assert m.total_seconds > 0
        assert m.counter.get("gpu.kernel_launches") == 1

    def test_resident_blocks_respects_smem(self):
        m = GpuModel(GTX_1660_TI)
        launch = self.make_launch(threads_per_block=64, smem_bytes_per_block=32 * 1024)
        assert m.resident_blocks_per_sm(launch) == 2


#: Every finite double, subnormals and both zeros included.
finite_doubles = st.floats(allow_nan=False, allow_infinity=False)

MAX = sys.float_info.max
#: Smallest subnormal, largest subnormal, smallest normal.
TINY = (5e-324, 2.225073858507201e-308, sys.float_info.min)


class TestLedgerUnits:
    """The integer ledger agrees with exact rational arithmetic."""

    @settings(max_examples=300, deadline=None)
    @given(finite_doubles)
    @example(0.0)
    @example(-0.0)
    @example(MAX)
    @example(-MAX)
    @example(TINY[0])
    @example(-TINY[0])
    @example(TINY[1])
    @example(TINY[2])
    def test_round_trip_is_identity(self, x):
        units = to_units(x)
        assert Fraction(units, UNITS_PER_SECOND) == Fraction(x)
        assert to_seconds(units) == x

    @settings(max_examples=300, deadline=None)
    @given(st.lists(finite_doubles, max_size=40))
    @example([MAX, MAX])
    @example([MAX, -MAX, TINY[0]])
    @example([0.1] * 10)
    @example(list(TINY) + [-TINY[2]])
    def test_integer_sum_rounds_like_fraction_sum(self, xs):
        total = sum(map(to_units, xs))
        exact = sum(map(Fraction, xs), Fraction(0))
        assert Fraction(total, UNITS_PER_SECOND) == exact
        try:
            expected = float(exact)
        except OverflowError:
            with pytest.raises(OverflowError):
                to_seconds(total)
        else:
            assert to_seconds(total) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("setup", "iterate")),
                st.floats(min_value=0.0, max_value=1e3),
            ),
            max_size=30,
        )
    )
    @example([("setup", -0.0), ("iterate", 1e-5), ("setup", 5e-324)])
    def test_running_total_matches_exact_phase_sums(self, accruals):
        """``total_seconds`` after every accrual is the rounded exact sum."""
        model = GpuModel(GTX_1660_TI)
        exact: dict[str, Fraction] = {}
        for phase, seconds in accruals:
            returned = model.account("transfer", "h2d:x", phase, seconds)
            assert returned == seconds
            assert math.copysign(1.0, returned) == 1.0
            exact[phase] = exact.get(phase, Fraction(0)) + Fraction(seconds)
            total = sum(exact.values(), Fraction(0))
            assert model.total_seconds == float(total)
        assert model.phase_seconds == {
            phase: float(value) for phase, value in exact.items()
        }

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            to_units(math.nan)
        with pytest.raises(OverflowError):
            to_units(math.inf)

    def test_event_components_sum_to_event_units(self):
        m = GpuModel(GTX_1660_TI)
        m.launch(KernelLaunch("k", "p", 64, 256, flops=1e9, gmem_bytes=1e7))
        (event,) = m.events
        assert sum(value for _, value in event.components) == event.units
        assert dict(event.components)["launch"] == to_units(
            GTX_1660_TI.kernel_launch_overhead_s
        )
        assert event.seconds == m.total_seconds


class TestSpecSelection:
    def test_small_problems_use_1660ti(self):
        assert gpu_for_problem(64_000) is GTX_1660_TI
        assert cpu_for_problem(64_000) is INTEL_I7_9750H

    def test_large_problems_use_3090(self):
        assert gpu_for_problem(2**23) is RTX_3090
        assert cpu_for_problem(2**23) is INTEL_I9_10940X

    def test_gpu_derived_properties(self):
        assert GTX_1660_TI.core_count == 1536
        assert RTX_3090.core_count == 10496
        assert GTX_1660_TI.peak_flops == pytest.approx(1536 * 1.77e9 * 2)
        assert GTX_1660_TI.effective_bandwidth < GTX_1660_TI.mem_bandwidth_bytes_per_s
