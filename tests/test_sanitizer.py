"""Tests for the kernel sanitizer (repro.gpu.sanitizer).

Positive controls: the deliberately buggy kernels in
:mod:`negative_kernels` must each be flagged with their specific
diagnostic class.  Negative controls: their fixed variants — and the
repository's shipped kernels — must produce zero diagnostics.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests import negative_kernels as bad
from repro.exceptions import SanitizerError
from repro.gpu import SimtEmulator
from repro.gpu.sanitizer import (
    ATOMIC_PLAIN_CONFLICT,
    OUT_OF_BOUNDS,
    RACE_READ_WRITE,
    RACE_WRITE_WRITE,
    UNINITIALIZED_SHARED_READ,
    Sanitizer,
    TrackedArray,
    sanitize_launch,
)

pytestmark = pytest.mark.sanitized


class TestNegativeControls:
    """Each buggy fixture kernel is flagged with its specific class."""

    def test_oob_write_flagged(self):
        out = np.zeros(8, dtype=np.float32)
        report = sanitize_launch(bad.oob_write_kernel, 1, 8, out)
        assert report.kinds == {OUT_OF_BOUNDS}
        diag = report.by_kind(OUT_OF_BOUNDS)[0]
        assert diag.array == "out"
        assert "outside shape (8,)" in diag.detail

    def test_oob_write_raises_fatally(self):
        out = np.zeros(8, dtype=np.float32)
        emulator = SimtEmulator(sanitizer=Sanitizer())
        with pytest.raises(SanitizerError) as excinfo:
            emulator.launch(bad.oob_write_kernel, 1, 8, out)
        assert excinfo.value.diagnostic.kind == OUT_OF_BOUNDS

    def test_negative_index_flagged_not_wrapped(self):
        data = np.arange(8, dtype=np.float32)
        out = np.zeros(8, dtype=np.float32)
        report = sanitize_launch(bad.oob_negative_read_kernel, 1, 8, data, out)
        assert report.kinds == {OUT_OF_BOUNDS}
        assert report.by_kind(OUT_OF_BOUNDS)[0].array == "data"

    def test_missing_sync_flagged_as_read_write_race(self):
        out = np.zeros(8, dtype=np.float32)
        report = sanitize_launch(bad.missing_sync_kernel, 1, 8, out)
        assert report.kinds == {RACE_READ_WRITE}
        diag = report.by_kind(RACE_READ_WRITE)[0]
        assert diag.array == "shared:tile"
        assert "no barrier between" in diag.detail

    def test_atomic_plain_conflict_flagged(self):
        out = np.zeros(1, dtype=np.float64)
        report = sanitize_launch(bad.atomic_plain_conflict_kernel, 1, 8, out)
        assert report.kinds == {ATOMIC_PLAIN_CONFLICT}
        assert "atomic" in report.by_kind(ATOMIC_PLAIN_CONFLICT)[0].detail

    def test_uninitialized_shared_read_flagged(self):
        out = np.zeros(8, dtype=np.float32)
        report = sanitize_launch(bad.uninit_shared_read_kernel, 1, 8, out)
        assert report.kinds == {UNINITIALIZED_SHARED_READ}
        diag = report.by_kind(UNINITIALIZED_SHARED_READ)[0]
        assert diag.array == "shared:tile"
        assert diag.location is not None

    def test_cross_block_write_race_flagged(self):
        out = np.zeros(1, dtype=np.float64)
        report = sanitize_launch(bad.cross_block_race_kernel, 4, 4, out)
        assert report.kinds == {RACE_WRITE_WRITE}


class TestFixedVariants:
    """The corrected counterparts run silently."""

    def test_barrier_orders_shared_exchange(self):
        out = np.zeros(8, dtype=np.float32)
        report = sanitize_launch(bad.fixed_sync_kernel, 1, 8, out)
        assert report.ok, report.render()
        np.testing.assert_array_equal(
            out, np.array([1, 2, 3, 4, 5, 6, 7, 0], dtype=np.float32)
        )

    def test_atomic_only_accumulation_is_silent(self):
        out = np.zeros(1, dtype=np.float64)
        report = sanitize_launch(bad.atomic_only_kernel, 4, 8, out)
        assert report.ok, report.render()
        assert out[0] == 32.0

    def test_shuffled_schedule_still_silent(self):
        out = np.zeros(8, dtype=np.float32)
        report = sanitize_launch(bad.fixed_sync_kernel, 1, 8, out,
                                 schedule_seed=3)
        assert report.ok, report.render()


class TestShippedKernelsSilent:
    """A shipped pipeline runs sanitized with zero diagnostics (the
    full sweep is `repro sanitize`; this is the in-suite smoke check)."""

    def test_compute_l_pipeline_clean(self):
        from repro.gpu_impl.kernels.compute_l import compute_l_emulated

        rng = np.random.default_rng(0)
        data = rng.random((25, 4), dtype=np.float32)
        sanitizer = Sanitizer()
        emulator = SimtEmulator(schedule_seed=1, sanitizer=sanitizer)
        compute_l_emulated(data, np.array([2, 7, 11]), emulator=emulator,
                           threads_per_block=8)
        assert sanitizer.report.ok, sanitizer.report.render()
        assert sanitizer.report.launches == 3
        assert sanitizer.report.accesses > 0


class TestWiring:
    """The three integration layers: launch flag, emulator ctor, CLI
    (the CLI layer is covered in test_cli.py)."""

    def test_launch_sanitize_flag_creates_sanitizer(self):
        emulator = SimtEmulator()
        assert emulator.sanitizer is None
        out = np.zeros(4, dtype=np.float64)
        emulator.launch(bad.atomic_only_kernel, 1, 4, out, sanitize=True)
        assert emulator.sanitizer is not None
        assert emulator.sanitizer.report.launches == 1
        assert emulator.sanitizer.report.ok

    def test_unsanitized_launch_logs_nothing(self):
        emulator = SimtEmulator()
        out = np.zeros(1, dtype=np.float64)
        emulator.launch(bad.atomic_plain_conflict_kernel, 1, 8, out)
        assert emulator.sanitizer is None  # racy kernel ran unobserved

    def test_report_accumulates_across_launches(self):
        sanitizer = Sanitizer()
        emulator = SimtEmulator(sanitizer=sanitizer)
        out = np.zeros(4, dtype=np.float64)
        emulator.launch(bad.atomic_only_kernel, 1, 4, out)
        emulator.launch(bad.atomic_plain_conflict_kernel, 1, 4, out)
        assert sanitizer.report.launches == 2
        assert sanitizer.report.kinds == {ATOMIC_PLAIN_CONFLICT}
        assert sanitizer.report.by_kind(ATOMIC_PLAIN_CONFLICT)[0].launch == 2


class TestTrackedArray:
    def test_behaves_like_ndarray(self):
        sanitizer = Sanitizer()
        tracked = sanitizer.track(np.arange(6, dtype=np.float32), "x")
        assert isinstance(tracked, TrackedArray)
        assert tracked.sum() == 15.0
        np.testing.assert_array_equal(tracked * 2, np.arange(6) * 2.0)

    def test_host_accesses_not_logged(self):
        sanitizer = Sanitizer()
        tracked = sanitizer.track(np.arange(6, dtype=np.float32), "x")
        tracked[0] = 9.0  # outside any launch: not in_kernel
        assert sanitizer.report.accesses == 0

    def test_retracking_reuses_registration(self):
        sanitizer = Sanitizer()
        base = np.zeros(4, dtype=np.float32)
        first = sanitizer.track(base, "a")
        second = sanitizer.track(base, "b")
        assert first._info is second._info
        assert sanitizer.track(first, "c") is first

    def test_views_and_ufunc_results_untracked(self):
        sanitizer = Sanitizer()
        tracked = sanitizer.track(np.zeros((3, 4), dtype=np.float32), "x")
        row = tracked[1]
        assert isinstance(row, TrackedArray)
        assert row._san is None  # derived views report nothing
        result = tracked + 1.0
        assert getattr(result, "_san", None) is None

    def test_writes_recorded_per_element(self):
        sanitizer = Sanitizer()
        tracked = sanitizer.track(np.zeros(8, dtype=np.float32), "x")
        sanitizer.begin_launch("manual")
        sanitizer.set_thread((0,), (0,), 0)
        tracked[3] = 1.0
        tracked[2:5]  # slice read covers three elements
        sanitizer.clear_thread()
        sanitizer.end_launch()
        assert sanitizer.report.accesses == 4
        assert sanitizer.report.ok


class TestReportRendering:
    def test_render_and_to_dict(self):
        out = np.zeros(8, dtype=np.float32)
        report = sanitize_launch(bad.missing_sync_kernel, 1, 8, out)
        text = report.render()
        # one diagnostic per raced element, all eight tile cells
        assert "8 diagnostics" in text
        assert RACE_READ_WRITE in text
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["diagnostics"][0]["kind"] == RACE_READ_WRITE
        assert payload["diagnostics"][0]["array"] == "shared:tile"

    def test_one_diagnostic_per_element(self):
        """A race over one cell reports once, however many threads hit it."""
        out = np.zeros(1, dtype=np.float64)
        report = sanitize_launch(bad.atomic_plain_conflict_kernel, 1, 16, out)
        assert len(report.diagnostics) == 1
