"""Tests for the occupancy calculator against the paper's Sec. 5.4 readings."""

from __future__ import annotations

import pytest

from repro.gpu.occupancy import occupancy_report
from repro.hardware.specs import GTX_1660_TI, RTX_3090


class TestPaperReadings:
    """Nsight values the paper reports for the GTX 1660 Ti."""

    def test_evaluate_cluster_4m_points(self):
        # 50 blocks (k*l pairs) of 1024 threads.
        occ = occupancy_report(GTX_1660_TI, grid_blocks=50, threads_per_block=1024)
        theo, achieved = occ.as_percentages()
        assert theo == pytest.approx(100.0)
        assert achieved == pytest.approx(100.0, abs=0.1)  # paper: 99.99

    def test_evaluate_cluster_8k_points(self):
        # ~800 threads per block (8,000 points / 10 clusters).
        occ = occupancy_report(GTX_1660_TI, grid_blocks=50, threads_per_block=800)
        theo, achieved = occ.as_percentages()
        assert theo == pytest.approx(78.12, abs=0.01)
        assert achieved == pytest.approx(78.12, abs=0.2)  # paper: 77.98

    def test_delta_kernel_k_by_k(self):
        occ = occupancy_report(GTX_1660_TI, grid_blocks=10, threads_per_block=10)
        theo, achieved = occ.as_percentages()
        assert theo == pytest.approx(50.0)
        assert achieved == pytest.approx(3.12, abs=0.01)


class TestLimits:
    def test_block_limit_binds_for_tiny_blocks(self):
        occ = occupancy_report(GTX_1660_TI, grid_blocks=1000, threads_per_block=32)
        assert occ.limiter == "blocks"
        assert occ.resident_blocks_per_sm == 16

    def test_thread_limit_binds_for_large_blocks(self):
        occ = occupancy_report(GTX_1660_TI, grid_blocks=1000, threads_per_block=1024)
        assert occ.limiter == "threads"
        assert occ.resident_blocks_per_sm == 1

    def test_shared_memory_limit(self):
        occ = occupancy_report(
            GTX_1660_TI, grid_blocks=1000, threads_per_block=64,
            smem_bytes_per_block=48 * 1024,
        )
        assert occ.limiter == "shared memory"
        assert occ.resident_blocks_per_sm == 1

    def test_register_limit(self):
        occ = occupancy_report(
            GTX_1660_TI, grid_blocks=1000, threads_per_block=256,
            registers_per_thread=255,
        )
        assert occ.limiter == "registers"

    def test_occupancy_bounded_by_one(self):
        occ = occupancy_report(RTX_3090, grid_blocks=10_000, threads_per_block=512)
        assert 0.0 < occ.theoretical_occupancy <= 1.0
        assert 0.0 < occ.achieved_occupancy <= occ.theoretical_occupancy + 1e-12


class TestValidation:
    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            occupancy_report(GTX_1660_TI, grid_blocks=0, threads_per_block=32)

    def test_rejects_oversized_block(self):
        with pytest.raises(ValueError, match="exceeds device limit"):
            occupancy_report(GTX_1660_TI, grid_blocks=1, threads_per_block=2048)

    def test_partial_warp_rounds_up(self):
        occ = occupancy_report(GTX_1660_TI, grid_blocks=24, threads_per_block=33)
        # 33 threads occupy 2 warps.
        theo = occ.theoretical_occupancy
        assert theo == pytest.approx(16 * 2 * 32 / 1024)
