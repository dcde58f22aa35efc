"""Tests for the Device facade (allocation, transfer, launch accounting)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu.device import Device
from repro.hardware.specs import GTX_1660_TI, RTX_3090


@pytest.fixture
def device():
    return Device(GTX_1660_TI)


class TestMemory:
    def test_alloc_tracks_peak(self, device):
        device.alloc((1000,), np.float32, "a")
        device.alloc((1000,), np.float32, "b")
        assert device.peak_bytes == 8000

    def test_capacity_is_usable_memory(self, device):
        # The CUDA context / display reserve part of the card: the paper
        # reports only 4.2 GB free on the 6 GB GTX 1660 Ti.
        assert device.memory.capacity_bytes == GTX_1660_TI.usable_bytes
        assert device.memory.capacity_bytes < GTX_1660_TI.memory_bytes

    def test_to_device_books_the_array(self, device):
        host = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert device.to_device(host, "data") is None
        assert device.memory.allocated_bytes == 48
        assert device.peak_bytes == 48

    def test_transfers_accounted(self, device):
        host = np.zeros(1000, dtype=np.float32)
        device.to_device(host, "x")
        c = device.model.counter
        assert c.get("gpu.h2d_bytes") == 4000
        assert [event.name for event in device.model.events] == ["h2d:x"]
        assert device.model.phase_seconds["transfer"] > 0


class TestLaunch:
    def test_launch_returns_positive_seconds(self, device):
        seconds = device.launch(
            "k", "phase", grid_blocks=64, threads_per_block=256,
            flops=1e6, gmem_bytes=1e6,
        )
        assert seconds > 0

    def test_launch_overhead_floor(self, device):
        seconds = device.launch("k", "p", grid_blocks=1, threads_per_block=1)
        assert seconds >= GTX_1660_TI.kernel_launch_overhead_s

    def test_launch_records_counters(self, device):
        device.launch("k", "p", 10, 128, flops=100, gmem_bytes=200, atomic_ops=3)
        c = device.model.counter
        assert c.get("gpu.kernel_launches") == 1
        assert c.get("gpu.flops") == 100
        assert c.get("gpu.gmem_bytes") == 200
        assert c.get("gpu.atomic_ops") == 3

    def test_launch_accrues_phase_seconds(self, device):
        device.launch("k", "my_phase", 10, 128, gmem_bytes=1e7)
        assert device.model.phase_seconds["my_phase"] > 0
        assert device.total_seconds == pytest.approx(
            sum(device.model.phase_seconds.values())
        )

    def test_bigger_card_is_faster_for_big_kernels(self):
        small = Device(GTX_1660_TI).launch(
            "k", "p", 10_000, 1024, gmem_bytes=1e9
        )
        big = Device(RTX_3090).launch("k", "p", 10_000, 1024, gmem_bytes=1e9)
        assert big < small
