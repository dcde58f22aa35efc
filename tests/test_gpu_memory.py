"""Tests for the simulated device memory manager."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DeviceOutOfMemoryError
from repro.gpu.memory import MemoryManager


@pytest.fixture
def manager():
    return MemoryManager(capacity_bytes=1024)


class TestAllocation:
    def test_alloc_books_bytes_of_shape(self, manager):
        assert manager.alloc((4, 8), np.float32, "x") is None
        assert manager.allocated_bytes == 128

    def test_scalar_shape_promoted(self, manager):
        manager.alloc(16, np.float32, "x")
        manager.alloc(np.int64(4), np.int32, "y")
        assert manager.allocated_bytes == 80

    def test_accounting(self, manager):
        manager.alloc(64, np.float32, "a")  # 256 B
        assert manager.allocated_bytes == 256
        assert manager.free_bytes == 768
        manager.alloc(64, np.float32, "b")
        assert manager.allocated_bytes == 512

    def test_peak_tracks_maximum(self, manager):
        manager.alloc(128, np.float32, "a")  # 512
        manager.alloc(64, np.float32, "b")  # 256
        manager.free_all()
        manager.alloc(32, np.float32, "c")
        assert manager.peak_bytes == 768
        assert manager.allocated_bytes == 128

    def test_out_of_memory_raises(self, manager):
        with pytest.raises(DeviceOutOfMemoryError) as err:
            manager.alloc(1024, np.float32, "big")  # 4096 B > 1024
        assert err.value.requested == 4096
        assert err.value.total == 1024

    def test_oom_after_partial_fill(self, manager):
        manager.alloc(200, np.float32, "a")  # 800 B
        with pytest.raises(DeviceOutOfMemoryError):
            manager.alloc(100, np.float32, "b")  # 400 B > 224 free
        assert manager.allocated_bytes == 800

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MemoryManager(0)


class TestFree:
    def test_free_returns_bytes(self, manager):
        manager.alloc(200, np.float32, "a")  # 800 B
        manager.free_all()
        assert manager.free_bytes == 1024
        manager.alloc(200, np.float32, "a")  # fits again
        assert manager.allocated_bytes == 800

    def test_double_free_is_noop(self, manager):
        manager.alloc(4, np.float32, "a")
        manager.free_all()
        manager.free_all()
        assert manager.allocated_bytes == 0
        assert manager.peak_bytes == 16

    def test_free_all(self, manager):
        manager.alloc(4, np.float32, "a")
        manager.alloc(4, np.float32, "b")
        manager.free_all()
        assert manager.allocated_bytes == 0
        assert manager.peak_bytes == 32
