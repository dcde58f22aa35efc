"""Tests for the simulated device memory manager."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DeviceError, DeviceOutOfMemoryError
from repro.gpu.memory import MemoryManager


@pytest.fixture
def manager():
    return MemoryManager(capacity_bytes=1024)


class TestAllocation:
    def test_alloc_returns_array_of_shape(self, manager):
        a = manager.alloc((4, 8), np.float32, "x")
        assert a.shape == (4, 8)
        assert a.dtype == np.float32
        assert a.nbytes == 128

    def test_scalar_shape_promoted(self, manager):
        a = manager.alloc(16, np.float32, "x")
        assert a.shape == (16,)

    def test_accounting(self, manager):
        manager.alloc(64, np.float32, "a")  # 256 B
        assert manager.allocated_bytes == 256
        assert manager.free_bytes == 768
        manager.alloc(64, np.float32, "b")
        assert manager.allocated_bytes == 512

    def test_peak_tracks_maximum(self, manager):
        a = manager.alloc(128, np.float32, "a")  # 512
        b = manager.alloc(64, np.float32, "b")  # 256
        a.free()
        manager.alloc(32, np.float32, "c")
        assert manager.peak_bytes == 768

    def test_out_of_memory_raises(self, manager):
        with pytest.raises(DeviceOutOfMemoryError) as err:
            manager.alloc(1024, np.float32, "big")  # 4096 B > 1024
        assert err.value.requested == 4096
        assert err.value.total == 1024

    def test_oom_after_partial_fill(self, manager):
        manager.alloc(200, np.float32, "a")  # 800 B
        with pytest.raises(DeviceOutOfMemoryError):
            manager.alloc(100, np.float32, "b")  # 400 B > 224 free

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MemoryManager(0)


class TestFree:
    def test_free_returns_bytes(self, manager):
        a = manager.alloc(64, np.float32, "a")
        a.free()
        assert manager.allocated_bytes == 0
        assert a.freed

    def test_use_after_free_raises(self, manager):
        a = manager.alloc(4, np.float32, "a")
        a.free()
        with pytest.raises(DeviceError, match="use after free"):
            _ = a.data

    def test_double_free_is_noop(self, manager):
        a = manager.alloc(4, np.float32, "a")
        a.free()
        a.free()  # DeviceArray.free guards; no error, no double release
        assert manager.allocated_bytes == 0

    def test_free_all(self, manager):
        manager.alloc(4, np.float32, "a")
        manager.alloc(4, np.float32, "b")
        manager.free_all()
        assert manager.allocated_bytes == 0
        assert list(manager.live_arrays()) == []

    def test_fill_and_copy_roundtrip(self, manager):
        a = manager.alloc((2, 2), np.float32, "x")
        a.fill(7.0)
        host = a.copy_to_host()
        assert np.all(host == 7.0)
        host[0, 0] = 0.0  # copy, not a view
        assert a.data[0, 0] == 7.0


class TestMemoryBudget:
    def test_reserve_release_and_peak(self):
        from repro.gpu.memory import MemoryBudget

        budget = MemoryBudget(1_000)
        budget.reserve(600)
        budget.reserve(300)
        assert budget.reserved_bytes == 900
        assert budget.free_bytes == 100
        budget.release(300)
        budget.release(600)
        assert budget.reserved_bytes == 0
        assert budget.peak_reserved_bytes == 900

    def test_over_capacity_reservation_rejected(self):
        from repro.gpu.memory import MemoryBudget

        budget = MemoryBudget(1_000)
        with pytest.raises(DeviceOutOfMemoryError):
            budget.reserve(1_001)
        assert budget.fits(1_000)
        assert not budget.fits(1_001)

    def test_timeout_when_capacity_held(self):
        from repro.gpu.memory import MemoryBudget

        budget = MemoryBudget(1_000)
        budget.reserve(800)
        with pytest.raises(DeviceOutOfMemoryError):
            budget.reserve(400, timeout=0.05)
        assert budget.waits == 1
        assert budget.reserved_bytes == 800

    def test_blocked_reservation_proceeds_on_release(self):
        import threading

        from repro.gpu.memory import MemoryBudget

        budget = MemoryBudget(1_000)
        budget.reserve(800)
        acquired = threading.Event()

        def contender():
            budget.reserve(400, timeout=5.0)
            acquired.set()

        thread = threading.Thread(target=contender)
        thread.start()
        assert not acquired.wait(0.05)
        budget.release(800)
        assert acquired.wait(5.0)
        thread.join()
        assert budget.reserved_bytes == 400

    def test_over_release_rejected(self):
        from repro.gpu.memory import MemoryBudget

        budget = MemoryBudget(1_000)
        budget.reserve(100)
        with pytest.raises(DeviceError):
            budget.release(200)

    def test_invalid_capacity_rejected(self):
        from repro.exceptions import ParameterError
        from repro.gpu.memory import MemoryBudget

        with pytest.raises(ParameterError):
            MemoryBudget(0)
