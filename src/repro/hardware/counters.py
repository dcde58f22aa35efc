"""Work counters shared by all algorithm variants.

Every variant records the work it *actually performs* — e.g. the FAST
variants record fewer distance computations because their caches hit —
into a :class:`WorkCounter`.  The cost models translate these counters
into modeled seconds; the benchmarks additionally report the raw
counters so the algorithmic savings can be inspected independently of
any hardware assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WorkCounter", "KernelLaunch"]


@dataclass(frozen=True, slots=True)
class KernelLaunch:
    """One simulated kernel launch and its aggregate work.

    Attributes
    ----------
    name:
        Kernel name (e.g. ``"compute_l.distances"``).
    phase:
        Algorithm phase the launch belongs to.
    grid_blocks:
        Number of thread blocks launched.
    threads_per_block:
        Block size.
    flops:
        Total arithmetic operations performed by all threads.
    gmem_bytes:
        Total global-memory traffic (reads + writes) in bytes.
    atomic_ops:
        Total atomic operations on global memory.
    smem_bytes_per_block:
        Static shared memory per block (occupancy input).
    registers_per_thread:
        Register usage per thread (occupancy input).
    """

    name: str
    phase: str
    grid_blocks: int
    threads_per_block: int
    flops: float = 0.0
    gmem_bytes: float = 0.0
    atomic_ops: float = 0.0
    smem_bytes_per_block: int = 0
    registers_per_thread: int = 32
    #: Effective instructions-per-cycle factor of the kernel's inner
    #: loop (1.0 = independent ops; ~0.25 for dependent accumulation
    #: chains like the serial per-dimension distance loops, which the
    #: paper notes are "not parallelized across dimensions").
    ipc: float = 1.0

    @property
    def total_threads(self) -> int:
        return self.grid_blocks * self.threads_per_block


class WorkCounter:
    """Accumulates named work quantities for one algorithm run."""

    def __init__(self) -> None:
        self._counts: dict[str, float] = {}
        self.kernel_launches: list[KernelLaunch] = []

    def add(self, name: str, amount: float) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        self._counts[name] = self._counts.get(name, 0.0) + amount

    def record_launch(self, launch: KernelLaunch) -> None:
        """Record a kernel launch and fold its work into the counters.

        The four counters are updated as four :meth:`add` calls would,
        in the same order; this runs on every launch, so without the
        calls.
        """
        self.kernel_launches.append(launch)
        counts = self._counts
        get = counts.get
        counts["gpu.kernel_launches"] = get("gpu.kernel_launches", 0.0) + 1
        counts["gpu.flops"] = get("gpu.flops", 0.0) + launch.flops
        counts["gpu.gmem_bytes"] = (
            get("gpu.gmem_bytes", 0.0) + launch.gmem_bytes
        )
        counts["gpu.atomic_ops"] = (
            get("gpu.atomic_ops", 0.0) + launch.atomic_ops
        )

    def get(self, name: str, default: float = 0.0) -> float:
        return self._counts.get(name, default)

    def as_dict(self) -> dict[str, float]:
        """Return a copy of all counters."""
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = ", ".join(f"{k}={v:,.0f}" for k, v in sorted(self._counts.items()))
        return f"WorkCounter({body})"
