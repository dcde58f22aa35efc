"""Device facade: allocation, host/device transfer, and kernel launches.

A :class:`Device` ties together the memory manager (capacity + peak
tracking), the roofline cost model (modeled kernel times), and simple
PCIe transfer accounting.  The GPU algorithm variants perform all of
their computation "on the device": every kernel has a vectorized NumPy
implementation that records an equivalent
:class:`~repro.hardware.counters.KernelLaunch` here, and the cost model
turns those launches into modeled seconds.
"""

from __future__ import annotations

import numpy as np

from ..hardware.cost_model import GpuModel
from ..hardware.counters import KernelLaunch
from ..hardware.specs import GpuSpec, GTX_1660_TI
from ..obs.export import kernel_pipeline
from ..obs.tracer import Tracer, current_run
from .memory import DeviceArray, MemoryManager

__all__ = ["Device", "kernel_launch"]

#: Sustained host<->device PCIe bandwidth (B/s); PROCLUS transfers the
#: dataset once and the labels back once, so this barely matters — the
#: paper explicitly keeps all computation on the GPU to avoid transfers.
_PCIE_BANDWIDTH = 12e9
#: Fixed latency of one host<->device copy.
_TRANSFER_LATENCY_S = 10e-6


def kernel_launch(
    name: str,
    phase: str,
    grid_blocks: int,
    threads_per_block: int,
    flops: float = 0.0,
    gmem_bytes: float = 0.0,
    atomic_ops: float = 0.0,
    smem_bytes_per_block: int = 0,
    registers_per_thread: int = 32,
    ipc: float = 1.0,
) -> KernelLaunch:
    """The :class:`KernelLaunch` a ``launch(...)`` call records.

    Counts are coerced to ``int`` and work amounts to ``float``, so
    equal calls give equal (and equally hashed) launches.
    """
    return KernelLaunch(
        name=name,
        phase=phase,
        grid_blocks=int(grid_blocks),
        threads_per_block=int(threads_per_block),
        flops=float(flops),
        gmem_bytes=float(gmem_bytes),
        atomic_ops=float(atomic_ops),
        smem_bytes_per_block=int(smem_bytes_per_block),
        registers_per_thread=int(registers_per_thread),
        ipc=float(ipc),
    )


class Device:
    """A simulated CUDA device with a calibrated performance model."""

    #: Whether this device consults the run's fault injector.  The
    #: fleet's *logical* device holds the solo run's allocations and
    #: transfers purely for accounting and must not double-fire faults
    #: already injected on the physical shard devices.
    fires_injector = True

    def __init__(
        self,
        spec: GpuSpec = GTX_1660_TI,
        model: GpuModel | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.spec = spec
        self.model = model if model is not None else GpuModel(spec)
        self.memory = MemoryManager(
            spec.usable_bytes, fires_injector=self.fires_injector
        )
        self.tracer = tracer if tracer is not None else current_run().tracer
        #: Shift of this device's modeled clock on the shared trace
        #: timeline (non-zero when an earlier device already ran).
        self.clock_offset = (
            self.tracer.device_offset() if self.tracer.enabled else 0.0
        )
        #: Each distinct ``launch(...)`` argument tuple's KernelLaunch
        #: and trace pipeline, so a repeated launch is one lookup.
        self._launches: dict[tuple, tuple[KernelLaunch, str]] = {}

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def alloc(
        self,
        shape: int | tuple[int, ...],
        dtype: np.dtype | type = np.float32,
        name: str = "unnamed",
    ) -> DeviceArray:
        """Allocate device global memory (raises when the card is full)."""
        return self.memory.alloc(shape, dtype=dtype, name=name)

    def _pipeline(self, name: str) -> str:
        """Trace pipeline (Perfetto track) for a kernel launched here.

        Fleet shard devices override this to place their launches on
        per-device tracks (``gpu0:compute_l``, ...).
        """
        return kernel_pipeline(name)

    def _transfer_pipeline(self) -> str:
        """Trace pipeline for host<->device copies on this device."""
        return "transfer"

    def to_device(self, host: np.ndarray, name: str, phase: str = "transfer") -> DeviceArray:
        """Copy a host array onto the device, accounting the transfer."""
        injector = current_run().injector if self.fires_injector else None
        if injector is not None:
            injector.on_transfer("h2d", name, host.nbytes)
        array = self.memory.alloc(host.shape, dtype=host.dtype, name=name)
        array.data[...] = host
        seconds = _TRANSFER_LATENCY_S + host.nbytes / _PCIE_BANDWIDTH
        start = self.clock_offset + self.model.total_seconds
        self.model.account(
            "transfer", f"h2d:{name}", phase, seconds, residual="transfer"
        )
        self.model.counter.add("gpu.h2d_bytes", host.nbytes)
        if self.tracer.enabled:
            self.tracer.kernel(
                f"h2d:{name}", self._transfer_pipeline(), phase, start, seconds,
                clock="modeled",
            )
        return array

    def to_host(self, array: DeviceArray, phase: str = "transfer") -> np.ndarray:
        """Copy a device array back to the host, accounting the transfer."""
        injector = current_run().injector if self.fires_injector else None
        if injector is not None:
            injector.on_transfer("d2h", array.name, array.nbytes)
        seconds = _TRANSFER_LATENCY_S + array.nbytes / _PCIE_BANDWIDTH
        start = self.clock_offset + self.model.total_seconds
        self.model.account(
            "transfer", f"d2h:{array.name}", phase, seconds, residual="transfer"
        )
        self.model.counter.add("gpu.d2h_bytes", array.nbytes)
        if self.tracer.enabled:
            self.tracer.kernel(
                f"d2h:{array.name}", self._transfer_pipeline(), phase, start,
                seconds, clock="modeled",
            )
        return array.copy_to_host()

    @property
    def peak_bytes(self) -> int:
        """Peak device memory footprint so far."""
        return self.memory.peak_bytes

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def launch(
        self,
        name: str,
        phase: str,
        grid_blocks: int,
        threads_per_block: int,
        flops: float = 0.0,
        gmem_bytes: float = 0.0,
        atomic_ops: float = 0.0,
        smem_bytes_per_block: int = 0,
        registers_per_thread: int = 32,
        ipc: float = 1.0,
    ) -> float:
        """Account one kernel launch; returns its modeled seconds.

        Every call fires the fault injector, records the launch on the
        model and emits its trace event; only building the
        :class:`KernelLaunch` and its pipeline name is done once per
        distinct argument tuple.
        """
        injector = current_run().injector if self.fires_injector else None
        if injector is not None:
            injector.on_launch(name, phase)
        args = (
            name, phase, grid_blocks, threads_per_block, flops, gmem_bytes,
            atomic_ops, smem_bytes_per_block, registers_per_thread, ipc,
        )
        entry = self._launches.get(args)
        if entry is None:
            entry = self._launches[args] = (
                kernel_launch(*args), self._pipeline(name)
            )
        launch, pipeline = entry
        start = self.clock_offset + self.model.total_seconds
        seconds = self.model.launch(launch)
        if self.tracer.enabled:
            self.tracer.kernel(
                name,
                pipeline,
                phase,
                start,
                seconds,
                clock="modeled",
                grid_blocks=launch.grid_blocks,
                threads_per_block=launch.threads_per_block,
            )
        return seconds

    @property
    def total_seconds(self) -> float:
        """Total modeled seconds accumulated on this device."""
        return self.model.total_seconds
