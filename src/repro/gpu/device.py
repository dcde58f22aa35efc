"""Device facade: allocation, host-to-device transfer, and kernel launches.

A :class:`Device` ties together the memory manager (a byte ledger with
capacity + peak tracking), the roofline cost model (modeled kernel
times), and simple PCIe transfer accounting.  The GPU algorithm
variants perform all of their computation "on the device": every
kernel has a vectorized NumPy implementation that records an
equivalent :class:`~repro.hardware.counters.KernelLaunch` here, and
the cost model turns those launches into modeled seconds.
"""

from __future__ import annotations

import numpy as np

from ..hardware.cost_model import CostEvent, GpuModel
from ..hardware.counters import KernelLaunch
from ..hardware.specs import GpuSpec, GTX_1660_TI
from ..obs.export import kernel_pipeline
from ..obs.tracer import NULL_TRACER, Tracer, current_run
from .memory import MemoryManager

__all__ = ["Device", "account_h2d", "kernel_launch"]

#: Sustained host-to-device PCIe bandwidth (B/s); PROCLUS transfers the
#: dataset once, so this barely matters — the paper explicitly keeps
#: all computation on the GPU to avoid transfers.
_PCIE_BANDWIDTH = 12e9
#: Fixed latency of one host-to-device copy.
_TRANSFER_LATENCY_S = 10e-6


def account_h2d(
    model: GpuModel,
    name: str,
    nbytes: int,
    phase: str,
    tracer: Tracer = NULL_TRACER,
    pipeline: str = "transfer",
    clock_offset: float = 0.0,
) -> None:
    """Account one host-to-device copy of ``nbytes`` on ``model``.

    Ledgers its modeled PCIe seconds as ``h2d:<name>`` in ``phase``,
    adds the bytes to ``gpu.h2d_bytes`` and, when ``tracer`` is on,
    places the copy on ``pipeline`` at the model's clock.
    """
    seconds = _TRANSFER_LATENCY_S + nbytes / _PCIE_BANDWIDTH
    start = clock_offset + model.total_seconds
    model.account(
        "transfer", f"h2d:{name}", phase, seconds, residual="transfer"
    )
    model.counter.add("gpu.h2d_bytes", nbytes)
    if tracer.enabled:
        tracer.kernel(
            f"h2d:{name}", pipeline, phase, start, seconds, clock="modeled"
        )


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

    def __init__(
        self,
        spec: GpuSpec = GTX_1660_TI,
        model: GpuModel | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.spec = spec
        self.model = model if model is not None else GpuModel(spec)
        self.memory = MemoryManager(spec.usable_bytes)
        self.tracer = tracer if tracer is not None else current_run().tracer
        #: Shift of this device's modeled clock on the shared trace
        #: timeline (non-zero when an earlier device already ran).
        self.clock_offset = (
            self.tracer.device_offset() if self.tracer.enabled else 0.0
        )
        #: Each distinct ``launch(...)`` argument tuple's trace
        #: pipeline, modeled seconds and first cost event (which holds
        #: its KernelLaunch), so a repeated launch is one lookup.
        self._launches: dict[tuple, tuple[str, float, CostEvent]] = {}

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def alloc(
        self,
        shape: int | tuple[int, ...],
        dtype: np.dtype | type = np.float32,
        name: str = "unnamed",
    ) -> None:
        """Book device global memory (raises when the card is full)."""
        self.memory.alloc(shape, dtype=dtype, name=name)

    def _pipeline(self, name: str) -> str:
        """Trace pipeline (Perfetto track) for a kernel launched here.

        Fleet shard devices override this to place their launches on
        per-device tracks (``gpu0:compute_l``, ...).
        """
        return kernel_pipeline(name)

    def _transfer_pipeline(self) -> str:
        """Trace pipeline for host-to-device copies on this device."""
        return "transfer"

    def to_device(
        self, host: np.ndarray, name: str, phase: str = "transfer"
    ) -> None:
        """Book ``host``'s bytes on the device and account the copy."""
        injector = current_run().injector
        if injector is not None:
            injector.on_transfer("h2d", name, host.nbytes)
        self.memory.alloc(host.shape, dtype=host.dtype, name=name)
        account_h2d(
            self.model, name, host.nbytes, phase, self.tracer,
            self._transfer_pipeline(), self.clock_offset,
        )

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
        model and emits its trace event.  Building the
        :class:`KernelLaunch`, its pipeline name and its cost is done
        once per distinct argument tuple: a repeat ledgers the first
        call's cost event again (:meth:`GpuModel.repeat`).
        """
        injector = current_run().injector
        if injector is not None:
            injector.on_launch(name, phase)
        args = (
            name, phase, grid_blocks, threads_per_block, flops, gmem_bytes,
            atomic_ops, smem_bytes_per_block, registers_per_thread, ipc,
        )
        model = self.model
        tracing = self.tracer.enabled
        if tracing:
            start = self.clock_offset + model.total_seconds
        entry = self._launches.get(args)
        if entry is None:
            seconds = model.launch(kernel_launch(*args))
            entry = self._launches[args] = (
                self._pipeline(name), seconds, model.events[-1]
            )
        else:
            model.repeat(entry[2])
        pipeline, seconds, event = entry
        if tracing:
            launch = event.launch
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
