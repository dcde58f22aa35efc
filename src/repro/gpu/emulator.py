"""Cooperative SIMT emulator: runs CUDA-style kernels thread by thread.

Kernels are written as Python functions over a :class:`ThreadContext`
that exposes the CUDA built-ins (``blockIdx``, ``threadIdx``,
``blockDim``, ``gridDim``), per-block shared memory, and barrier
synchronization.  A kernel that needs ``__syncthreads()`` must be a
*generator* function and ``yield`` at each barrier; the emulator runs
all threads of a block in lock-step rounds between barriers, which is
exactly the guarantee ``__syncthreads`` provides.

The emulator is intentionally simple and slow (it exists to validate
the vectorized kernel implementations on small inputs, not to run
production workloads).  It optionally shuffles the intra-round thread
execution order so tests can verify that kernel results do not depend
on scheduling — the property that makes the paper's atomics-based
kernels "fully correct with respect to the PROCLUS definition".
"""

from __future__ import annotations

import inspect
import itertools
from typing import Any, Callable, Iterable

import numpy as np

from ..exceptions import EmulationError, KernelLaunchError
from ..obs.tracer import current_run
from .sanitizer import Sanitizer

__all__ = ["ThreadContext", "SharedMemory", "SimtEmulator"]

Dim = int | tuple[int, ...]


def _as_tuple(dim: Dim) -> tuple[int, ...]:
    if isinstance(dim, (int, np.integer)):
        return (int(dim),)
    return tuple(int(x) for x in dim)


class SharedMemory:
    """Per-block shared memory: named arrays visible to all block threads."""

    def __init__(self, sanitizer: Sanitizer | None = None) -> None:
        self._arrays: dict[str, np.ndarray] = {}
        self._sanitizer = sanitizer

    def array(
        self,
        name: str,
        shape: int | tuple[int, ...],
        dtype: np.dtype | type = np.float32,
        fill: float | None = None,
    ) -> np.ndarray:
        """Return the named shared array, allocating it on first use.

        All threads of a block receive the same array object; the
        ``fill`` value is applied only by the allocating (first) call,
        mirroring a single-thread initialization in CUDA.  Without
        ``fill`` the contents are garbage, exactly as ``__shared__``
        memory is on hardware — the sanitizer flags reads before any
        thread has written.
        """
        if name not in self._arrays:
            if isinstance(shape, (int, np.integer)):
                shape = (int(shape),)
            if fill is None:
                data = np.empty(shape, dtype=dtype)
            else:
                data = np.full(shape, fill, dtype=dtype)
            if self._sanitizer is not None:
                data = self._sanitizer.track(
                    data,
                    label=f"shared:{name}",
                    space="shared",
                    uninitialized=fill is None,
                )
            self._arrays[name] = data
        return self._arrays[name]

    def items(self) -> Iterable[tuple[str, np.ndarray]]:
        """The allocated (name, array) pairs — for post-launch inspection."""
        return self._arrays.items()

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arrays.values())


class ThreadContext:
    """The view one emulated thread has of the launch (CUDA built-ins)."""

    __slots__ = ("block_idx", "thread_idx", "grid_dim", "block_dim", "shared")

    def __init__(
        self,
        block_idx: tuple[int, ...],
        thread_idx: tuple[int, ...],
        grid_dim: tuple[int, ...],
        block_dim: tuple[int, ...],
        shared: SharedMemory,
    ) -> None:
        self.block_idx = block_idx
        self.thread_idx = thread_idx
        self.grid_dim = grid_dim
        self.block_dim = block_dim
        self.shared = shared

    @property
    def bx(self) -> int:
        """First component of ``blockIdx``."""
        return self.block_idx[0]

    @property
    def by(self) -> int:
        """Second component of ``blockIdx`` (0 for 1-D grids)."""
        return self.block_idx[1] if len(self.block_idx) > 1 else 0

    @property
    def tx(self) -> int:
        """First component of ``threadIdx``."""
        return self.thread_idx[0]

    @property
    def block_threads(self) -> int:
        """Total threads per block."""
        return int(np.prod(self.block_dim))

    @property
    def global_id(self) -> int:
        """Flat global thread id (1-D launches)."""
        return self.bx * self.block_dim[0] + self.tx

    def grid_stride(self, count: int) -> range:
        """Grid-stride loop over ``count`` items for 1-D launches.

        Mirrors the paper's "if the for-loop has more iterations than
        threads, each thread handles multiple iterations".
        """
        total_threads = int(np.prod(self.grid_dim)) * self.block_threads
        return range(self.global_id, count, total_threads)

    def grid_stride_x(self, count: int) -> range:
        """Grid-stride loop over ``count`` items along the grid's x axis.

        For 2-D launches where the y axis indexes an entity (e.g. a
        medoid) and the x blocks tile the points.
        """
        start = self.bx * self.block_dim[0] + self.tx
        step = self.grid_dim[0] * self.block_dim[0]
        return range(start, count, step)

    def block_stride(self, count: int) -> range:
        """Block-stride loop: this thread's share of ``count`` items
        distributed across the threads of its own block."""
        return range(self.tx, count, self.block_dim[0])


class SimtEmulator:
    """Executes kernels with faithful block/thread/barrier semantics."""

    def __init__(
        self,
        schedule_seed: int | None = None,
        sanitizer: Sanitizer | None = None,
    ) -> None:
        """``schedule_seed``: when given, thread execution order within
        each lock-step round is shuffled deterministically, exposing any
        illegal dependence on thread ordering.

        ``sanitizer``: when given, every launch runs instrumented — all
        element accesses are logged and analyzed for out-of-bounds
        accesses, uninitialized shared reads, and races (see
        :mod:`repro.gpu.sanitizer`); findings accumulate in
        ``sanitizer.report``.
        """
        self._rng = (
            np.random.default_rng(schedule_seed) if schedule_seed is not None else None
        )
        self.launches = 0
        self.sanitizer = sanitizer
        #: Per-block shared memory of the most recent launch, keyed by
        #: block index — lets the schedule-independence checker compare
        #: scratch state that the outputs alone would not expose.
        self.last_shared: dict[tuple[int, ...], SharedMemory] = {}

    def launch(
        self,
        kernel: Callable[..., Any],
        grid_dim: Dim,
        block_dim: Dim,
        *args: Any,
        sanitize: bool = False,
    ) -> None:
        """Run ``kernel`` over the launch grid to completion.

        ``sanitize=True`` instruments this launch (creating a
        :class:`~repro.gpu.sanitizer.Sanitizer` on first use if the
        emulator was not constructed with one).
        """
        grid = _as_tuple(grid_dim)
        block = _as_tuple(block_dim)
        if any(g <= 0 for g in grid) or any(b <= 0 for b in block):
            raise KernelLaunchError(
                f"invalid launch configuration grid={grid} block={block}"
            )
        self.launches += 1
        kname = getattr(kernel, "__name__", repr(kernel))
        run = current_run()
        if run.injector is not None:
            run.injector.on_emulated_launch(kname)
        if sanitize and self.sanitizer is None:
            self.sanitizer = Sanitizer()
        san = self.sanitizer
        run_args = args if san is None else self._tracked_args(san, kernel, args)
        if san is not None:
            san.begin_launch(kname)
        is_generator = inspect.isgeneratorfunction(kernel)
        self.last_shared = {}
        obs = run.tracer
        t0 = obs.now() if obs.enabled else 0.0
        try:
            for block_idx in itertools.product(*(range(g) for g in grid)):
                shared = SharedMemory(sanitizer=san)
                self.last_shared[block_idx] = shared
                contexts = [
                    ThreadContext(block_idx, thread_idx, grid, block, shared)
                    for thread_idx in itertools.product(*(range(b) for b in block))
                ]
                if is_generator:
                    self._run_block_with_barriers(kernel, contexts, run_args, san)
                else:
                    self._run_block_plain(kernel, contexts, run_args, san)
        finally:
            if san is not None:
                san.end_launch()
            if obs.enabled:
                blocks = 1
                for g in grid:
                    blocks *= g
                threads = 1
                for b in block:
                    threads *= b
                obs.kernel(
                    kname,
                    kname.removeprefix("_").removesuffix("_kernel"),
                    "emulated",
                    t0,
                    obs.now() - t0,
                    clock="wall",
                    grid_blocks=blocks,
                    threads_per_block=threads,
                )

    @staticmethod
    def _tracked_args(
        san: Sanitizer, kernel: Callable[..., Any], args: tuple[Any, ...]
    ) -> tuple[Any, ...]:
        """Wrap array arguments in sanitizer-instrumented views."""
        try:
            names = list(inspect.signature(kernel).parameters)[1:]
        except (TypeError, ValueError):  # pragma: no cover - exotic callables
            names = []
        return tuple(
            san.track(a, label=names[i] if i < len(names) else f"arg{i}")
            if isinstance(a, np.ndarray)
            else a
            for i, a in enumerate(args)
        )

    def _order(self, items: list[Any]) -> Iterable[Any]:
        if self._rng is None:
            return items
        order = self._rng.permutation(len(items))
        return (items[i] for i in order)

    def _run_block_plain(
        self,
        kernel: Callable[..., Any],
        contexts: list[ThreadContext],
        args: tuple[Any, ...],
        san: Sanitizer | None = None,
    ) -> None:
        # No barriers: every access of the block shares one epoch.
        for ctx in self._order(contexts):
            if san is not None:
                san.set_thread(ctx.block_idx, ctx.thread_idx, 0)
            kernel(ctx, *args)
        if san is not None:
            san.clear_thread()

    def _run_block_with_barriers(
        self,
        kernel: Callable[..., Any],
        contexts: list[ThreadContext],
        args: tuple[Any, ...],
        san: Sanitizer | None = None,
    ) -> None:
        threads = [kernel(ctx, *args) for ctx in contexts]
        active = list(range(len(threads)))
        epoch = 0
        while active:
            at_barrier: list[int] = []
            for i in self._order(active):
                if san is not None:
                    ctx = contexts[i]
                    san.set_thread(ctx.block_idx, ctx.thread_idx, epoch)
                try:
                    next(threads[i])
                except StopIteration:
                    continue
                at_barrier.append(i)
            if san is not None:
                san.clear_thread()
            if at_barrier and len(at_barrier) != len(active):
                raise EmulationError(
                    "divergent __syncthreads(): "
                    f"{len(at_barrier)} of {len(active)} threads reached the barrier"
                )
            active = at_barrier
            epoch += 1
