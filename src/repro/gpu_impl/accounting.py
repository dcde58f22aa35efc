"""Kernel-launch accounting shared by the GPU engine variants.

:class:`GpuEngineMixin` overrides every ``_account_*`` hook of
:class:`~repro.core.base.EngineBase` to record the kernel launches the
corresponding CUDA implementation (Algorithms 2-6) would issue, with
the actual per-iteration work sizes (distance rows computed, sphere
deltas, cluster sizes, ...).  The launch geometries follow the paper's
kernel configurations: 1024 threads per block in general, 128 for
AssignPoints, block-per-(medoid, dimension) for the X / EvaluateCluster
reductions, and the tiny ``k x k`` block for the medoid-distance kernel
whose low occupancy Section 5.4 discusses.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import ParameterError
from ..gpu.device import Device
from ..hardware.cost_model import GpuModel, HardwareModel
from ..hardware.specs import GpuSpec, gpu_for_problem
from ..params import ProclusParams
from ..core.base import OPS_PER_TERM

__all__ = ["GpuEngineMixin"]

#: General-purpose block size (paper: "the block size of 1024 threads").
BLOCK = 1024
#: AssignPoints block size (paper: "128 threads are used per block").
ASSIGN_BLOCK = 128
#: float32 size in bytes.
F32 = 4


def _blocks(items: int, threads: int) -> int:
    return max(1, math.ceil(items / threads))


class GpuEngineMixin:
    """Device setup + per-kernel accounting for the GPU variants."""

    def __init__(
        self,
        *args,
        gpu_spec: GpuSpec | None = None,
        dist_chunks: int = 1,
        **kwargs,
    ) -> None:
        """``dist_chunks``: keep only ``ceil(m / dist_chunks)`` rows of
        the ``Dist`` cache resident on the device (GPU-FAST variants).
        Evicted rows are recomputed on demand — bit-identical values at
        a higher modeled cost — so raising it trades speed for device
        memory.  The resilience layer's degradation ladder uses this
        knob to recover from capacity errors without changing results.
        """
        if not isinstance(dist_chunks, int) or isinstance(dist_chunks, bool):
            raise ParameterError(
                f"dist_chunks must be an int, got {type(dist_chunks).__name__}"
            )
        if dist_chunks < 1:
            raise ParameterError(f"dist_chunks must be >= 1, got {dist_chunks}")
        self._gpu_spec = gpu_spec
        self.dist_chunks = dist_chunks
        self.device: Device | None = None
        super().__init__(*args, **kwargs)

    # ------------------------------------------------------------------
    # Model / device lifecycle
    # ------------------------------------------------------------------
    def _make_model(self, n: int, d: int) -> HardwareModel:
        spec = self._gpu_spec if self._gpu_spec is not None else gpu_for_problem(n)
        return GpuModel(spec)

    def _make_device(self, data: np.ndarray):
        """Create the device facade kernels launch into.

        The fleet variants override this to return a multi-device
        facade; everything else in :meth:`_setup` (allocation sizes,
        upload protocol, kernel accounting) is shared.
        """
        assert isinstance(self.model, GpuModel)
        return Device(self.model.spec, model=self.model, tracer=self._obs)

    @classmethod
    def device_arrays(
        cls, n: int, d: int, params: ProclusParams, m: int, dist_chunks: int = 1
    ) -> list[tuple[str, tuple[int, ...], type]]:
        """Every array :meth:`_setup` allocates, in allocation order.

        Entries are ``(name, shape, dtype)`` for ``n`` points in ``d``
        dimensions with ``m`` potential medoids.  All memory is
        allocated once up front and reused across iterations
        (Section 4.1), so their sizes sum to the run's peak device
        footprint: serve admission and the Fig. 3e footprint read it
        from here.
        """
        k = params.k
        return [
            ("data", (n, d), np.float32),
            ("greedy_dist", (params.effective_sample_size(n),), np.float32),
            ("M", (m,), np.int32),
            # Sphere sets L and clusters C, worst-case size n per medoid.
            ("L", (k, n), np.int32),
            ("C", (k, n), np.int32),
            ("L_sizes", (k,), np.int32),
            ("C_sizes", (k,), np.int32),
            ("labels", (n,), np.int32),
            ("X", (k, d), np.float32),
            ("Z", (k, d), np.float32),
            ("delta", (k,), np.float32),
            ("medoid_dist", (k, k), np.float32),
            *cls._cache_arrays(n, d, k, m, dist_chunks),
        ]

    @classmethod
    def _cache_arrays(
        cls, n: int, d: int, k: int, m: int, dist_chunks: int
    ) -> list[tuple[str, tuple[int, ...], type]]:
        """The variant-specific device arrays (Dist cache, H)."""
        return []

    def _setup(self, data: np.ndarray) -> None:
        super()._setup(data)
        n, d = data.shape
        self.device = self._make_device(data)
        # Within a multi-parameter study the dataset stays resident on
        # the device, so only the first setting pays the PCIe transfer.
        resident = (
            self.shared_state is not None and self.shared_state.data_uploaded
        )
        for name, shape, dtype in self.device_arrays(
            n, d, self.params, self._m_rows(), self.dist_chunks
        ):
            if name != "data" or resident:
                self.device.alloc(shape, dtype, name)
            else:
                self.device.to_device(data, name)
                if self.shared_state is not None:
                    self.shared_state.data_uploaded = True

    def _m_rows(self) -> int:
        """Number of potential medoids the device M array holds."""
        if self.shared_state is not None:
            return self.shared_state.num_potential_medoids
        return self.params.effective_num_potential(self._data.shape[0])

    def _teardown(self) -> None:
        if self.device is not None:
            self.device.memory.free_all()
        super()._teardown()

    def _modeled_peak_bytes(self) -> int:
        return self.device.peak_bytes

    # ------------------------------------------------------------------
    # Kernel accounting (geometry per the paper's Algorithms 2-6)
    # ------------------------------------------------------------------
    def _account_greedy(self, s: int, count: int, d: int) -> None:
        # Algorithm 2: per pick, one distance+atomicMax kernel over
        # Data' and one arg-max-check kernel (separate launch because
        # blocks cannot synchronize globally).
        threads = min(BLOCK, s)
        for _ in range(count):
            self.device.launch(
                "greedy.distances",
                "initialization",
                grid_blocks=_blocks(s, threads),
                threads_per_block=threads,
                flops=s * (OPS_PER_TERM * d + 1),
                gmem_bytes=s * (d * F32 + 2 * F32),
                atomic_ops=s,
                ipc=0.25,
            )
            self.device.launch(
                "greedy.argmax_check",
                "initialization",
                grid_blocks=_blocks(s, threads),
                threads_per_block=threads,
                flops=s,
                gmem_bytes=s * F32,
            )

    def _account_distance_rows(self, rows: int, n: int, d: int) -> None:
        # Algorithm 3 lines 1-3 (with the DistFound check for the FAST
        # variants: a row costs nothing when cached).
        self._count_distance_cache(rows)
        k = self.params.k
        # Each pass streams the dataset once (points are read by one
        # block and distances to the resident medoids computed from
        # registers/shared memory); the output is one row per medoid.
        data_bytes = n * d * F32 if rows > 0 else k * F32
        self.device.launch(
            "compute_l.distances",
            "compute_l",
            grid_blocks=max(1, k * _blocks(n, BLOCK)),
            threads_per_block=min(BLOCK, n),
            flops=rows * n * OPS_PER_TERM * d,
            gmem_bytes=data_bytes + rows * n * F32,
            ipc=0.25,
        )

    def _account_delta(self, k: int) -> None:
        # Algorithm 3 lines 4-7: k blocks of k threads — the low
        # occupancy kernel of Section 5.4.
        self.device.launch(
            "compute_l.medoid_delta",
            "compute_l",
            grid_blocks=k,
            threads_per_block=k,
            flops=k * k,
            gmem_bytes=k * k * F32,
            atomic_ops=k * k,
        )

    def _account_scan_l(self, n: int, k: int, appended: int) -> None:
        # Algorithm 3 lines 8-12: every (medoid, point) pair is checked;
        # points inside the (changed) sphere are appended with atomicInc.
        self.device.launch(
            "compute_l.build_l",
            "compute_l",
            grid_blocks=max(1, k * _blocks(n, BLOCK)),
            threads_per_block=min(BLOCK, n),
            flops=n * k,
            gmem_bytes=n * k * F32 + appended * F32,
            atomic_ops=appended + k,
        )

    def _account_x_sums(self, points: int, d: int, k: int) -> None:
        # Algorithm 4 lines 1-6: block per (medoid, dimension), local
        # partial sums, one atomic per thread at the end.
        self.device.launch(
            "find_dimensions.x_sums",
            "find_dimensions",
            grid_blocks=max(1, k * d),
            threads_per_block=BLOCK,
            flops=points * d * OPS_PER_TERM,
            gmem_bytes=points * d * F32 + k * d * F32,
            atomic_ops=k * d,
            ipc=0.25,
        )

    def _account_x_finalize(self, k: int, d: int) -> None:
        # GPU-FAST: X <- H / |L| in a separate kernel so all H updates
        # are visible first (Section 4.2).
        self.device.launch(
            "find_dimensions.x_finalize",
            "find_dimensions",
            grid_blocks=k,
            threads_per_block=min(BLOCK, d),
            flops=k * d,
            gmem_bytes=k * d * 2 * F32,
        )

    def _account_find_dimensions(self, k: int, d: int) -> None:
        kd = k * d
        # Combined Y / sigma / Z kernel (one launch saves global traffic),
        # charged with the paper's atomic adds for Y and sigma; the
        # emulated kernel adds those terms in one fixed order instead.
        self.device.launch(
            "find_dimensions.z",
            "find_dimensions",
            grid_blocks=k,
            threads_per_block=min(BLOCK, d),
            flops=kd * 8,
            gmem_bytes=kd * 2 * F32,
            atomic_ops=2 * kd,
        )
        # Selection of the k*l lowest-Z dimensions.
        self.device.launch(
            "find_dimensions.select",
            "find_dimensions",
            grid_blocks=1,
            threads_per_block=min(BLOCK, kd),
            flops=kd * max(1.0, math.log2(kd)),
            gmem_bytes=kd * F32,
        )

    def _account_assign(self, n: int, k: int, total_dims: int, d: int) -> None:
        # Algorithm 5: 128-thread blocks, distances to all medoids for a
        # point within one block, atomicMin + append.
        self.device.launch(
            "assign_points",
            "assign_points",
            grid_blocks=_blocks(n * k, ASSIGN_BLOCK),
            threads_per_block=ASSIGN_BLOCK,
            flops=n * total_dims * OPS_PER_TERM + n * k * 2,
            gmem_bytes=n * d * F32 + n * k * F32 + n * F32,
            # The atomicMin lives in shared memory (fast); only the
            # per-point append to C_i is a global atomic.
            atomic_ops=n,
            smem_bytes_per_block=ASSIGN_BLOCK * F32,
            ipc=0.25,
        )

    def _account_evaluate(
        self, member_dims: int, total_dims: int, k: int, d: int
    ) -> None:
        # Algorithm 6: block per (cluster, dimension) pair — sum(|D_i|)
        # blocks; centroid and cost accumulated in shared memory, two
        # passes over the members.
        blocks = max(1, total_dims)
        # Threads per block follow the average cluster size (Sec. 5.4:
        # "8,000 points and 10 clusters implies around 800 threads per
        # block"), capped at the 1024-thread block limit.
        threads = int(min(BLOCK, max(32, member_dims / blocks)))
        self.device.launch(
            "evaluate_cluster",
            "evaluate",
            grid_blocks=blocks,
            threads_per_block=threads,
            flops=member_dims * OPS_PER_TERM * 2,
            gmem_bytes=member_dims * 2 * F32 + k * d * F32,
            atomic_ops=2 * blocks,
            smem_bytes_per_block=2 * F32,
            ipc=0.25,
        )

    def _account_bookkeeping(self, k: int) -> None:
        # Best-cost update, bad-medoid detection, DistFound flag setting
        # — one tiny kernel ("not time-consuming", Section 4.1).
        self.device.launch(
            "update_iteration",
            "update",
            grid_blocks=1,
            threads_per_block=max(32, k),
            flops=k * 8,
            gmem_bytes=k * 4 * F32,
        )

    def _account_refinement_x(self, n: int, d: int, k: int) -> None:
        # Refinement FindDimensions over L <- CBest: every point
        # contributes its d dimensions once.
        self.device.launch(
            "refinement.x_sums",
            "refinement",
            grid_blocks=max(1, k * d),
            threads_per_block=BLOCK,
            flops=n * d * OPS_PER_TERM,
            gmem_bytes=n * d * F32 + k * d * F32,
            atomic_ops=k * d,
            ipc=0.25,
        )

    def _record_iteration_samples(self) -> None:
        # Counter tracks on the modeled device timeline: cumulative
        # Dist-cache hit-rate and the iteration's modeled global-memory
        # bandwidth.  Sampled once per iteration at the current device
        # clock so Perfetto shows the FAST cache warming up.
        obs = self._obs
        if not obs.enabled:
            return
        counter = self.model.counter
        ts = self.device.clock_offset + self.model.total_seconds
        hit = counter.get("cache.dist_rows_hit")
        missed = counter.get("cache.dist_rows_missed")
        if hit + missed > 0:
            obs.counter("cache hit-rate", hit / (hit + missed), ts)
        total_bytes = counter.get("gpu.gmem_bytes")
        prev_bytes, prev_ts = getattr(
            self, "_obs_bandwidth_mark", (0.0, self.device.clock_offset)
        )
        if ts > prev_ts:
            obs.counter(
                "bandwidth (GB/s)",
                (total_bytes - prev_bytes) / (ts - prev_ts) / 1e9,
                ts,
            )
        self._obs_bandwidth_mark = (total_bytes, ts)

    def _account_outliers(self, n: int, k: int, total_dims: int) -> None:
        # Medoid-to-medoid segmental distances (k blocks of k threads)…
        self.device.launch(
            "remove_outliers.medoid_delta",
            "refinement",
            grid_blocks=k,
            threads_per_block=k,
            flops=k * total_dims * OPS_PER_TERM,
            gmem_bytes=k * k * F32,
            atomic_ops=k * k,
        )
        # …then every point checks all k spheres.
        self.device.launch(
            "remove_outliers.check",
            "refinement",
            grid_blocks=_blocks(n, BLOCK),
            threads_per_block=min(BLOCK, n),
            flops=n * total_dims * OPS_PER_TERM + n * k,
            gmem_bytes=n * self._data.shape[1] * F32 + n * F32,
            ipc=0.25,
        )
