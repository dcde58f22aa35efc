"""End-to-end PROCLUS on the SIMT emulator (validation engines).

These engines are the "host program" of the paper's CUDA
implementation: :class:`EmulatedKernelsMixin` runs the emulated
kernels of Algorithms 2-6 (greedy pick, ComputeL, FindDimensions,
AssignPoints, EvaluateCluster, RemoveOutliers) in the hooks of
:class:`~repro.core.base.EngineBase`, whose ``fit`` runs Algorithm 1
for them as for every backend, every data-parallel step executed
thread by thread under the cooperative emulator.  As each GPU engine
is :class:`~repro.gpu_impl.accounting.GpuEngineMixin` over a CPU
engine, each emulated engine is the mixin over the CPU engine it
emulates: GPU-PROCLUS over :class:`~repro.core.proclus.ProclusEngine`,
and Section 4.2's GPU-FAST pipeline over
:class:`~repro.core.fast.FastProclusEngine` (on its
:class:`~repro.core.state.MedoidCache`) and
:class:`~repro.core.fast_star.FastStarProclusEngine` (on its ``k``
slot rows).

They exist for validation, not speed: the integration tests run them
on small datasets and assert that their clustering is identical to
every vectorized backend's.  Expect them to be several orders of
magnitude slower than the vectorized engines — each emulated thread is
a Python generator.  They model no time: their stats count the
emulator's kernel launches only.
"""

from __future__ import annotations

import numpy as np

from ..core.fast import FastProclusEngine
from ..core.fast_star import FastStarProclusEngine
from ..core.greedy import draw_sample
from ..core.phases import pick_dimensions
from ..core.proclus import ProclusEngine
from ..gpu.emulator import SimtEmulator
from ..hardware.cost_model import HardwareModel
from ..hardware.counters import WorkCounter
from .kernels.assign_points import assign_points_emulated
from .kernels.compute_l import compute_l_emulated, pad_sets
from .kernels.evaluate import evaluate_clusters_emulated
from .kernels.fast_compute_l import fast_compute_l_emulated
from .kernels.find_dimensions import x_emulated, z_emulated
from .kernels.greedy import greedy_select_emulated
from .kernels.outliers import find_outliers_emulated

__all__ = [
    "EmulatedKernelsMixin",
    "EmulatedGpuProclusEngine",
    "EmulatedGpuFastProclusEngine",
    "EmulatedGpuFastStarProclusEngine",
]


class _LaunchCounter(WorkCounter):
    """Reads back the emulator's launch count as the only counter."""

    def __init__(self, emulator: SimtEmulator) -> None:
        super().__init__()
        self._emulator = emulator

    def as_dict(self) -> dict[str, float]:
        return {"emulator.kernel_launches": float(self._emulator.launches)}


class _EmulatorModel(HardwareModel):
    """The emulated engines' hardware model: it models no time."""

    name = "SIMT emulator"

    def __init__(self, emulator: SimtEmulator) -> None:
        super().__init__()
        self.counter = _LaunchCounter(emulator)

    def work(
        self, phase: str, scalar_ops: float = 0.0, vector_ops: float = 0.0
    ) -> float:
        return 0.0


class EmulatedKernelsMixin:
    """The engine hooks, run as emulated kernels."""

    def __init__(self, *args, schedule_seed: int | None = None, **kwargs) -> None:
        """``schedule_seed`` shuffles intra-round thread order, so a fit
        can be repeated under another warp schedule.  That does not make
        every output schedule-independent: the ``Z`` kernel's float64
        atomic adds round in thread order
        (``tests/test_kernel_atomic_order.py``)."""
        self.emulator = SimtEmulator(schedule_seed=schedule_seed)
        super().__init__(*args, **kwargs)

    def _make_model(self, n: int, d: int) -> HardwareModel:
        return _EmulatorModel(self.emulator)

    def _modeled_peak_bytes(self) -> int:
        return 0

    def _initialization_phase(self, data: np.ndarray) -> np.ndarray:
        """Sample ``Data'`` and pick ``M`` with Algorithm 2's kernels."""
        if self.shared_state is not None:
            return super()._initialization_phase(data)
        n = len(data)
        sample_indices, seed_index = draw_sample(n, self.params, self.rng)
        local = greedy_select_emulated(
            data[sample_indices], self.params.effective_num_potential(n),
            seed_index, emulator=self.emulator,
        )
        return sample_indices[local]

    def _clusters(self, labels: np.ndarray, k: int):
        """The ``k`` clusters of ``labels`` in the padded ``C`` layout."""
        return pad_sets([np.flatnonzero(labels == i) for i in range(k)], len(labels))

    # -- ComputeL (Section 4.2's pipeline; the plain engine has its own)
    def _fill_rows(self, rows: np.ndarray, point_ids: np.ndarray) -> None:
        """Nothing: the pipeline's distance kernel fills the rows whose
        ``DistFound`` flag is unset."""

    def _update_h(
        self, rows: np.ndarray, medoid_ids: np.ndarray, dist: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        cache = self._cache
        return fast_compute_l_emulated(
            self._data, medoid_ids, rows,
            cache.dist, cache.dist_found, cache.h,
            cache.prev_delta, cache.size_l,
            emulator=self.emulator,
        )

    # -- FindDimensions, AssignPoints, EvaluateCluster, RemoveOutliers
    def _find_dimensions(self, x: np.ndarray) -> tuple[tuple[int, ...], ...]:
        return pick_dimensions(z_emulated(x, self.emulator), self.params.l)

    def _cluster_x(
        self, labels: np.ndarray, medoid_points: np.ndarray
    ) -> np.ndarray:
        sets, sizes = self._clusters(labels, len(medoid_points))
        return x_emulated(self._data, medoid_points, sets, sizes, self.emulator)

    def _assign_points(
        self, medoid_points: np.ndarray, dims: list
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Labels and, in place of ``seg``, the member sets."""
        return assign_points_emulated(
            self._data, medoid_points, dims, emulator=self.emulator
        )

    def _evaluate_clusters(self, labels: np.ndarray, dims: list) -> float:
        sets, sizes = self._clusters(labels, len(dims))
        return evaluate_clusters_emulated(
            self._data, sets, sizes, dims, emulator=self.emulator
        )

    def _find_outliers(
        self, seg, medoid_points: np.ndarray, dims: list
    ) -> np.ndarray:
        return find_outliers_emulated(
            self._data, medoid_points, dims, emulator=self.emulator
        )


class EmulatedGpuProclusEngine(EmulatedKernelsMixin, ProclusEngine):
    """GPU-PROCLUS executed kernel-for-kernel on the SIMT emulator."""

    backend_name = "gpu-emulated"

    def _compute_l_and_x(
        self, mcur: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 3's kernels, then Algorithm 4's ``X`` over the spheres."""
        medoid_ids = self._medoid_ids[mcur]
        l_sets, _, _ = compute_l_emulated(
            self._data, medoid_ids, emulator=self.emulator
        )
        sets, sizes = pad_sets(l_sets, len(self._data))
        x = x_emulated(
            self._data, self._data[medoid_ids], sets, sizes, self.emulator
        )
        return x, sizes


class EmulatedGpuFastProclusEngine(EmulatedKernelsMixin, FastProclusEngine):
    """GPU-FAST-PROCLUS executed kernel-for-kernel on the SIMT emulator.

    Runs Section 4.2's modified pipeline: DistFound-guarded distance
    kernel, separate flag-set kernel, DeltaL collection (Theorem 3.1),
    per-(medoid, dimension) H update (Theorem 3.2), and the separate
    ``X <- H / |L|`` kernel — against the persistent cache rows of the
    current medoids.
    """

    backend_name = "gpu-fast-emulated"


class EmulatedGpuFastStarProclusEngine(
    EmulatedKernelsMixin, FastStarProclusEngine
):
    """GPU-FAST*-PROCLUS on the emulator: k-slot caches (Section 3.2).

    The emulated GPU-FAST pipeline on per-slot rows: before each
    iteration, any slot whose medoid changed is reset on the host (the
    paper's "use i in MBad to identify for which of the medoids we need
    to recompute"), and ``MIdx`` degenerates to the slot index.
    """

    backend_name = "gpu-fast*-emulated"
