"""Sanitizer sweep over the repository's emulated kernels.

``repro sanitize`` drives every kernel pipeline in
:mod:`repro.gpu_impl.kernels` across a grid of small launch geometries
and schedule shuffles, each run fully instrumented by the kernel
sanitizer (:mod:`repro.gpu.sanitizer`).  The shipped kernels must come
out with *zero* diagnostics; any finding is a correctness bug of the
same severity as a cuda-memcheck hit on the real CUDA code.

Inputs feeding a target kernel (medoids from greedy, spheres from
ComputeL, subspaces from FindDimensions) are computed *unsanitized* —
only the kernel under test runs instrumented, so a report line always
names the culprit stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..core.state import MedoidCache
from ..exceptions import SanitizerError
from ..gpu.emulator import SimtEmulator
from ..gpu.sanitizer import Diagnostic, Sanitizer

__all__ = [
    "KERNELS",
    "GEOMETRIES",
    "KernelSweepResult",
    "SweepReport",
    "run_sweep",
]

#: Small launch geometries: points, dimensions, clusters, subspace size,
#: threads per block.  Deliberately awkward sizes — n not a multiple of
#: the block, blocks with a single thread, more threads than work items —
#: the corners where off-by-one indexing slips through.
GEOMETRIES: tuple[dict[str, int], ...] = (
    {"n": 13, "d": 3, "k": 3, "l": 2, "tpb": 4},
    {"n": 29, "d": 4, "k": 4, "l": 3, "tpb": 8},
    {"n": 40, "d": 5, "k": 5, "l": 3, "tpb": 16},
)

#: Schedule seeds per geometry: in-order plus one shuffled order.
SCHEDULE_SEEDS: tuple[int | None, ...] = (None, 1)


@dataclass(slots=True)
class KernelSweepResult:
    """Sanitizer outcome for one kernel across the geometry grid."""

    kernel: str
    runs: int = 0
    launches: int = 0
    accesses: int = 0
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def to_dict(self) -> dict[str, Any]:
        return {
            "kernel": self.kernel,
            "runs": self.runs,
            "launches": self.launches,
            "accesses": self.accesses,
            "ok": self.ok,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


@dataclass(slots=True)
class SweepReport:
    """Results of a full ``repro sanitize`` sweep."""

    results: list[KernelSweepResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return [d for r in self.results for d in r.diagnostics]

    def render(self) -> str:
        lines = ["kernel sanitizer sweep"]
        for r in self.results:
            status = "ok" if r.ok else f"{len(r.diagnostics)} DIAGNOSTICS"
            lines.append(
                f"  {r.kernel:<16} {r.runs:>3} runs  {r.launches:>4} launches  "
                f"{r.accesses:>7} accesses  {status}"
            )
            for diag in r.diagnostics:
                lines.append("    " + diag.message)
        verdict = "clean" if self.ok else "FAILED"
        lines.append(
            f"{len(self.results)} kernels swept: {verdict} "
            f"({len(self.diagnostics)} diagnostics)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "kernels": [r.to_dict() for r in self.results],
        }


def _dataset(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return rng.random((n, d), dtype=np.float32)


def _medoids(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    return np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)


# -- per-kernel drivers ----------------------------------------------------
# Each driver receives (rng, geometry, emulator) and must run its target
# pipeline through the given (sanitizing) emulator; any upstream inputs
# are computed with plain emulators so findings stay attributable.


def _drive_greedy(rng, geo, em):
    from .kernels.greedy import greedy_select_emulated

    sample = _dataset(rng, geo["n"], geo["d"])
    greedy_select_emulated(
        sample, geo["k"], int(rng.integers(geo["n"])),
        emulator=em, threads_per_block=geo["tpb"],
    )


def _drive_compute_l(rng, geo, em):
    from .kernels.compute_l import compute_l_emulated

    data = _dataset(rng, geo["n"], geo["d"])
    compute_l_emulated(
        data, _medoids(rng, geo["n"], geo["k"]),
        emulator=em, threads_per_block=geo["tpb"],
    )


def _drive_find_dimensions(rng, geo, em):
    from .kernels.compute_l import compute_l_emulated, pad_sets
    from .kernels.find_dimensions import find_dimensions_emulated

    data = _dataset(rng, geo["n"], geo["d"])
    medoid_ids = _medoids(rng, geo["n"], geo["k"])
    l_sets, _, _ = compute_l_emulated(data, medoid_ids)
    padded, sizes = pad_sets(l_sets, geo["n"])
    find_dimensions_emulated(
        data, medoid_ids, padded, sizes, geo["l"],
        emulator=em, threads_per_block=geo["tpb"],
    )


def _dimensions_for(rng, geo, data, medoid_ids):
    from .kernels.compute_l import compute_l_emulated, pad_sets
    from .kernels.find_dimensions import find_dimensions_emulated

    l_sets, _, _ = compute_l_emulated(data, medoid_ids)
    padded, sizes = pad_sets(l_sets, geo["n"])
    dimensions, _ = find_dimensions_emulated(
        data, medoid_ids, padded, sizes, geo["l"]
    )
    return dimensions


def _drive_assign_points(rng, geo, em):
    from .kernels.assign_points import assign_points_emulated

    data = _dataset(rng, geo["n"], geo["d"])
    medoid_ids = _medoids(rng, geo["n"], geo["k"])
    dimensions = _dimensions_for(rng, geo, data, medoid_ids)
    assign_points_emulated(
        data, data[medoid_ids], dimensions,
        emulator=em, threads_per_block=geo["tpb"],
    )


def _drive_evaluate(rng, geo, em):
    from .kernels.assign_points import assign_points_emulated
    from .kernels.compute_l import pad_sets
    from .kernels.evaluate import evaluate_clusters_emulated

    data = _dataset(rng, geo["n"], geo["d"])
    medoid_ids = _medoids(rng, geo["n"], geo["k"])
    dimensions = _dimensions_for(rng, geo, data, medoid_ids)
    _, c_sets = assign_points_emulated(data, data[medoid_ids], dimensions)
    padded, sizes = pad_sets(c_sets, geo["n"])
    evaluate_clusters_emulated(
        data, padded, sizes, dimensions,
        emulator=em, threads_per_block=geo["tpb"],
    )


def _drive_outliers(rng, geo, em):
    from .kernels.outliers import find_outliers_emulated

    data = _dataset(rng, geo["n"], geo["d"])
    medoid_ids = _medoids(rng, geo["n"], geo["k"])
    dimensions = _dimensions_for(rng, geo, data, medoid_ids)
    find_outliers_emulated(
        data, data[medoid_ids], dimensions,
        emulator=em, threads_per_block=geo["tpb"],
    )


def _drive_fast_compute_l(rng, geo, em):
    from .kernels.fast_compute_l import fast_compute_l_emulated

    n, k = geo["n"], geo["k"]
    data = _dataset(rng, n, geo["d"])
    # Two successive medoid subsets sharing one persistent cache — the
    # FAST replacement loop — so both the cold (distances missing) and
    # warm (incremental delta-L) paths run sanitized.
    m = min(n, 2 * k)
    pool = np.sort(rng.choice(n, size=m, replace=False)).astype(np.int64)
    cache = MedoidCache.create(m, n, geo["d"])
    for midx in (
        np.arange(k, dtype=np.int64),
        np.sort(rng.choice(m, size=k, replace=False)).astype(np.int64),
    ):
        fast_compute_l_emulated(
            data, pool[midx], midx,
            cache.dist, cache.dist_found, cache.h,
            cache.prev_delta, cache.size_l,
            emulator=em, threads_per_block=geo["tpb"],
        )


#: The seven kernel pipelines of the paper, in dependency order.
KERNELS: dict[str, Callable[..., None]] = {
    "greedy": _drive_greedy,
    "compute_l": _drive_compute_l,
    "find_dimensions": _drive_find_dimensions,
    "assign_points": _drive_assign_points,
    "evaluate": _drive_evaluate,
    "outliers": _drive_outliers,
    "fast_compute_l": _drive_fast_compute_l,
}


def run_sweep(
    kernels: list[str] | None = None,
    schedule_seeds: tuple[int | None, ...] = SCHEDULE_SEEDS,
    seed: int = 0,
) -> SweepReport:
    """Sweep the named kernels (default: all) under the sanitizer.

    Every (geometry, schedule seed) combination runs with a fresh
    sanitizer; a fatal out-of-bounds aborts only that run — the finding
    is recorded and the sweep continues.
    """
    names = list(KERNELS) if kernels is None else kernels
    unknown = [name for name in names if name not in KERNELS]
    if unknown:
        raise ValueError(
            f"unknown kernels {unknown}; available: {list(KERNELS)}"
        )
    report = SweepReport()
    for name in names:
        result = KernelSweepResult(kernel=name)
        driver = KERNELS[name]
        for geo_idx, geo in enumerate(GEOMETRIES):
            for schedule_seed in schedule_seeds:
                rng = np.random.default_rng(seed + geo_idx)
                sanitizer = Sanitizer()
                em = SimtEmulator(
                    schedule_seed=schedule_seed, sanitizer=sanitizer
                )
                try:
                    driver(rng, geo, em)
                except SanitizerError:
                    pass  # fatal finding already recorded in the report
                result.runs += 1
                result.launches += sanitizer.report.launches
                result.accesses += sanitizer.report.accesses
                result.diagnostics.extend(sanitizer.report.diagnostics)
        report.results.append(result)
    return report
