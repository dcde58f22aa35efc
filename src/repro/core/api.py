"""Public API: :func:`proclus` and :func:`run_parameter_study`.

Quickstart::

    import numpy as np
    from repro import proclus
    from repro.data import default_dataset, minmax_normalize

    dataset = default_dataset(n=10_000, seed=0)
    result = proclus(minmax_normalize(dataset.data), k=10, l=5,
                     backend="gpu-fast", seed=0)
    print(result.summary())

Backends (all produce the identical clustering for the same seed):

==================  ==================================================
name                variant
==================  ==================================================
``proclus``         sequential baseline (Aggarwal et al. 1999)
``fast``            FAST-PROCLUS (Section 3)
``fast-star``       FAST*-PROCLUS (Section 3.2, O(k*n) space)
``gpu``             GPU-PROCLUS (Section 4.1)
``gpu-fast``        GPU-FAST-PROCLUS (Section 4.2) — the headline
``gpu-fast-star``   GPU-FAST*-PROCLUS
``multicore``       OpenMP-style multi-core PROCLUS
``multicore-fast``  OpenMP-style multi-core FAST-PROCLUS
``fleet-gpu*``      any GPU variant sharded across a device fleet
==================  ==================================================
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError
from ..params import ParameterGrid, ProclusParams
from ..result import ProclusResult
from ..data.normalize import minmax_normalize
from ..cpu_parallel.multicore import (
    MulticoreFastProclusEngine,
    MulticoreFastStarProclusEngine,
    MulticoreProclusEngine,
)
from ..fleet.engine import (
    FleetGpuFastProclusEngine,
    FleetGpuFastStarProclusEngine,
    FleetGpuProclusEngine,
)
from ..gpu_impl.gpu_ablation import GpuFastDistOnlyEngine, GpuFastHOnlyEngine
from ..gpu_impl.gpu_fast import GpuFastProclusEngine
from ..gpu_impl.gpu_fast_star import GpuFastStarProclusEngine
from ..gpu_impl.gpu_proclus import GpuProclusEngine
from .ablation import FastDistOnlyEngine, FastHOnlyEngine
from .base import EngineBase
from .fast import FastProclusEngine
from .fast_star import FastStarProclusEngine
from .multiparam import MultiParamResult, ReuseLevel, run_study
from .proclus import ProclusEngine

__all__ = ["BACKENDS", "proclus", "resolve_backend", "run_parameter_study"]

#: Backend name -> engine class.
BACKENDS: dict[str, type[EngineBase]] = {
    "proclus": ProclusEngine,
    "fast": FastProclusEngine,
    "fast-star": FastStarProclusEngine,
    "gpu": GpuProclusEngine,
    "gpu-fast": GpuFastProclusEngine,
    "gpu-fast-star": GpuFastStarProclusEngine,
    # Multi-device sharding of the GPU variants (repro.fleet): identical
    # clustering, modeled across a fleet of devices.
    "fleet-gpu": FleetGpuProclusEngine,
    "fleet-gpu-fast": FleetGpuFastProclusEngine,
    "fleet-gpu-fast-star": FleetGpuFastStarProclusEngine,
    "multicore": MulticoreProclusEngine,
    "multicore-fast": MulticoreFastProclusEngine,
    "multicore-fast-star": MulticoreFastStarProclusEngine,
    # Ablations isolating FAST's two strategies (Dist cache vs
    # incremental H); not part of the paper's variant set but useful
    # for attributing the measured speedup.
    "fast-dist-only": FastDistOnlyEngine,
    "fast-h-only": FastHOnlyEngine,
    "gpu-fast-dist-only": GpuFastDistOnlyEngine,
    "gpu-fast-h-only": GpuFastHOnlyEngine,
}


def resolve_backend(backend: str) -> type[EngineBase]:
    """The engine class of ``backend``; raises
    :class:`~repro.exceptions.ParameterError` naming every backend when
    it is unknown."""
    try:
        return BACKENDS[backend]
    except KeyError:
        raise ParameterError(
            f"unknown backend {backend!r}; available: {', '.join(sorted(BACKENDS))}"
        ) from None


def proclus(
    data: np.ndarray,
    k: int = 10,
    l: int = 5,
    backend: str = "gpu-fast",
    seed: int | None = 0,
    params: ProclusParams | None = None,
    normalize: bool = False,
    **engine_kwargs,
) -> ProclusResult:
    """Run one PROCLUS clustering.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset; expected min-max normalized (pass
        ``normalize=True`` to have the library do it).
    k, l:
        Number of clusters / average subspace dimensionality.  Ignored
        when an explicit ``params`` object is given.
    backend:
        Algorithm variant, see :data:`BACKENDS`.
    seed:
        Seed for all random decisions; equal seeds give the identical
        clustering for every backend.
    params:
        Full parameter set overriding ``k``/``l`` and the defaults.
    normalize:
        Min-max normalize ``data`` before clustering.
    engine_kwargs:
        Forwarded to the engine (e.g. ``gpu_spec=RTX_3090`` for GPU
        backends, ``cpu_spec=...`` for CPU backends).

    Returns
    -------
    ProclusResult
        Clustering plus per-run work/timing statistics in ``.stats``.
    """
    factory = resolve_backend(backend)
    if params is None:
        params = ProclusParams(k=k, l=l)
    if normalize:
        data = minmax_normalize(data)
    engine = factory(params=params, seed=seed, **engine_kwargs)
    return engine.fit(data)


def run_parameter_study(
    data: np.ndarray,
    grid: ParameterGrid | None = None,
    backend: str = "gpu-fast",
    level: ReuseLevel | int = ReuseLevel.WARM_START,
    seed: int | None = 0,
    normalize: bool = False,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    resilience: object | None = None,
    **engine_kwargs,
) -> MultiParamResult:
    """Run a grid of (k, l) settings with the chosen reuse level.

    See :mod:`repro.core.multiparam` for the reuse levels; the paper's
    default grid of 9 (k, l) combinations is used when ``grid`` is
    omitted.

    ``checkpoint_dir``, ``resume``, and ``resilience`` run every
    setting through a :class:`~repro.resilience.ResilientRunner`:
    ``checkpoint_dir`` persists each completed setting so a killed study
    resumes (``resume=True``) with identical output; ``resilience`` is a
    :class:`~repro.resilience.RetryPolicy` (or ``True`` for defaults)
    enabling retry and backend degradation on device errors.  Plain
    studies build and fit each engine directly and pay zero overhead.
    """
    factory = resolve_backend(backend)
    if normalize:
        data = minmax_normalize(data)
    if resume and checkpoint_dir is None:
        raise ParameterError("resume=True requires a checkpoint_dir")
    runner = checkpoint = None
    if checkpoint_dir is not None or resilience:
        # Deferred import: the resilience layer imports this module.
        from ..resilience import ResilientRunner, RetryPolicy, StudyCheckpoint

        if resilience is None or isinstance(resilience, bool):
            policy = None
        elif isinstance(resilience, RetryPolicy):
            policy = resilience
        else:
            raise ParameterError(
                f"resilience must be a RetryPolicy or bool, "
                f"got {type(resilience).__name__}"
            )
        runner = ResilientRunner(policy)
        if checkpoint_dir is not None:
            checkpoint = StudyCheckpoint(checkpoint_dir)
    return run_study(
        data, factory, grid=grid, level=level, seed=seed, backend=backend,
        runner=runner, checkpoint=checkpoint, resume=resume, **engine_kwargs,
    )
