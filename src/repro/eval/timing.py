"""Timing harness: average modeled running times over repeated runs.

The paper reports running times as "averages of 10 runs on different
generated datasets".  :func:`time_backend` mirrors that protocol:
``repeats`` datasets are generated with different seeds, the backend
runs once on each, and the modeled times are averaged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.api import proclus, run_parameter_study
from ..core.multiparam import ReuseLevel
from ..data.normalize import minmax_normalize
from ..data.synthetic import SyntheticDataset
from ..params import ParameterGrid, ProclusParams

__all__ = ["TimingResult", "time_backend", "time_parameter_study"]

DatasetFactory = Callable[[int], SyntheticDataset]


@dataclass(slots=True)
class TimingResult:
    """Aggregated timing of one backend on one workload."""

    backend: str
    modeled_seconds: float
    wall_seconds: float
    peak_bytes: float
    iterations: float
    repeats: int
    per_run_seconds: list[float] = field(default_factory=list)

    @property
    def modeled_milliseconds(self) -> float:
        return self.modeled_seconds * 1e3


def time_backend(
    backend: str,
    dataset_factory: DatasetFactory,
    params: ProclusParams | None = None,
    repeats: int = 3,
    **engine_kwargs,
) -> TimingResult:
    """Average a backend's modeled time over ``repeats`` fresh datasets
    (repeat ``r`` generates and fits with seed ``r``)."""
    params = params if params is not None else ProclusParams()
    per_run: list[float] = []
    wall = 0.0
    peak = 0.0
    iterations = 0.0
    for r in range(repeats):
        dataset = dataset_factory(r)
        data = minmax_normalize(dataset.data)
        result = proclus(
            data,
            backend=backend,
            params=params,
            seed=r,
            **engine_kwargs,
        )
        per_run.append(result.stats.modeled_seconds)
        wall += result.stats.wall_seconds
        peak = max(peak, result.stats.peak_device_bytes)
        iterations += result.iterations
    return TimingResult(
        backend=backend,
        modeled_seconds=float(np.mean(per_run)),
        wall_seconds=wall / repeats,
        peak_bytes=peak,
        iterations=iterations / repeats,
        repeats=repeats,
        per_run_seconds=per_run,
    )


def time_parameter_study(
    backend: str,
    dataset_factory: DatasetFactory,
    grid: ParameterGrid | None = None,
    level: ReuseLevel | int = ReuseLevel.WARM_START,
    repeats: int = 3,
    **engine_kwargs,
) -> TimingResult:
    """Average modeled time *per setting* of a multi-parameter study
    (repeat ``r`` generates and fits with seed ``r``)."""
    grid = grid if grid is not None else ParameterGrid()
    per_run: list[float] = []
    wall = 0.0
    peak = 0.0
    iterations = 0.0
    for r in range(repeats):
        dataset = dataset_factory(r)
        data = minmax_normalize(dataset.data)
        study = run_parameter_study(
            data,
            grid=grid,
            backend=backend,
            level=level,
            seed=r,
            **engine_kwargs,
        )
        per_run.append(study.average_seconds_per_setting)
        wall += study.total_stats.wall_seconds
        peak = max(peak, study.total_stats.peak_device_bytes)
        iterations += study.total_stats.iterations
    return TimingResult(
        backend=f"{backend} (multi-param {int(level)})",
        modeled_seconds=float(np.mean(per_run)),
        wall_seconds=wall / repeats,
        peak_bytes=peak,
        iterations=iterations / repeats,
        repeats=repeats,
        per_run_seconds=per_run,
    )
