"""Multi-parameter-setting studies (Section 3.1 / experiments 5.3).

PROCLUS results depend on ``k`` and ``l``, so users run it for a grid
of settings.  The paper layers three reuse strategies on top of
(GPU-)FAST-PROCLUS:

* **multi-param 1** — pick the sample ``Data'`` and potential medoids
  ``M`` for the *largest* ``k`` and use them for every setting; the
  ``Dist`` and ``H`` caches then stay valid across settings.  Greedy is
  still executed per setting (same result, cost still paid).
* **multi-param 2** — additionally reuse the greedy pick itself: the
  selection cost is paid only once.
* **multi-param 3** — additionally initialize each setting's ``MCur``
  with a random subset of the *previous* setting's best medoids, which
  converges in fewer iterations.

The paper measures ~1.4x, ~1.6x and ~2.3x speedups for the three levels
over running GPU-FAST-PROCLUS one setting at a time.

:func:`run_study` is the one study loop.  Given a
:class:`~repro.resilience.ResilientRunner` it fits every setting under
retry and degradation, and given a
:class:`~repro.resilience.StudyCheckpoint` it saves each completed
setting and can resume a killed study; the random protocol is the same
either way, so every route returns the plain study's results.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ParameterError
from ..obs.tracer import current_run
from ..params import ParameterGrid, ProclusParams
from ..result import ProclusResult, RunStats
from ..rng import RandomSource
from .ablation import FastHOnlyEngine
from .base import EngineBase, validate_data
from .greedy import draw_potential_medoids
from .state import MedoidCache, SharedStudyState

__all__ = [
    "ReuseLevel",
    "MultiParamResult",
    "run_study",
    "build_solo_shared_state",
]


class ReuseLevel(enum.IntEnum):
    """How much is reused across the settings of a study."""

    #: Independent runs, one fresh engine per setting.
    NONE = 0
    #: Shared sample/medoids; Dist and H caches persist across settings.
    PARTIAL_RESULTS = 1
    #: Additionally reuse the greedy pick (its cost is paid only once).
    GREEDY = 2
    #: Additionally warm-start each setting from the previous best medoids.
    WARM_START = 3


@dataclass(slots=True)
class MultiParamResult:
    """Results and aggregate statistics of a parameter study."""

    results: dict[tuple[int, int], ProclusResult] = field(default_factory=dict)
    total_stats: RunStats = field(default_factory=RunStats)
    level: ReuseLevel = ReuseLevel.NONE
    backend: str = ""
    #: Retry/degradation/checkpoint events recorded when the study ran
    #: under the resilience layer (:mod:`repro.resilience`); empty for
    #: plain studies.
    events: list = field(default_factory=list)

    @property
    def num_settings(self) -> int:
        return len(self.results)

    @property
    def average_seconds_per_setting(self) -> float:
        """Average modeled seconds per (k, l) combination — the unit the
        paper's Figs. 3a-3e report."""
        if not self.results:
            return 0.0
        return self.total_stats.modeled_seconds / len(self.results)

    def best_setting(self) -> tuple[int, int]:
        """The (k, l) combination with the lowest clustering cost."""
        if not self.results:
            raise ParameterError("study produced no results")
        return min(self.results, key=lambda key: self.results[key].cost)


def build_solo_shared_state(
    data: np.ndarray,
    params: ProclusParams,
    rng: RandomSource,
    engines: list[type[EngineBase]] | None = None,
) -> SharedStudyState:
    """Draw the sample and greedy pick once, to share across runs.

    ``rng`` makes exactly the draws of
    :meth:`EngineBase._initialization_phase <repro.core.base.EngineBase>`
    for ``params`` (:func:`~repro.core.greedy.draw_potential_medoids`),
    so the medoid set ``M`` is bit-identical to a solo run's with the
    same seed.  An engine constructed with this shared state and the
    *advanced* ``rng`` therefore produces the identical clustering to a
    direct solo run — the sharing contract the serving layer's request
    coalescer relies on (requests agreeing on seed, ``k``, ``A`` and
    ``B`` share sample, greedy pick, and FAST caches without changing
    any request's result).  A study passes its grid's largest ``k``.

    ``engines`` are the engine classes that may fit on the state: a
    study's engine, or every rung of its runner's ladder.  When each is
    an H-only ablation, which computes its current medoids' distance
    rows into a ``k``-row scratch of its own, the cache holds no
    ``Dist`` rows.
    """
    n, d = data.shape
    if params.effective_num_potential(n) < params.k:
        raise ParameterError(
            f"dataset of {n} points cannot supply {params.k} medoids"
        )
    sample_indices, medoid_ids = draw_potential_medoids(data, params, rng)
    h_only = engines is not None and all(
        issubclass(engine, FastHOnlyEngine) for engine in engines
    )
    return SharedStudyState(
        sample_indices=sample_indices,
        medoid_ids=medoid_ids,
        cache=MedoidCache.create(len(medoid_ids), n, d, with_dist=not h_only),
    )


def _warn_duplicate_settings(duplicates: list[tuple[int, int]]) -> None:
    """Emit ONE :class:`UserWarning` for all of a study's duplicates.

    Warning once per study (rather than once per skipped pair, as an
    earlier revision did) keeps a pathological grid from flooding the
    warning log while still naming every skipped setting.
    """
    if not duplicates:
        return
    unique = sorted(set(duplicates))
    listing = ", ".join(f"(k={k}, l={l})" for k, l in unique)
    warnings.warn(
        f"parameter grid contains {len(duplicates)} duplicate setting "
        f"entr{'y' if len(duplicates) == 1 else 'ies'} [{listing}]; "
        f"computing each setting once",
        stacklevel=3,
    )


def run_study(
    data: np.ndarray,
    engine_factory: type[EngineBase],
    grid: ParameterGrid | None = None,
    level: ReuseLevel | int = ReuseLevel.WARM_START,
    seed: int | None = 0,
    backend: str | None = None,
    runner=None,
    checkpoint=None,
    resume: bool = False,
    **engine_kwargs,
) -> MultiParamResult:
    """Run one PROCLUS variant over a grid of (k, l) settings.

    Parameters
    ----------
    data:
        Min-max normalized ``(n, d)`` dataset.
    engine_factory:
        Engine class to run (e.g. ``GpuFastProclusEngine``).
    grid:
        The (k, l) grid; the paper's 9-combination default when omitted.
    level:
        Reuse strategy, see :class:`ReuseLevel`.
    seed:
        Master seed; per-setting randomness derives from it.
    backend:
        The :data:`~repro.core.api.BACKENDS` name of ``engine_factory``;
        ``runner`` degrades and ``checkpoint`` validates by this name.
    runner:
        A :class:`~repro.resilience.ResilientRunner` to fit every
        setting under (retry and degradation); without one each engine
        is built and fitted directly.
    checkpoint:
        A :class:`~repro.resilience.StudyCheckpoint` that persists every
        completed setting (requires ``runner``).
    resume:
        Continue from ``checkpoint`` when it holds a manifest (a fresh
        study otherwise).  The master RNG, warm-start medoids and shared
        state are restored, so the output equals an uninterrupted run's.
    engine_kwargs:
        Extra keyword arguments passed to every engine (e.g.
        ``gpu_spec=...``).
    """
    if checkpoint is not None and runner is None:
        raise ParameterError("a checkpointed study needs a runner")
    data = validate_data(data)
    grid = grid if grid is not None else ParameterGrid()
    level = ReuseLevel(level)
    master = RandomSource(seed)
    obs = current_run().tracer
    study = MultiParamResult(level=level, backend=engine_factory.backend_name)
    shared: SharedStudyState | None = None
    previous_best: np.ndarray | None = None
    #: Settings an interrupted run already saved, by (k, l).
    completed: dict[tuple[int, int], ProclusResult] = {}
    if checkpoint is not None and resume and checkpoint.exists():
        completed, master, previous_best, shared = checkpoint.resume(
            data, grid, backend, level, master, study.events
        )
    elif checkpoint is not None:
        checkpoint.begin(data, grid, backend, level, seed)
    resilient = {"resilient": True} if runner is not None else {}

    with obs.span(
        "study", category="study",
        backend=engine_factory.backend_name,
        level=int(level), settings=len(grid), **resilient,
    ):
        shared_span_id = None
        if level >= ReuseLevel.PARTIAL_RESULTS and not completed:
            with obs.span("shared_state", category="study") as shared_span:
                shared = build_solo_shared_state(
                    data, grid.base.with_(k=grid.max_k), master,
                    [engine_factory] if runner is None
                    else runner.engines_for(backend),
                )
            shared_span_id = shared_span.span_id

        previous_span_id = None
        first = not completed
        duplicates: list[tuple[int, int]] = []
        for params in grid:
            key = (params.k, params.l)
            if key in study.results:
                # A grid like ks=(10, 10, 8) repeats settings: each runs
                # once, and every skip is counted on the metrics.
                duplicates.append(key)
                if obs.enabled:
                    obs.metrics.counter("study.duplicate_settings").inc()
                continue
            if key in completed:
                # Saved by the interrupted run; the master RNG restored
                # from its manifest already reflects this setting's draws.
                study.results[key] = completed[key]
                study.total_stats = study.total_stats.merge(
                    completed[key].stats
                )
                continue
            initial = None
            if (
                level >= ReuseLevel.WARM_START
                and previous_best is not None
                and params.k <= len(previous_best)
            ):
                if params.k == len(previous_best):
                    initial = previous_best.copy()
                else:
                    initial = master.generator.choice(
                        previous_best, size=params.k, replace=False
                    )
            charge_greedy = level <= ReuseLevel.PARTIAL_RESULTS or first
            # Shared-work reuse shows up in the trace as links: every
            # setting links to the shared-state span it consumes, and a
            # warm-started setting links to the setting that seeded it.
            setting_span = obs.span(
                "setting", category="study",
                k=params.k, l=params.l,
                warm_start=initial is not None,
                charge_greedy=charge_greedy,
            )
            setting_span.link(shared_span_id)
            if initial is not None:
                setting_span.link(previous_span_id)
            with setting_span:
                setting = dict(
                    params=params,
                    seed=master.spawn(),
                    shared_state=shared,
                    initial_medoids=initial,
                    charge_greedy=charge_greedy,
                )
                if runner is None:
                    engine = engine_factory(**setting, **engine_kwargs)
                    result = engine.fit(data)
                    best = engine.best_positions_
                else:
                    outcome = runner.fit(
                        data, backend=backend, engine_kwargs=engine_kwargs,
                        **setting,
                    )
                    setting_span.set(
                        attempts=outcome.attempts,
                        degraded=outcome.degraded,
                        backend_used=outcome.backend,
                    )
                    study.events.extend(outcome.events)
                    result, best = outcome.result, outcome.best_positions
            study.results[key] = result
            study.total_stats = study.total_stats.merge(result.stats)
            if level >= ReuseLevel.WARM_START:
                previous_best = best
            previous_span_id = setting_span.span_id
            first = False
            if checkpoint is not None:
                study.events.append(checkpoint.record_setting(
                    params.k, params.l, outcome, master, previous_best, shared,
                ))
        _warn_duplicate_settings(duplicates)
        study.total_stats.backend = engine_factory.backend_name
        return study
