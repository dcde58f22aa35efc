"""Template engine shared by every PROCLUS variant.

:class:`EngineBase.fit` implements Algorithm 1 (initialization,
iterative, refinement phases).  Variants differ in exactly two places:

* :meth:`EngineBase._compute_l_and_x` — how the sphere sets ``L_i`` and
  the average-distance matrix ``X`` are obtained.  Each variant only
  chooses which distance rows to compute and which ``X`` step to run;
  the steps are written once: the ``δ`` step and the full-sphere ``X``
  here, the cached-row fill and the incremental ``H`` update in
  :class:`~repro.core.fast.FastProclusEngine`;
* the ``_account_*`` hooks — how performed work is charged to a
  hardware cost model (scalar CPU here; multi-core and per-kernel GPU
  accounting in the subclasses).

The SIMT-emulated engines (:mod:`repro.gpu_impl.emulated_engine`) run
this same loop and launch their kernels in its hooks, the host steps
:meth:`EngineBase._find_dimensions`, :meth:`EngineBase._cluster_x` and
:meth:`EngineBase._find_outliers` included.

Because the *math* is shared and all accumulations are exact
(:mod:`repro.core.distance`), every variant produces an identical
clustering for the same seed — the paper's correctness claim.
"""

from __future__ import annotations

import abc
import math
import time

import numpy as np

from pathlib import Path

from ..exceptions import CheckpointError, DataValidationError, ParameterError
from ..hardware.cost_model import HardwareModel, ScalarCpuModel
from ..hardware.specs import CpuSpec, cpu_for_problem
from ..obs.tracer import Tracer, current_run
from ..params import ProclusParams
from ..result import OUTLIER_LABEL, ProclusResult, RunStats
from ..rng import RandomSource
from .distance import abs_diff_dim_sums, euclidean_to_point
from .greedy import draw_potential_medoids
from .phases import (
    assign_points,
    cluster_sizes_from_labels,
    compute_bad_medoids,
    evaluate_clusters,
    find_dimensions,
    find_outliers,
)
from .state import IterativeState, SharedStudyState
from .trace import RunTrace

__all__ = ["EngineBase", "validate_data"]

#: Arithmetic operations per distance term (subtract, square/abs, add).
OPS_PER_TERM = 3


def validate_data(data: np.ndarray) -> np.ndarray:
    """Validate and canonicalize an input dataset.

    Returns a C-contiguous float32 ``(n, d)`` array.  The library
    expects min-max normalized data (values in ``[0, 1]``) for the
    exact-accumulation guarantee; other finite values still cluster
    correctly but cross-variant bitwise equality is no longer ensured.
    """
    array = np.asarray(data)
    if array.ndim != 2 or array.shape[0] < 1 or array.shape[1] < 1:
        raise DataValidationError(
            f"expected a non-empty 2-D (n, d) array, got shape {array.shape}"
        )
    if not np.issubdtype(array.dtype, np.number):
        raise DataValidationError(f"expected numeric data, got dtype {array.dtype}")
    array = np.ascontiguousarray(array, dtype=np.float32)
    if not np.all(np.isfinite(array)):
        raise DataValidationError("dataset contains NaN or infinite values")
    return array


class EngineBase(abc.ABC):
    """One PROCLUS run: construct, :meth:`fit` once, read the result."""

    #: Variant name reported in :class:`~repro.result.RunStats`.
    backend_name = "base"

    def __init__(
        self,
        params: ProclusParams | None = None,
        seed: int | RandomSource | None = 0,
        cpu_spec: CpuSpec | None = None,
        shared_state: SharedStudyState | None = None,
        initial_medoids: np.ndarray | None = None,
        charge_greedy: bool = True,
        collect_trace: bool = False,
        checkpoint_every: int = 0,
        checkpoint_path: str | Path | None = None,
        resume_from: IterativeState | str | Path | None = None,
    ) -> None:
        """
        Parameters
        ----------
        params:
            Algorithm parameters (paper defaults when omitted).
        seed:
            Seed or :class:`~repro.rng.RandomSource` driving every
            random decision.
        cpu_spec:
            CPU to model; chosen per problem size when omitted.
        shared_state:
            Multi-parameter study state (sample, medoids, caches) to
            reuse instead of sampling afresh (Section 3.1).
        initial_medoids:
            Positions into ``M`` to use as the initial ``MCur`` (the
            "multi-param 3" warm start); random when omitted.
        charge_greedy:
            Whether to charge the greedy pick's cost to the model.
            "multi-param 1" re-runs greedy (cost charged, same result);
            "multi-param 2" skips it entirely (not charged).
        collect_trace:
            Record a per-iteration :class:`~repro.core.trace.RunTrace`
            in :attr:`trace_` (costs, improvements, medoid churn).
        checkpoint_every:
            When > 0, write an engine checkpoint to ``checkpoint_path``
            after every that-many completed iterations of the iterative
            phase.
        checkpoint_path:
            Where checkpoints go (``.npz``); required when
            ``checkpoint_every`` is set.
        resume_from:
            An :class:`~repro.core.state.IterativeState` (or a path to
            a saved one) to continue from instead of starting fresh.
            The snapshot may come from *any* backend: caches are not
            part of it and are rebuilt, provably with identical values.
        """
        self.params = params if params is not None else ProclusParams()
        self.rng = seed if isinstance(seed, RandomSource) else RandomSource(seed)
        self._cpu_spec = cpu_spec
        self.shared_state = shared_state
        self.initial_medoids = initial_medoids
        self.charge_greedy = charge_greedy
        if not isinstance(checkpoint_every, int) or isinstance(checkpoint_every, bool):
            raise ParameterError(
                f"checkpoint_every must be an int, "
                f"got {type(checkpoint_every).__name__}"
            )
        if checkpoint_every < 0:
            raise ParameterError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if checkpoint_every > 0 and checkpoint_path is None:
            raise ParameterError(
                "checkpoint_every requires a checkpoint_path to write to"
            )
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.resume_from = resume_from
        self.model: HardwareModel | None = None
        self.trace_: RunTrace | None = RunTrace() if collect_trace else None
        #: The run's tracer when fit() is entered (see
        #: :func:`repro.obs.use_run`; a disabled no-op by default).
        self._obs: Tracer = current_run().tracer
        self._fitted = False

    # ------------------------------------------------------------------
    # Hooks a variant may override
    # ------------------------------------------------------------------
    def _make_model(self, n: int, d: int) -> HardwareModel:
        """Create the hardware cost model for this run."""
        spec = self._cpu_spec if self._cpu_spec is not None else cpu_for_problem(n)
        return ScalarCpuModel(spec)

    def _setup(self, data: np.ndarray) -> None:
        """Variant-specific preparation (cache/device allocation)."""

    def _teardown(self) -> None:
        """Variant-specific cleanup (free device memory)."""

    @abc.abstractmethod
    def _compute_l_and_x(
        self, mcur: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """ComputeL + the ``X`` averages for the current medoids.

        ``mcur`` holds positions into ``M``.  Returns ``(x, sizes)``:
        the ``(k, d)`` float64 average-distance matrix and the ``(k,)``
        sphere sizes ``|L_i|``.
        """

    # ------------------------------------------------------------------
    # ComputeL steps (Algorithm 3) the variants compose
    # ------------------------------------------------------------------
    def _delta(self, dist: np.ndarray, medoid_ids: np.ndarray) -> np.ndarray:
        """``δ_i``: each current medoid's distance to its nearest other.

        ``dist`` holds the current medoids' distance rows, in the order
        of their point ids ``medoid_ids``.
        """
        medoid_dist = dist[:, medoid_ids]
        np.fill_diagonal(medoid_dist, np.inf)
        delta = medoid_dist.min(axis=1)
        self._account_delta(len(medoid_ids))
        return delta

    def _full_sphere_x(
        self, dist: np.ndarray, medoid_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``X`` and ``|L_i|`` summed afresh over every sphere (no ``H``).

        ``dist`` and ``medoid_ids`` are as for :meth:`_delta`, whose
        radii bound the spheres.
        """
        masks = dist <= self._delta(dist, medoid_ids)[:, None]
        sizes = np.count_nonzero(masks, axis=1)
        medoid_points = self._data[medoid_ids]
        x = np.empty(medoid_points.shape, dtype=np.float64)
        for i, mask in enumerate(masks):
            x[i] = self._dim_sums(mask, medoid_points[i]) / sizes[i]
        self._account_l_and_x(int(sizes.sum()))
        return x, sizes

    def _modeled_peak_bytes(self) -> int:
        """Peak working-set estimate of the modeled implementation."""
        n, d = self._data.shape
        k = self.params.k
        # data + one distance row set + labels
        return n * d * 4 + self.params.k * n * 4 + n * 4 + k * d * 8

    # ------------------------------------------------------------------
    # CPU accounting (subclasses with other hardware override these)
    # ------------------------------------------------------------------
    def _account_greedy(self, s: int, count: int, d: int) -> None:
        self.model.work(
            "initialization",
            vector_ops=count * s * OPS_PER_TERM * d,
            scalar_ops=count * s * 2,
        )

    def _count_distance_cache(self, rows: int) -> None:
        """Count recomputed vs cache-served distance rows this iteration.

        ``rows`` of the ``k`` needed rows were recomputed; the rest came
        out of the ``Dist`` cache.  The baseline recomputes all ``k``
        every iteration (0 % hit-rate); the FAST variants converge to
        ~100 %.  Feeds the ``cache hit-rate`` counter track.
        """
        k = self.params.k
        self.model.counter.add("cache.dist_rows_missed", min(rows, k))
        self.model.counter.add("cache.dist_rows_hit", max(0, k - rows))

    def _account_distance_rows(self, rows: int, n: int, d: int) -> None:
        self._count_distance_cache(rows)
        self.model.work("compute_l", vector_ops=rows * n * OPS_PER_TERM * d)

    def _account_delta(self, k: int) -> None:
        self.model.work("compute_l", scalar_ops=k * k * 2)

    def _account_scan_l(self, n: int, k: int, appended: int) -> None:
        self.model.work("compute_l", scalar_ops=n * k * 2 + appended)

    def _account_x_sums(self, points: int, d: int, k: int) -> None:
        self.model.work("find_dimensions", vector_ops=points * OPS_PER_TERM * d)

    def _account_x_finalize(self, k: int, d: int) -> None:
        self.model.work("find_dimensions", scalar_ops=k * d)

    def _account_l_and_x(self, points: int) -> None:
        """Charge the ``L`` scan and the ``X`` sums over ``points`` points."""
        n, d = self._data.shape
        k = self.params.k
        self._account_scan_l(n, k, points)
        self._account_x_sums(points, d, k)
        self._account_x_finalize(k, d)

    def _account_find_dimensions(self, k: int, d: int) -> None:
        kd = k * d
        self.model.work(
            "find_dimensions",
            scalar_ops=kd * 8 + kd * max(1.0, math.log2(kd)),
        )

    def _account_assign(self, n: int, k: int, total_dims: int, d: int) -> None:
        # The segmental-distance loop gathers the |D_i| selected
        # dimensions (indexed access), which the compiler cannot
        # vectorize — scalar throughput applies.
        self.model.work(
            "assign_points",
            scalar_ops=n * total_dims * OPS_PER_TERM + n * k,
        )

    def _account_evaluate(
        self, member_dims: int, total_dims: int, k: int, d: int
    ) -> None:
        # Two passes over each cluster member's subspace dimensions
        # (centroid, then deviations); gathered access -> scalar.
        self.model.work(
            "evaluate",
            scalar_ops=member_dims * OPS_PER_TERM * 2 + k * d,
        )

    def _account_bookkeeping(self, k: int) -> None:
        self.model.work("update", scalar_ops=k * 8)

    def _account_refinement_x(self, n: int, d: int, k: int) -> None:
        self.model.work("refinement", vector_ops=n * OPS_PER_TERM * d)

    def _account_outliers(self, n: int, k: int, total_dims: int) -> None:
        self.model.work(
            "refinement",
            scalar_ops=k * total_dims * OPS_PER_TERM + n * k,
        )

    def _record_iteration_samples(self) -> None:
        """Emit per-iteration counter-track samples to the tracer.

        Called at the end of every iteration of the iterative phase;
        the GPU variants sample cache hit-rate and modeled bandwidth
        onto the device timeline here.  No-op by default.
        """

    # ------------------------------------------------------------------
    # Data-parallel primitives (the fleet backends shard these)
    # ------------------------------------------------------------------
    # Every primitive is row-local over the n points, so a sharded
    # override may compute per-shard pieces and concatenate (rows) or
    # merge exact partial sums (dim sums) and remain bit-identical to
    # the solo implementation.  All of them read the fit's column-major
    # copy ``self._columns``.
    def _distance_row(self, point: np.ndarray) -> np.ndarray:
        """Euclidean distances from every data point to ``point``."""
        return euclidean_to_point(self._columns, point)

    def _dim_sums(self, mask: np.ndarray, point: np.ndarray) -> np.ndarray:
        """Per-dimension |x - point| sums over ``data[mask]`` (exact)."""
        return abs_diff_dim_sums(self._columns, point, np.flatnonzero(mask))

    def _assign_points(
        self, medoid_points: np.ndarray, dims: list
    ) -> tuple[np.ndarray, np.ndarray]:
        """Assign every point to its nearest medoid's subspace.

        A medoid that the previous call of this fit also had, with the
        same subspace, at any slot, gets that call's distance row
        copied (:func:`~repro.core.distance.segmental_distances`).
        """
        labels, seg = assign_points(
            self._columns, medoid_points, dims, self._last_assign
        )
        self._last_assign = (medoid_points, dims, seg)
        return labels, seg

    def _evaluate_clusters(self, labels: np.ndarray, dims: list) -> float:
        """Average within-cluster subspace deviation (Definition 1)."""
        return evaluate_clusters(self._columns, labels, dims)

    # ------------------------------------------------------------------
    # Host steps of the loop (the emulated engines launch kernels here)
    # ------------------------------------------------------------------
    def _find_dimensions(self, x: np.ndarray) -> tuple[tuple[int, ...], ...]:
        """FindDimensions: the subspaces ``D_i`` of the ``(k, d)`` ``X``."""
        return find_dimensions(x, self.params.l)

    def _cluster_x(
        self, labels: np.ndarray, medoid_points: np.ndarray
    ) -> np.ndarray:
        """The refinement's ``X``: each medoid's average distance per
        dimension over its cluster in ``labels`` (zeros when empty)."""
        k, d = medoid_points.shape
        masks = labels == np.arange(k)[:, None]
        counts = np.count_nonzero(masks, axis=1)
        x = np.zeros((k, d), dtype=np.float64)
        for i in np.flatnonzero(counts):
            x[i] = self._dim_sums(masks[i], medoid_points[i]) / counts[i]
        return x

    def _find_outliers(
        self, seg: np.ndarray, medoid_points: np.ndarray, dims: list
    ) -> np.ndarray:
        """The refinement's outlier mask; ``seg`` is the second output
        of :meth:`_assign_points`."""
        return find_outliers(seg, medoid_points, dims)

    # ------------------------------------------------------------------
    # The algorithm (Algorithm 1)
    # ------------------------------------------------------------------
    def fit(self, data: np.ndarray) -> ProclusResult:
        """Run PROCLUS on ``data`` and return the clustering."""
        if self._fitted:
            raise RuntimeError(
                "engine instances are single-use; construct a new engine"
            )
        self._fitted = True
        started = time.perf_counter()

        data = validate_data(data)
        n, d = data.shape
        p = self.params
        p.validate_against_data(n, d)
        self._data = data
        # One column-major copy per fit, dropped with it: ``.T`` is a
        # free (d, n) view with contiguous dimension rows, the layout
        # the data-parallel primitives read (repro.core.distance).
        self._columns = np.asfortranarray(data)
        #: The last ``_assign_points`` call's medoids, subspaces and
        #: ``seg``, whose rows the next call may reuse.
        self._last_assign = None
        obs = self._obs = current_run().tracer
        with obs.span(
            "fit", category="run",
            backend=self.backend_name, n=n, d=d, k=p.k, l=p.l,
        ) as fit_span:
            self.model = self._make_model(n, d)
            with obs.span("setup"):
                self._setup(data)
            try:
                result = self._run(data, started)
            finally:
                self._teardown()
                self._columns = self._last_assign = None
            fit_span.set(
                cost=result.cost,
                iterations=result.iterations,
                modeled_seconds=result.stats.modeled_seconds,
            )
            if obs.enabled:
                obs.metrics.absorb_run_stats(result.stats)
                obs.metrics.absorb_kernel_times(self.model)
        return result

    def _initialization_phase(self, data: np.ndarray) -> np.ndarray:
        """Sample ``Data'``, greedily pick ``M``; returns point ids of M."""
        d = data.shape[1]
        if self.shared_state is not None:
            if self.charge_greedy:
                s = len(self.shared_state.sample_indices)
                self._account_greedy(s, self.shared_state.num_potential_medoids, d)
            return self.shared_state.medoid_ids
        sample_indices, medoid_ids = draw_potential_medoids(
            data, self.params, self.rng
        )
        self._account_greedy(len(sample_indices), len(medoid_ids), d)
        return medoid_ids

    def _resolve_resume(self, n: int, d: int) -> IterativeState | None:
        """Load and validate the ``resume_from`` snapshot, if any."""
        source = self.resume_from
        if source is None:
            return None
        if isinstance(source, IterativeState):
            state = source
        else:
            from .serialization import load_engine_state

            state = load_engine_state(source)
        p = self.params
        if (state.n, state.d) != (n, d):
            raise CheckpointError(
                f"checkpoint was written for a ({state.n}, {state.d}) "
                f"dataset, got ({n}, {d}); refusing to resume"
            )
        if (state.k, state.l) != (p.k, p.l):
            raise CheckpointError(
                f"checkpoint was written for k={state.k} l={state.l}, "
                f"got k={p.k} l={p.l}; refusing to resume"
            )
        return state

    def _write_iterative_checkpoint(
        self, n, d, mcur, mbest, cost_best, labels_best,
        sizes_best, best_iteration, stale, total,
    ) -> None:
        from .serialization import save_engine_state

        state = IterativeState(
            n=n,
            d=d,
            k=self.params.k,
            l=self.params.l,
            backend=self.backend_name,
            medoid_ids=np.asarray(self._medoid_ids),
            mcur=mcur,
            mbest=mbest,
            cost_best=float(cost_best),
            labels_best=labels_best,
            sizes_best=sizes_best,
            best_iteration=best_iteration,
            stale=stale,
            total=total,
            rng_state=self.rng.get_state(),
        )
        obs = self._obs
        with obs.span(
            "checkpoint", category="resilience",
            iteration=total, path=str(self.checkpoint_path),
        ):
            save_engine_state(state, self.checkpoint_path)
        if obs.enabled:
            obs.metrics.counter("resilience.checkpoints").inc()

    def _run(self, data: np.ndarray, started: float) -> ProclusResult:
        n, d = data.shape
        p = self.params
        k = p.k
        obs = self._obs

        resume = self._resolve_resume(n, d)
        if resume is not None:
            # The snapshot holds M and the full loop state; the
            # initialization phase's work was already paid for before
            # the original run died, so it is neither re-run nor
            # re-charged.  Caches are rebuilt lazily with provably
            # identical values.
            self._medoid_ids = resume.medoid_ids.copy()
        else:
            with obs.span("initialization"):
                self._medoid_ids = self._initialization_phase(data)
        m = len(self._medoid_ids)

        if resume is not None:
            mcur = resume.mcur.copy()
        elif self.initial_medoids is not None:
            mcur = np.asarray(self.initial_medoids, dtype=np.int64).copy()
            if len(mcur) != k or len(np.unique(mcur)) != k:
                raise DataValidationError(
                    f"initial_medoids must hold {k} distinct positions into M"
                )
        else:
            mcur = self.rng.initial_medoids(m, k)

        # --- iterative phase -----------------------------------------
        cost_best = math.inf
        mbest = mcur.copy()
        labels_best: np.ndarray | None = None
        sizes_best: np.ndarray | None = None
        best_iteration = 0
        stale = 0
        total = 0
        if resume is not None:
            cost_best = resume.cost_best
            mbest = resume.mbest.copy()
            labels_best = resume.labels_best.copy()
            sizes_best = resume.sizes_best.copy()
            best_iteration = resume.best_iteration
            stale = resume.stale
            total = resume.total
            self.rng.set_state(resume.rng_state)
        with obs.span("iterative") as iterative_span:
            while stale < p.patience and total < p.max_iterations:
                with obs.span("iteration", iteration=total) as iteration_span:
                    with obs.span("compute_l"):
                        x, _sizes_l = self._compute_l_and_x(mcur)

                    with obs.span("find_dimensions"):
                        dims = self._find_dimensions(x)
                        self._account_find_dimensions(k, d)

                    with obs.span("assign_points"):
                        medoid_points = data[self._medoid_ids[mcur]]
                        labels, _seg = self._assign_points(medoid_points, dims)
                        total_dims = sum(len(ds) for ds in dims)
                        self._account_assign(n, k, total_dims, d)

                    with obs.span("evaluate"):
                        cost = self._evaluate_clusters(labels, dims)
                        sizes = cluster_sizes_from_labels(labels, k)
                        member_dims = int(
                            sum(sizes[i] * len(dims[i]) for i in range(k))
                        )
                        self._account_evaluate(member_dims, total_dims, k, d)

                    total += 1
                    stale += 1
                    if cost < cost_best:
                        cost_best = cost
                        mbest = mcur.copy()
                        labels_best = labels
                        sizes_best = sizes
                        best_iteration = total - 1
                        stale = 0

                    with obs.span("update"):
                        bad = compute_bad_medoids(
                            sizes_best, n, p.min_deviation, p.bad_medoid_rule
                        )
                        self._account_bookkeeping(k)

                        if self.trace_ is not None:
                            self.trace_.append(
                                iteration=total - 1,
                                cost=cost,
                                improved=stale == 0,
                                best_cost=cost_best,
                                medoid_positions=mcur,
                                cluster_sizes=sizes,
                                bad_medoids=bad,
                            )

                        free = np.ones(m, dtype=bool)
                        free[mbest] = False
                        candidates = np.flatnonzero(free)
                        replace = min(len(bad), len(candidates))
                        mcur = mbest.copy()
                        if replace > 0:
                            replacements = self.rng.replacement_medoids(
                                candidates, replace
                            )
                            mcur[bad[:replace]] = replacements

                    iteration_span.set(cost=float(cost), improved=stale == 0)
                    self._record_iteration_samples()
                if self.checkpoint_every and total % self.checkpoint_every == 0:
                    self._write_iterative_checkpoint(
                        n, d, mcur, mbest, cost_best, labels_best,
                        sizes_best, best_iteration, stale, total,
                    )
            iterative_span.set(iterations=total)

        # --- refinement phase ----------------------------------------
        assert labels_best is not None
        with obs.span("refinement") as refinement_span:
            with obs.span("find_dimensions"):
                medoid_points = data[self._medoid_ids[mbest]]
                x_ref = self._cluster_x(labels_best, medoid_points)
                self._account_refinement_x(n, d, k)
                dims = self._find_dimensions(x_ref)
                self._account_find_dimensions(k, d)

            with obs.span("assign_points"):
                labels, seg = self._assign_points(medoid_points, dims)
                total_dims = sum(len(ds) for ds in dims)
                self._account_assign(n, k, total_dims, d)

            with obs.span("outliers"):
                outliers = self._find_outliers(seg, medoid_points, dims)
                self._account_outliers(n, k, total_dims)
                labels = labels.copy()
                labels[outliers] = OUTLIER_LABEL

            with obs.span("evaluate"):
                refined_cost = self._evaluate_clusters(labels, dims)
                sizes = cluster_sizes_from_labels(labels, k)
                member_dims = int(sum(sizes[i] * len(dims[i]) for i in range(k)))
                self._account_evaluate(member_dims, total_dims, k, d)
            refinement_span.set(refined_cost=float(refined_cost))

        # Positions of the best medoids within M — the multi-parameter
        # warm start ("multi-param 3") seeds the next setting with these.
        self.best_positions_ = mbest.copy()

        stats = RunStats(
            counters=self.model.counter.as_dict(),
            phase_seconds=dict(self.model.phase_seconds),
            modeled_seconds=self.model.total_seconds,
            wall_seconds=time.perf_counter() - started,
            peak_device_bytes=self._modeled_peak_bytes(),
            iterations=total,
            backend=self.backend_name,
            hardware=self.model.name,
        )
        return ProclusResult(
            labels=labels,
            medoids=self._medoid_ids[mbest].copy(),
            dimensions=dims,
            cost=float(cost_best),
            refined_cost=float(refined_cost),
            iterations=total,
            best_iteration=best_iteration,
            stats=stats,
            trace=self.trace_,
        )
