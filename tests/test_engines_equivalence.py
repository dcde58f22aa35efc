"""Cross-variant equivalence: the paper's central correctness claim.

"GPU-PROCLUS and all the algorithmic strategies produce the same
clustering as PROCLUS" — with the shared randomness protocol and exact
accumulation, the clusterings are *bitwise identical*, which these
tests verify across datasets, parameters, and seeds, including with
property-based generation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import BACKENDS, proclus
from repro.data.normalize import minmax_normalize
from repro.data.synthetic import generate_subspace_data
from repro.params import ProclusParams

ALL = sorted(BACKENDS)


#: Backends whose ``X`` the engine-level property compares with
#: ``proclus``'s; the fleet ones run on 3 devices.
X_BACKENDS = (
    "fast", "fast-star", "gpu", "gpu-fast", "gpu-fast-star",
    "fleet-gpu", "fleet-gpu-fast",
)


def x_per_call(backend, data, params, seed):
    """Every ``X`` a ``backend`` fit hands ``_find_dimensions``, in order:
    one per iteration, then the refinement's."""
    seen = []

    class Recording(BACKENDS[backend]):
        def _find_dimensions(self, x):
            seen.append(x.copy())
            return super()._find_dimensions(x)

    kwargs = {"fleet": 3} if backend.startswith("fleet-") else {}
    Recording(params=params, seed=seed, **kwargs).fit(data)
    return seen


def run_all(data, params, seed):
    return {
        name: proclus(data, backend=name, params=params, seed=seed)
        for name in ALL
    }


class TestIdenticalClusterings:
    def test_all_backends_identical_small(self, small_dataset, small_params):
        data, _ = small_dataset
        results = run_all(data, small_params, seed=0)
        base = results["proclus"]
        for name, r in results.items():
            assert r.same_clustering(base), f"{name} diverged from baseline"
            assert r.cost == base.cost
            assert r.refined_cost == base.refined_cost
            assert r.iterations == base.iterations
            assert r.best_iteration == base.best_iteration

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_identical_across_seeds(self, small_dataset, small_params, seed):
        data, _ = small_dataset
        results = run_all(data, small_params, seed=seed)
        base = results["proclus"]
        for name, r in results.items():
            assert r.same_clustering(base), f"{name} diverged at seed {seed}"

    @pytest.mark.parametrize(
        "params",
        [
            ProclusParams(k=2, l=2, a=20, b=3),
            ProclusParams(k=6, l=4, a=20, b=8),
            ProclusParams(k=3, l=5, a=50, b=2, min_deviation=0.9),
            ProclusParams(k=4, l=3, a=30, b=5, patience=2),
            ProclusParams(k=4, l=3, a=30, b=5, min_deviation=0.3),
        ],
    )
    def test_identical_across_parameters(self, medium_dataset, params):
        data, _ = medium_dataset  # d = 12
        results = run_all(data, params, seed=7)
        base = results["proclus"]
        for name, r in results.items():
            assert r.same_clustering(base), f"{name} diverged for {params}"

    def test_rng_consumption_identical(self, small_dataset, small_params):
        """All variants must draw randomness the same number of times."""
        from repro.rng import RandomSource

        data, _ = small_dataset
        counts = {}
        for name in ALL:
            rng = RandomSource(3)
            proclus(data, backend=name, params=small_params, seed=rng)
            counts[name] = rng.draw_count
        assert len(set(counts.values())) == 1, counts


class TestPropertyBasedEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(80, 400),
        d=st.integers(4, 10),
        clusters=st.integers(2, 5),
        seed=st.integers(0, 1_000),
        algo_seed=st.integers(0, 1_000),
    )
    def test_cpu_variants_identical_on_random_data(
        self, n, d, clusters, seed, algo_seed
    ):
        ds = generate_subspace_data(
            n=n, d=d, n_clusters=clusters,
            subspace_dims=min(3, d), seed=seed,
        )
        data = minmax_normalize(ds.data)
        params = ProclusParams(k=clusters, l=min(3, d), a=15, b=4)
        base = proclus(data, backend="proclus", params=params, seed=algo_seed)
        for name in ("fast", "fast-star", "gpu", "gpu-fast", "gpu-fast-star"):
            other = proclus(data, backend=name, params=params, seed=algo_seed)
            assert other.same_clustering(base)
            assert other.cost == base.cost

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(80, 400),
        d=st.integers(4, 10),
        clusters=st.integers(2, 5),
        seed=st.integers(0, 1_000),
        algo_seed=st.integers(0, 1_000),
    )
    def test_x_bit_identical_across_backends(
        self, n, d, clusters, seed, algo_seed
    ):
        """Every ``X`` a fit hands FindDimensions has the same bits on
        every backend: the full-sphere sums, the incremental ``H`` and
        the fleet's merged shard partials."""
        ds = generate_subspace_data(
            n=n, d=d, n_clusters=clusters,
            subspace_dims=min(3, d), seed=seed,
        )
        data = minmax_normalize(ds.data)
        params = ProclusParams(k=clusters, l=min(3, d), a=15, b=4)
        base = x_per_call("proclus", data, params, algo_seed)
        for name in X_BACKENDS:
            got = x_per_call(name, data, params, algo_seed)
            assert len(got) == len(base) > 1, name
            for x, ref in zip(got, base):
                assert x.dtype == ref.dtype and x.tobytes() == ref.tobytes(), name

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_duplicate_points_do_not_break_equivalence(self, seed):
        """Duplicate rows create zero distances and exact ties."""
        rng = np.random.default_rng(seed)
        base_points = rng.random((40, 5), dtype=np.float32)
        data = np.vstack([base_points, base_points, base_points])
        params = ProclusParams(k=3, l=3, a=10, b=3)
        ref = proclus(data, backend="proclus", params=params, seed=seed)
        for name in ("fast", "fast-star", "gpu-fast"):
            assert proclus(data, backend=name, params=params, seed=seed).same_clustering(ref)


class TestWorkReduction:
    """FAST must perform strictly less distance work than the baseline."""

    def test_fast_computes_fewer_distance_rows(self, medium_dataset):
        data, _ = medium_dataset
        params = ProclusParams(k=5, l=3, a=40, b=6)
        base = proclus(data, backend="proclus", params=params, seed=1)
        fast = proclus(data, backend="fast", params=params, seed=1)
        # Same iterations, identical clustering...
        assert fast.same_clustering(base)
        # ...but fewer vector ops (distance recomputation avoided).
        assert (
            fast.stats.counters["cpu.vector_ops"]
            < base.stats.counters["cpu.vector_ops"]
        )

    def test_fast_never_computes_more_rows_than_potential_medoids(
        self, medium_dataset
    ):
        from repro.core.fast import FastProclusEngine

        data, _ = medium_dataset
        params = ProclusParams(k=5, l=3, a=40, b=6)
        engine = FastProclusEngine(params=params, seed=1)
        engine.fit(data)
        # Every potential medoid's distances are computed at most once.
        assert engine._cache.dist_found.sum() <= params.num_potential_medoids

    def test_gpu_fast_modeled_time_not_slower_than_gpu(self, medium_dataset):
        data, _ = medium_dataset
        params = ProclusParams(k=5, l=3, a=40, b=6)
        gpu = proclus(data, backend="gpu", params=params, seed=1)
        fast = proclus(data, backend="gpu-fast", params=params, seed=1)
        assert fast.stats.modeled_seconds <= gpu.stats.modeled_seconds
