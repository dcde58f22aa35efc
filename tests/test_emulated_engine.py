"""End-to-end validation: PROCLUS on the SIMT emulator vs the engines.

Running the complete algorithm kernel-for-kernel on the emulator and
getting the identical clustering is the strongest evidence that the
vectorized engines compute what the paper's CUDA program computes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BACKENDS, load_engine_state, proclus
from repro.exceptions import TransientDeviceError
from repro.gpu_impl.emulated_engine import (
    EmulatedGpuFastProclusEngine,
    EmulatedGpuFastStarProclusEngine,
    EmulatedGpuProclusEngine,
)
from repro.obs import use_run
from repro.params import ProclusParams
from repro.resilience import FaultInjector


@pytest.fixture(scope="module")
def tiny():
    from repro.data.normalize import minmax_normalize
    from repro.data.synthetic import generate_subspace_data

    ds = generate_subspace_data(n=120, d=6, n_clusters=3, subspace_dims=3, seed=5)
    return minmax_normalize(ds.data)


@pytest.fixture
def params():
    return ProclusParams(k=3, l=3, a=15, b=4, patience=3)


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_vectorized_backends(self, tiny, params, seed):
        reference = proclus(tiny, backend="proclus", params=params, seed=seed)
        engine = EmulatedGpuProclusEngine(params=params, seed=seed)
        emulated = engine.fit(tiny)
        assert emulated.same_clustering(reference)
        assert emulated.iterations == reference.iterations
        assert emulated.best_iteration == reference.best_iteration
        assert emulated.cost == pytest.approx(reference.cost, rel=1e-12)

    def test_schedule_shuffling_does_not_change_result(self, tiny, params):
        plain = EmulatedGpuProclusEngine(params=params, seed=3).fit(tiny)
        shuffled = EmulatedGpuProclusEngine(
            params=params, seed=3, schedule_seed=99
        ).fit(tiny)
        assert plain.same_clustering(shuffled)

    def test_reports_kernel_launches(self, tiny, params):
        engine = EmulatedGpuProclusEngine(params=params, seed=0)
        result = engine.fit(tiny)
        # Greedy alone launches 2 per pick; each iteration several more.
        assert result.stats.counters["emulator.kernel_launches"] > 20
        assert result.stats.hardware == "SIMT emulator"

    def test_outliers_match_reference(self, tiny, params):
        reference = proclus(tiny, backend="fast", params=params, seed=1)
        emulated = EmulatedGpuProclusEngine(params=params, seed=1).fit(tiny)
        assert np.array_equal(
            emulated.labels == -1, reference.labels == -1
        )


class TestEmulatedGpuFast:
    """Section 4.2's kernel pipeline, end to end on the emulator."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_vectorized_fast(self, tiny, params, seed):
        reference = proclus(tiny, backend="fast", params=params, seed=seed)
        emulated = EmulatedGpuFastProclusEngine(params=params, seed=seed).fit(tiny)
        assert emulated.same_clustering(reference)
        assert emulated.iterations == reference.iterations
        assert emulated.cost == pytest.approx(reference.cost, rel=1e-12)

    def test_matches_plain_emulated_engine(self, tiny, params):
        plain = EmulatedGpuProclusEngine(params=params, seed=4).fit(tiny)
        fast = EmulatedGpuFastProclusEngine(params=params, seed=4).fit(tiny)
        assert fast.same_clustering(plain)

    def test_shuffled_schedule_stable(self, tiny, params):
        a = EmulatedGpuFastProclusEngine(params=params, seed=5).fit(tiny)
        b = EmulatedGpuFastProclusEngine(
            params=params, seed=5, schedule_seed=17
        ).fit(tiny)
        assert a.same_clustering(b)

    def test_dist_found_rows_bounded(self, tiny, params):
        engine = EmulatedGpuFastProclusEngine(params=params, seed=0)
        engine.fit(tiny)
        m = params.effective_num_potential(tiny.shape[0])
        assert engine._cache.dist_found.sum() <= m
        assert engine._cache.dist_found.sum() >= params.k


class TestEmulatedGpuFastStar:
    """The k-slot cache pipeline (Section 3.2) on the emulator."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_vectorized_fast_star(self, tiny, params, seed):
        reference = proclus(tiny, backend="fast-star", params=params, seed=seed)
        emulated = EmulatedGpuFastStarProclusEngine(
            params=params, seed=seed
        ).fit(tiny)
        assert emulated.same_clustering(reference)
        assert emulated.iterations == reference.iterations

    def test_slot_state_bounded_to_k(self, tiny, params):
        engine = EmulatedGpuFastStarProclusEngine(params=params, seed=0)
        engine.fit(tiny)
        assert engine._cache.dist.shape[0] == params.k
        assert engine._cache.h.shape[0] == params.k


@pytest.mark.parametrize(
    "engine",
    [
        EmulatedGpuProclusEngine,
        EmulatedGpuFastProclusEngine,
        EmulatedGpuFastStarProclusEngine,
    ],
    ids=lambda engine: engine.backend_name,
)
class TestCheckpointAndResume:
    """The emulated engines checkpoint and resume like every backend:
    seed 1 runs 9 iterations on ``tiny``, and a resumed run continues
    from the snapshot's RNG state whatever seed it was built with."""

    def test_killed_run_writes_a_checkpoint_that_resumes(
        self, tiny, params, engine, tmp_path
    ):
        reference = proclus(tiny, backend="proclus", params=params, seed=1)
        probe = FaultInjector(["launch#999999999"])
        with use_run(injector=probe):
            engine(params=params, seed=1).fit(tiny)
        # Every emulated launch from two thirds of the run on fails.
        kill = FaultInjector([f"transient#{probe._matches[0] * 2 // 3}+*"])
        path = tmp_path / "engine.npz"
        with use_run(injector=kill), pytest.raises(TransientDeviceError):
            engine(
                params=params, seed=1, checkpoint_every=1, checkpoint_path=path
            ).fit(tiny)
        state = load_engine_state(path)
        assert state.backend == engine.backend_name
        assert 0 < state.total < reference.iterations
        resumed = engine(params=params, seed=999, resume_from=path).fit(tiny)
        assert resumed.same_clustering(reference)
        assert resumed.iterations == reference.iterations == 9

    def test_resumes_another_backends_checkpoint(
        self, tiny, params, engine, tmp_path
    ):
        reference = proclus(tiny, backend="proclus", params=params, seed=1)
        path = tmp_path / "proclus.npz"
        BACKENDS["proclus"](
            params=params, seed=1, checkpoint_every=4, checkpoint_path=path
        ).fit(tiny)
        assert load_engine_state(path).total == 8
        resumed = engine(params=params, seed=999, resume_from=path).fit(tiny)
        assert resumed.same_clustering(reference)
        assert resumed.iterations == reference.iterations == 9
