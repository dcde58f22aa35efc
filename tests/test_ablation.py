"""Tests for the strategy-ablation engines."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import BACKENDS, ParameterGrid, proclus, run_parameter_study
from repro.exceptions import ResilienceExhaustedError
from repro.obs import use_run
from repro.params import ProclusParams
from repro.resilience import (
    FaultInjector,
    LadderStep,
    RetryPolicy,
    StudyCheckpoint,
)
from repro.result import bit_identical
from repro.serve import ClusterService

ABLATIONS = ["fast-dist-only", "fast-h-only", "gpu-fast-dist-only", "gpu-fast-h-only"]


class TestAblationCorrectness:
    @pytest.mark.parametrize("backend", ABLATIONS)
    def test_identical_to_baseline(self, small_dataset, small_params, backend):
        data, _ = small_dataset
        base = proclus(data, backend="proclus", params=small_params, seed=2)
        other = proclus(data, backend=backend, params=small_params, seed=2)
        assert other.same_clustering(base)
        assert other.cost == base.cost


class TestAblationWorkOrdering:
    @pytest.fixture(scope="class")
    def times(self, medium_dataset):
        data, _ = medium_dataset
        params = ProclusParams(k=5, l=3, a=40, b=6)
        return {
            name: proclus(
                data, backend=name, params=params, seed=1
            ).stats.modeled_seconds
            for name in ("proclus", "fast-dist-only", "fast-h-only", "fast")
        }

    def test_each_strategy_alone_beats_baseline(self, times):
        assert times["fast-dist-only"] < times["proclus"]
        assert times["fast-h-only"] < times["proclus"]

    def test_combined_beats_each_alone(self, times):
        assert times["fast"] <= times["fast-dist-only"]
        assert times["fast"] <= times["fast-h-only"]

    def test_dist_cache_is_the_bigger_contributor(self, times):
        """The distance recomputation is the paper's dominant target."""
        gain_dist = times["proclus"] - times["fast-dist-only"]
        gain_h = times["proclus"] - times["fast-h-only"]
        assert gain_dist > gain_h


class TestAblationCounters:
    def test_dist_only_skips_distance_rows(self, medium_dataset):
        data, _ = medium_dataset
        params = ProclusParams(k=5, l=3, a=40, b=6)
        base = proclus(data, backend="gpu", params=params, seed=1)
        dist_only = proclus(
            data, backend="gpu-fast-dist-only", params=params, seed=1
        )
        assert (
            dist_only.stats.counters["gpu.flops"] < base.stats.counters["gpu.flops"]
        )

    def test_h_only_smaller_device_footprint_than_fast(
        self, medium_dataset
    ):
        data, _ = medium_dataset
        params = ProclusParams(k=5, l=3, a=40, b=6)
        h_only = proclus(data, backend="gpu-fast-h-only", params=params, seed=1)
        fast = proclus(data, backend="gpu-fast", params=params, seed=1)
        # No B*k x n Dist cache -> much smaller footprint.
        assert h_only.stats.peak_device_bytes < fast.stats.peak_device_bytes


class TestHOnlyHostRows:
    @pytest.mark.parametrize("backend", ["fast-h-only", "gpu-fast-h-only"])
    def test_holds_k_distance_rows(self, small_dataset, small_params, backend):
        """H-only keeps H per potential medoid but only the k current
        distance rows, in MCur order, and no Dist cache."""
        data, _ = small_dataset
        n = len(data)
        engine = BACKENDS[backend](params=small_params, seed=2)
        result = engine.fit(data)
        assert engine._dist.shape == (small_params.k, n)
        assert engine._cache.dist.shape[0] == 0
        potential = small_params.effective_num_potential(n)
        assert engine._cache.m == len(engine._cache.h) == potential
        assert result.same_clustering(
            proclus(data, backend="proclus", params=small_params, seed=2)
        )


class TestHOnlySharedState:
    """Studies and coalesced groups that can only run H-only engines
    share a cache without ``Dist`` rows: those engines compute their
    current medoids' rows into a ``k``-row scratch of their own."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every shared state a study or the service builds."""
        import repro.core.multiparam as multiparam
        import repro.serve.service as service

        build = multiparam.build_solo_shared_state
        states = []

        def recording(*args, **kwargs):
            states.append(build(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(multiparam, "build_solo_shared_state", recording)
        monkeypatch.setattr(service, "build_solo_shared_state", recording)
        return states

    @pytest.fixture
    def grid(self, small_params):
        return ParameterGrid(ks=(4, 3), ls=(3, 2), base=small_params)

    @pytest.mark.parametrize("backend", ["fast-h-only", "gpu-fast-h-only"])
    @pytest.mark.parametrize("level", [1, 3])
    def test_study_holds_no_dist_rows(
        self, small_dataset, grid, built, backend, level
    ):
        data, _ = small_dataset
        study = run_parameter_study(
            data, grid=grid, backend=backend, level=level, seed=0
        )
        resilient = run_parameter_study(
            data, grid=grid, backend=backend, level=level, seed=0,
            resilience=RetryPolicy(),
        )
        assert [state.cache.dist.shape for state in built] == [(0, len(data))] * 2
        fast = run_parameter_study(
            data, grid=grid, backend="fast", level=level, seed=0
        )
        for key, result in study.results.items():
            assert bit_identical(resilient.results[key], result)
            assert replace(resilient.results[key].stats, wall_seconds=0.0) == (
                replace(result.stats, wall_seconds=0.0)
            )
            assert bit_identical(result, fast.results[key])

    def test_ladder_reaching_fast_keeps_dist_rows(
        self, small_dataset, grid, built
    ):
        data, _ = small_dataset
        ladder = (LadderStep("fast-h-only"), LadderStep("fast"))
        run_parameter_study(
            data, grid=grid, backend="fast-h-only", level=1, seed=0,
            resilience=RetryPolicy(ladder=ladder),
        )
        m = built[0].num_potential_medoids
        assert built[0].cache.dist.shape == (m, len(data))

    def test_coalesced_group_holds_no_dist_rows(
        self, small_dataset, tiny_dataset, small_params, built
    ):
        data, _ = small_dataset
        blocker_data, _ = tiny_dataset
        ls = (2, 3, 4)
        with ClusterService(workers=1, cache_entries=0) as service:
            # The blocker occupies the single worker so the siblings
            # queue up and are dequeued as one coalesced group.
            blocker = service.submit(
                data=blocker_data, backend="gpu-fast-h-only",
                params=ProclusParams(k=3, l=3, a=20, b=4), seed=9,
            )
            handles = [
                service.submit(
                    data=data, backend="gpu-fast-h-only",
                    params=small_params.with_(l=l), seed=0,
                )
                for l in ls
            ]
            results = [handle.result(timeout=120) for handle in handles]
            blocker.result(timeout=120)
        assert sum(handle.coalesced for handle in handles) >= 2
        assert built and all(state.cache.dist.shape[0] == 0 for state in built)
        for l, result in zip(ls, results):
            solo = proclus(
                data, backend="gpu-fast-h-only",
                params=small_params.with_(l=l), seed=0,
            )
            assert bit_identical(result, solo), l

    def test_checkpointed_study_resumes(self, small_dataset, grid, tmp_path):
        data, _ = small_dataset
        reference = run_parameter_study(
            data, grid=grid, backend="gpu-fast-h-only", level=3, seed=0
        )
        probe = FaultInjector(["launch#999999999"])
        with use_run(injector=probe):
            run_parameter_study(
                data, grid=grid, backend="gpu-fast-h-only", level=3, seed=0
            )
        # From two thirds of the study's launches on every launch fails,
        # so the study dies after checkpointing some settings.
        kill = FaultInjector([f"transient#{probe._matches[0] * 2 // 3}+*"])
        directory = tmp_path / "ckpt"
        with use_run(injector=kill), pytest.raises(ResilienceExhaustedError):
            run_parameter_study(
                data, grid=grid, backend="gpu-fast-h-only", level=3, seed=0,
                checkpoint_dir=directory,
                resilience=RetryPolicy(max_retries=0, allow_degraded=False),
            )
        checkpoint = StudyCheckpoint(directory)
        assert 0 < len(checkpoint.load_manifest()["completed"]) < len(grid)
        assert checkpoint.load_shared().cache.dist.shape == (0, len(data))
        resumed = run_parameter_study(
            data, grid=grid, backend="gpu-fast-h-only", level=3, seed=0,
            checkpoint_dir=directory, resume=True,
        )
        assert resumed.results.keys() == reference.results.keys()
        for key, result in reference.results.items():
            assert bit_identical(resumed.results[key], result)
