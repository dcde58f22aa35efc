"""Tests for the strategy-ablation engines."""

from __future__ import annotations

import pytest

from repro import BACKENDS, proclus
from repro.params import ProclusParams

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
