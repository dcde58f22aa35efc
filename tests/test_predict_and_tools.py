"""Tests for assign_new_points, validation, kernel profiler."""

from __future__ import annotations

import numpy as np
import pytest

from repro import assign_new_points, proclus
from repro.core.api import BACKENDS
from repro.data.normalize import minmax_normalize
from repro.data.synthetic import generate_subspace_data
from repro.eval.validation import validate_equivalence
from repro.exceptions import DataValidationError
from repro.gpu.profiler import format_kernel_profile, profile_kernels
from repro.params import ProclusParams


@pytest.fixture(scope="module")
def fitted():
    ds = generate_subspace_data(
        n=2500, d=10, n_clusters=4, subspace_dims=5, std=2.0, seed=10
    )
    data = minmax_normalize(ds.data)
    params = ProclusParams(k=4, l=4, a=30, b=5)
    result = min(
        (proclus(data, backend="fast", params=params, seed=s) for s in range(3)),
        key=lambda r: r.cost,
    )
    return data, ds, result


class TestAssignNewPoints:
    def test_training_points_get_consistent_labels(self, fitted):
        data, _, result = fitted
        relabeled = assign_new_points(result, data, data)
        # Non-outlier training points must land in their original cluster
        # (the assignment rule is the refinement phase's).
        mask = result.labels >= 0
        agreement = np.mean(relabeled[mask] == result.labels[mask])
        assert agreement > 0.99

    def test_new_points_near_medoid_join_its_cluster(self, fitted):
        data, _, result = fitted
        jitter = np.random.default_rng(0).normal(0, 1e-4, (result.k, data.shape[1]))
        near = np.clip(data[result.medoids] + jitter.astype(np.float32), 0, 1)
        labels = assign_new_points(result, data, near.astype(np.float32))
        assert np.array_equal(labels, np.arange(result.k))

    def test_far_points_flagged_outliers(self, fitted):
        data, _, result = fitted
        # A point maximally distant from everything in every dimension.
        far = np.full((1, data.shape[1]), 12.0, dtype=np.float32)
        labels = assign_new_points(result, data, far)
        assert labels[0] == -1

    def test_outlier_detection_optional(self, fitted):
        data, _, result = fitted
        far = np.full((1, data.shape[1]), 12.0, dtype=np.float32)
        labels = assign_new_points(result, data, far, detect_outliers=False)
        assert 0 <= labels[0] < result.k

    def test_dimension_mismatch_rejected(self, fitted):
        data, _, result = fitted
        with pytest.raises(DataValidationError, match="dimensions"):
            assign_new_points(result, data, np.zeros((3, 2), dtype=np.float32))

    def test_wrong_training_data_rejected(self, fitted):
        data, _, result = fitted
        tiny = data[:5]
        with pytest.raises(DataValidationError, match="medoid index"):
            assign_new_points(result, tiny, data[:3])


class TestValidation:
    def test_all_backends_pass(self):
        report = validate_equivalence(n=600, d=8, seeds=(0, 1))
        assert report.passed
        assert report.runs == 2 * len(report.backends) + 2 - 2
        assert "PASS" in report.render()

    def test_subset_of_backends(self):
        report = validate_equivalence(
            n=500, d=8, seeds=(0,), backends=("proclus", "fast", "gpu-fast")
        )
        assert report.passed
        assert report.backends == ("proclus", "fast", "gpu-fast")

    def test_cost_drift_alone_fails(self, monkeypatch):
        """The same labels, medoids and subspaces at another cost diverge."""

        class Drifting(BACKENDS["fast"]):
            def fit(self, data):
                result = super().fit(data)
                result.cost = float(np.nextafter(result.cost, np.inf))
                return result

        monkeypatch.setitem(BACKENDS, "fast", Drifting)
        report = validate_equivalence(
            n=500, d=8, seeds=(0,), backends=("proclus", "fast")
        )
        assert report.failures == [("fast", 0)]


class TestKernelProfiler:
    @pytest.fixture(scope="class")
    def model(self):
        from repro.gpu_impl.gpu_fast import GpuFastProclusEngine

        ds = generate_subspace_data(n=3000, d=10, n_clusters=4,
                                    subspace_dims=4, seed=0)
        data = minmax_normalize(ds.data)
        engine = GpuFastProclusEngine(
            params=ProclusParams(k=4, l=3, a=25, b=5), seed=0
        )
        engine.fit(data)
        return engine.model

    def test_profiles_sorted_by_total_time(self, model):
        profiles = profile_kernels(model)
        totals = [p.total_seconds for p in profiles]
        assert totals == sorted(totals, reverse=True)

    def test_totals_match_model(self, model):
        profiles = profile_kernels(model)
        grand = sum(p.total_seconds for p in profiles)
        # All phase time except host<->device transfers is kernel time.
        kernel_time = model.total_seconds - model.phase_seconds.get("transfer", 0)
        assert grand == pytest.approx(kernel_time, rel=1e-9)

    def test_call_counts_match_launches(self, model):
        profiles = profile_kernels(model)
        assert sum(p.calls for p in profiles) == len(model.counter.kernel_launches)

    def test_bound_by_labels_valid(self, model):
        for p in profile_kernels(model):
            assert p.bound_by in ("launch", "memory", "compute", "atomics")

    def test_format_contains_kernels(self, model):
        text = format_kernel_profile(profile_kernels(model))
        assert "greedy.distances" in text
        assert "total" in text

    def test_empty_profile(self):
        assert "(no kernel launches" in format_kernel_profile([])
