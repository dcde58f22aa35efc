"""Tests for the multi-parameter-setting driver (Section 3.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import run_parameter_study
from repro.core.multiparam import ReuseLevel
from repro.exceptions import ParameterError
from repro.params import ParameterGrid, ProclusParams


@pytest.fixture(scope="module")
def grid():
    return ParameterGrid(ks=(5, 4), ls=(3, 2), base=ProclusParams(a=20, b=4))


@pytest.fixture(scope="module")
def data(request):
    from repro.data.normalize import minmax_normalize
    from repro.data.synthetic import generate_subspace_data

    ds = generate_subspace_data(n=1500, d=8, n_clusters=5, subspace_dims=4, seed=9)
    return minmax_normalize(ds.data)


class TestStudyStructure:
    def test_one_result_per_setting(self, data, grid):
        study = run_parameter_study(data, grid=grid, backend="fast", level=0, seed=0)
        assert study.num_settings == len(grid) == 4
        assert set(study.results) == {(5, 3), (5, 2), (4, 3), (4, 2)}

    def test_each_result_matches_its_setting(self, data, grid):
        study = run_parameter_study(data, grid=grid, backend="fast", level=0, seed=0)
        for (k, l), result in study.results.items():
            assert result.k == k
            assert sum(len(d) for d in result.dimensions) == k * l

    def test_total_stats_aggregates(self, data, grid):
        study = run_parameter_study(data, grid=grid, backend="fast", level=0, seed=0)
        per_setting = sum(r.stats.modeled_seconds for r in study.results.values())
        assert study.total_stats.modeled_seconds == pytest.approx(per_setting)
        assert study.average_seconds_per_setting == pytest.approx(per_setting / 4)

    def test_best_setting_has_lowest_cost(self, data, grid):
        study = run_parameter_study(data, grid=grid, backend="fast", level=0, seed=0)
        best = study.best_setting()
        assert study.results[best].cost == min(r.cost for r in study.results.values())

    def test_empty_study_best_setting_raises(self):
        from repro.core.multiparam import MultiParamResult

        with pytest.raises(ValueError):
            MultiParamResult().best_setting()

    def test_unknown_backend_rejected(self, data, grid):
        with pytest.raises(ParameterError, match="unknown backend"):
            run_parameter_study(data, grid=grid, backend="cuda", level=0)


class TestReuseLevels:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_every_level_completes(self, data, grid, level):
        study = run_parameter_study(
            data, grid=grid, backend="gpu-fast", level=level, seed=0
        )
        assert study.num_settings == 4
        assert study.level == ReuseLevel(level)

    def test_level1_shares_medoids_across_settings(self, data, grid):
        study = run_parameter_study(data, grid=grid, backend="fast", level=1, seed=0)
        # With a shared M, every setting's medoids come from the same
        # B*k_max pool of point ids.
        all_medoids = np.concatenate(
            [r.medoids for r in study.results.values()]
        )
        pool = set()
        for r in study.results.values():
            pool.update(r.medoids.tolist())
        assert len(pool) <= grid.base.b * grid.max_k

    def test_level0_settings_sample_independently(self, data, grid):
        study = run_parameter_study(data, grid=grid, backend="fast", level=0, seed=0)
        # Independent sampling makes medoid pools effectively disjoint-ish;
        # just verify the study is not degenerate (different settings
        # produce different medoid sets).
        sets = [tuple(sorted(r.medoids.tolist())) for r in study.results.values()]
        assert len(set(sets)) > 1

    def test_higher_levels_not_slower(self, data, grid):
        times = {}
        for level in (0, 1, 2, 3):
            study = run_parameter_study(
                data, grid=grid, backend="gpu-fast", level=level, seed=0
            )
            times[level] = study.total_stats.modeled_seconds
        assert times[2] <= times[1]
        assert times[3] <= times[2] * 1.25  # warm start may add iterations
        assert times[3] < times[0]

    def test_level2_charges_greedy_once(self, data, grid):
        l1 = run_parameter_study(data, grid=grid, backend="fast", level=1, seed=0)
        l2 = run_parameter_study(data, grid=grid, backend="fast", level=2, seed=0)
        init1 = l1.total_stats.phase_seconds.get("initialization", 0.0)
        init2 = l2.total_stats.phase_seconds.get("initialization", 0.0)
        assert init2 < init1

    def test_warm_start_uses_subset_of_previous_best(self, data, grid):
        study = run_parameter_study(
            data, grid=grid, backend="fast", level=3, seed=0
        )
        assert study.num_settings == 4

    def test_k_max_too_large_rejected(self):
        small = np.random.default_rng(0).random((6, 5)).astype(np.float32)
        grid = ParameterGrid(ks=(8,), ls=(2,), base=ProclusParams(a=2, b=1))
        with pytest.raises(ParameterError):
            run_parameter_study(small, grid=grid, backend="fast", level=1)


class TestGpuStudySharing:
    def test_transfer_charged_once_for_shared_levels(self, data, grid):
        study0 = run_parameter_study(
            data, grid=grid, backend="gpu-fast", level=0, seed=0
        )
        study1 = run_parameter_study(
            data, grid=grid, backend="gpu-fast", level=1, seed=0
        )
        t0 = study0.total_stats.phase_seconds.get("transfer", 0.0)
        t1 = study1.total_stats.phase_seconds.get("transfer", 0.0)
        assert t1 < t0

    def test_results_identical_between_gpu_and_cpu_study(self, data, grid):
        cpu = run_parameter_study(data, grid=grid, backend="fast", level=1, seed=4)
        gpu = run_parameter_study(data, grid=grid, backend="gpu-fast", level=1, seed=4)
        for key in cpu.results:
            assert cpu.results[key].same_clustering(gpu.results[key])


class TestDuplicateGridEntries:
    """Regression: duplicated (k, l) grid entries used to run twice,
    silently double-counting their work in ``total_stats``."""

    @pytest.fixture(scope="class")
    def dup_grid(self):
        return ParameterGrid(ks=(5, 5, 4), ls=(3, 2, 2),
                             base=ProclusParams(a=20, b=4))

    @pytest.fixture(scope="class")
    def clean_grid(self):
        return ParameterGrid(ks=(5, 4), ls=(3, 2),
                             base=ProclusParams(a=20, b=4))

    def test_duplicates_warn_and_run_once(self, data, dup_grid, clean_grid):
        with pytest.warns(UserWarning, match="duplicate setting"):
            duplicated = run_parameter_study(
                data, grid=dup_grid, backend="fast", level=1, seed=0
            )
        clean = run_parameter_study(
            data, grid=clean_grid, backend="fast", level=1, seed=0
        )
        assert duplicated.num_settings == clean.num_settings == 4
        for key in clean.results:
            assert duplicated.results[key].same_clustering(clean.results[key])

    def test_duplicate_work_not_double_counted(self, data, dup_grid, clean_grid):
        with pytest.warns(UserWarning):
            duplicated = run_parameter_study(
                data, grid=dup_grid, backend="fast", level=1, seed=0
            )
        clean = run_parameter_study(
            data, grid=clean_grid, backend="fast", level=1, seed=0
        )
        assert duplicated.total_stats.modeled_seconds == pytest.approx(
            clean.total_stats.modeled_seconds
        )

    def test_duplicate_counter_emitted(self, data, dup_grid):
        from repro.obs import Tracer, use_run

        tracer = Tracer()
        with tracer.span("study-test"), use_run(tracer=tracer):
            with pytest.warns(UserWarning):
                run_parameter_study(
                    data, grid=dup_grid, backend="fast", level=1, seed=0
                )
        counters = tracer.metrics.as_dict()["counters"]
        # (5,5,4)x(3,2,2): 9 iterated combos, 4 unique -> 5 skips.
        assert counters["study.duplicate_settings"] == 5

    def test_warning_fires_once_per_study(self, data, dup_grid):
        """Regression: the dedupe warning used to fire once per skipped
        pair (5 times for this grid); it must fire once per study and
        name every skipped setting."""
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_parameter_study(
                data, grid=dup_grid, backend="fast", level=1, seed=0
            )
        dup_warnings = [
            w for w in caught if "duplicate setting" in str(w.message)
        ]
        assert len(dup_warnings) == 1, [str(w.message) for w in caught]
        message = str(dup_warnings[0].message)
        # All three distinct duplicated pairs are named in the one message.
        for pair in ("(k=5, l=3)", "(k=5, l=2)", "(k=4, l=2)"):
            assert pair in message, message
        assert "(k=4, l=3)" not in message  # never duplicated

    def test_resilient_warning_fires_once_per_study(self, data, dup_grid):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_parameter_study(
                data, grid=dup_grid, backend="fast", level=1, seed=0,
                resilience=True,
            )
        dup_warnings = [
            w for w in caught if "duplicate setting" in str(w.message)
        ]
        assert len(dup_warnings) == 1, [str(w.message) for w in caught]

    def test_resilient_study_also_dedupes(self, data, dup_grid, clean_grid):
        with pytest.warns(UserWarning, match="duplicate setting"):
            duplicated = run_parameter_study(
                data, grid=dup_grid, backend="fast", level=1, seed=0,
                resilience=True,
            )
        clean = run_parameter_study(
            data, grid=clean_grid, backend="fast", level=1, seed=0
        )
        assert duplicated.num_settings == 4
        for key in clean.results:
            assert duplicated.results[key].same_clustering(clean.results[key])
