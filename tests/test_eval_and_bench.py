"""Tests for the timing harness and bench plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.reporting import ExperimentReport, format_seconds
from repro.bench import workloads
from repro.data.synthetic import generate_subspace_data
from repro.eval.timing import time_backend, time_parameter_study
from repro.params import ParameterGrid, ProclusParams


def factory(seed):
    return generate_subspace_data(n=400, d=6, n_clusters=3, subspace_dims=3, seed=seed)


PARAMS = ProclusParams(k=3, l=3, a=20, b=4)


class TestTimeBackend:
    def test_averages_over_repeats(self):
        t = time_backend("proclus", factory, params=PARAMS, repeats=3)
        assert t.repeats == 3
        assert len(t.per_run_seconds) == 3
        assert t.modeled_seconds == pytest.approx(np.mean(t.per_run_seconds))
        assert t.modeled_milliseconds == pytest.approx(t.modeled_seconds * 1e3)

    def test_different_datasets_per_repeat(self):
        t = time_backend("proclus", factory, params=PARAMS, repeats=3)
        # Different generated datasets give different run times.
        assert len(set(t.per_run_seconds)) > 1

    def test_gpu_backend_accepts_spec_kwarg(self):
        from repro.hardware.specs import RTX_3090

        t = time_backend(
            "gpu-fast", factory, params=PARAMS, repeats=1, gpu_spec=RTX_3090
        )
        assert t.modeled_seconds > 0

    def test_parameter_study_timing(self):
        grid = ParameterGrid(ks=(3,), ls=(3, 2), base=PARAMS)
        t = time_parameter_study("fast", factory, grid=grid, level=1, repeats=2)
        assert "multi-param 1" in t.backend
        assert t.modeled_seconds > 0


class TestReporting:
    def test_add_row_validates_width(self):
        report = ExperimentReport("x", "t", columns=["a", "b"])
        report.add_row(1, 2)
        with pytest.raises(ValueError):
            report.add_row(1, 2, 3)

    def test_render_includes_everything(self):
        report = ExperimentReport(
            "figX", "Title", columns=["n", "time"],
            paper_reference="paper says 42",
        )
        report.add_row(100, "1 ms")
        report.key_numbers["speedup"] = 7
        text = report.render()
        assert "figX" in text and "Title" in text
        assert "100" in text and "1 ms" in text
        assert "paper says 42" in text
        assert "speedup=7" in text

    def test_render_empty_rows(self):
        report = ExperimentReport("x", "t", columns=["a"])
        assert "x" in report.render()

    @pytest.mark.parametrize(
        "seconds,expected",
        [(2.5, "s"), (0.005, "ms"), (2e-6, "us")],
    )
    def test_format_seconds_units(self, seconds, expected):
        assert expected in format_seconds(seconds)


class TestWorkloadScales:
    def test_default_scale_small(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert workloads.bench_scale() == "small"
        assert workloads.default_n() == 16_384
        assert workloads.repeats() == 2

    def test_paper_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "paper")
        assert workloads.bench_scale() == "paper"
        assert workloads.default_n() == 64_000
        assert workloads.repeats() == 10
        assert max(workloads.n_sweep()) == 2**20
        assert max(workloads.multiparam_n_sweep()) == 2**23
        assert "sky-5x5" in workloads.realworld_names()

    def test_invalid_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "huge")
        with pytest.raises(ValueError):
            workloads.bench_scale()

    def test_small_sweeps_are_subset_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert max(workloads.n_sweep()) <= 2**15
        assert "sky-5x5" not in workloads.realworld_names()
        assert all(n >= 2**9 for n in workloads.n_sweep())


class TestReportSeries:
    def make_report(self):
        from repro.bench.reporting import ExperimentReport

        r = ExperimentReport("x", "t", columns=["n", "time"])
        for n, t in ((512, 0.04), (2048, 0.2), (8192, 0.43)):
            r.add_series("proclus", n, t)
            r.add_series("gpu", n, t / 300)
        return r

    def test_series_accumulate_points(self):
        r = self.make_report()
        xs, ys = r.series["proclus"]
        assert xs == [512, 2048, 8192]
        assert ys == [0.04, 0.2, 0.43]

    def test_render_plot_contains_series_names(self):
        chart = self.make_report().render_plot()
        assert "proclus" in chart and "gpu" in chart
        assert "n (log)" in chart

    def test_render_plot_without_series(self):
        from repro.bench.reporting import ExperimentReport

        r = ExperimentReport("x", "t", columns=["n"])
        assert "no plot series" in r.render_plot()

    def test_linear_fallback_for_nonpositive_values(self):
        from repro.bench.reporting import ExperimentReport

        r = ExperimentReport("x", "t", columns=["n", "v"])
        r.add_series("s", 1, 0.0)  # zero breaks the log chart
        r.add_series("s", 2, 1.0)
        chart = r.render_plot(log=True)
        assert "s" in chart  # fell back to the linear chart
