"""Tests for the batch experiment runner."""

from __future__ import annotations

from repro.bench.figures import sec54_utilization
from repro.bench.runner import run_all_experiments, write_summary


class TestRunner:
    def test_single_experiment_with_artifacts(self, tmp_path):
        runs = run_all_experiments(
            out_dir=tmp_path,
            experiments={"sec54": sec54_utilization},
        )
        assert len(runs) == 1
        run = runs[0]
        assert run.csv_path.exists()
        assert run.json_path.exists()
        assert run.wall_seconds > 0
        summary = (tmp_path / "SUMMARY.md").read_text()
        assert "sec54" in summary
        assert "Nsight" in summary

    def test_no_artifacts_without_out_dir(self):
        runs = run_all_experiments(experiments={"sec54": sec54_utilization})
        assert runs[0].csv_path is None

    def test_progress_callback(self, tmp_path):
        seen = []
        run_all_experiments(
            experiments={"sec54": sec54_utilization}, progress=seen.append
        )
        assert seen == ["running sec54 ..."]

    def test_write_summary_standalone(self, tmp_path):
        runs = run_all_experiments(experiments={"sec54": sec54_utilization})
        path = write_summary(runs, tmp_path / "S.md")
        assert "Reproduction summary" in path.read_text()
