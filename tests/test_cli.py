"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.runner import ALL_EXPERIMENTS
from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestInfo:
    def test_lists_backends_and_datasets(self, capsys):
        code, out = run(capsys, "info")
        assert code == 0
        assert "gpu-fast" in out
        assert "pendigits" in out
        assert "GTX 1660 Ti" in out

    def test_lists_experiments(self, capsys):
        _, out = run(capsys, "info")
        for name in ALL_EXPERIMENTS:
            assert name in out


class TestCluster:
    def test_synthetic_run(self, capsys):
        code, out = run(
            capsys, "cluster", "--n", "1500", "--clusters", "3",
            "--k", "3", "--l", "3", "--a", "20", "--b", "4",
        )
        assert code == 0
        assert "PROCLUS clustering: k=3" in out
        assert "modeled time" in out
        assert "ARI" in out

    def test_named_dataset(self, capsys):
        code, out = run(
            capsys, "cluster", "--dataset", "glass",
            "--k", "4", "--l", "3", "--a", "10", "--b", "3",
        )
        assert code == 0
        assert "k=4" in out

    def test_backend_choice(self, capsys):
        code, out = run(
            capsys, "cluster", "--n", "1000", "--clusters", "3",
            "--k", "3", "--l", "3", "--a", "15", "--b", "3",
            "--backend", "proclus",
        )
        assert code == 0
        assert "i7-9750H" in out

    def test_save_labels(self, capsys, tmp_path):
        path = tmp_path / "labels.npy"
        code, _ = run(
            capsys, "cluster", "--n", "800", "--clusters", "3",
            "--k", "3", "--l", "3", "--a", "15", "--b", "3",
            "--save-labels", str(path),
        )
        assert code == 0
        labels = np.load(path)
        assert labels.shape == (800,)

    def test_invalid_backend_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["cluster", "--backend", "nope"])


class TestStudy:
    def test_study_runs(self, capsys):
        code, out = run(
            capsys, "study", "--n", "2000", "--clusters", "4",
            "--ks", "4", "3", "--ls", "3", "2",
            "--a", "15", "--b", "3", "--level", "2",
        )
        assert code == 0
        assert "4 settings" in out
        assert "best: k=" in out


class TestBench:
    def test_bench_sec54(self, capsys):
        code, out = run(capsys, "bench", "sec54")
        assert code == 0
        assert "Nsight-style" in out

    def test_bench_csv_and_json_export(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        code, out = run(
            capsys, "bench", "sec54",
            "--csv", str(csv_path), "--json", str(json_path),
        )
        assert code == 0
        header = csv_path.read_text().splitlines()[0]
        assert "kernel" in header
        import json

        payload = json.loads(json_path.read_text())
        assert payload["experiment_id"] == "sec54"
        assert payload["rows"]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "fig99"])


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_registered_experiment_is_callable(self):
        for fn in ALL_EXPERIMENTS.values():
            assert callable(fn)


class TestProfile:
    def test_profile_gpu_backend(self, capsys):
        code, out = run(
            capsys, "profile", "--n", "1500", "--clusters", "3",
            "--k", "3", "--l", "3", "--a", "15", "--b", "3",
        )
        assert code == 0
        assert "greedy.distances" in out
        assert "bound by" in out

    def test_profile_rejects_cpu_backend(self):
        with pytest.raises(SystemExit):
            main(["profile", "--backend", "proclus"])


class TestValidate:
    def test_validate_passes(self, capsys):
        code, out = run(capsys, "validate", "--n", "500", "--runs", "1")
        assert code == 0
        assert "PASS" in out


class TestSanitize:
    def test_single_kernel_clean(self, capsys):
        code, out = run(capsys, "sanitize", "--kernel", "compute_l")
        assert code == 0
        assert "compute_l" in out
        assert "clean (0 diagnostics)" in out

    def test_all_kernels_json_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "sanitize.json"
        code, out = run(
            capsys, "sanitize", "--all-kernels", "--json", str(path),
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["ok"] is True
        assert len(payload["kernels"]) == 7
        for entry in payload["kernels"]:
            assert entry["diagnostics"] == []
            assert entry["accesses"] > 0
        # Launches per pipeline over 3 geometries x 2 schedules: a host
        # wrapper that stops launching one of its kernels shows here.
        assert {
            entry["kernel"]: entry["launches"] for entry in payload["kernels"]
        } == {
            "greedy": 42, "compute_l": 18, "find_dimensions": 12,
            "assign_points": 6, "evaluate": 6, "outliers": 12,
            "fast_compute_l": 72,
        }

    def test_unknown_kernel_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run(capsys, "sanitize", "--kernel", "nope")
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_diagnostics_fail_exit_code(self, capsys, monkeypatch):
        """A sweep that finds anything exits nonzero."""
        import repro.gpu_impl.sanitize as sweep_mod

        def racy(ctx, out):
            out[0] = ctx.global_id

        def drive_racy(rng, geo, em):
            em.launch(racy, 2, geo["tpb"], np.zeros(1, dtype=np.int64))

        monkeypatch.setitem(sweep_mod.KERNELS, "racy_demo", drive_racy)
        code, out = run(capsys, "sanitize", "--kernel", "racy_demo")
        assert code == 1
        assert "race-write-write" in out
        assert "FAILED" in out


class TestBenchAll:
    def test_bench_all_with_subset(self, capsys, tmp_path, monkeypatch):
        import repro.bench.runner as runner
        from repro.bench.figures import sec54_utilization

        monkeypatch.setattr(
            runner, "ALL_EXPERIMENTS", {"sec54": sec54_utilization}
        )
        code, out = run(capsys, "bench", "all", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "SUMMARY.md").exists()
        assert (tmp_path / "sec54.csv").exists()
        assert "running sec54" in out

    def test_bench_plot_flag(self, capsys, monkeypatch):
        # fig2ab records plot series; shrink its sweep first.
        from repro.bench import workloads

        monkeypatch.setattr(workloads, "n_sweep", lambda: [512, 1024])
        monkeypatch.setattr(workloads, "repeats", lambda: 1)
        code, out = run(capsys, "bench", "fig2ab", "--plot")
        assert code == 0
        assert "n (log)" in out


class TestCounters:
    def test_counters_flag_prints_table(self, capsys):
        code, out = run(
            capsys, "cluster", "--n", "800", "--clusters", "3",
            "--k", "3", "--l", "3", "--a", "15", "--b", "3",
            "--counters",
        )
        assert code == 0
        assert "work counters:" in out
        assert "cpu.vector_ops" in out or "gpu.flops" in out


class TestProfileJson:
    def test_json_to_stdout(self, capsys):
        import json

        code, out = run(
            capsys, "profile", "--n", "800", "--clusters", "3",
            "--k", "3", "--l", "3", "--a", "15", "--b", "3",
            "--json", "-",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "repro.kernel_profile/1"
        assert payload["backend"] == "gpu-fast"
        assert payload["kernels"]
        assert {"name", "calls", "bound_by", "share"} <= set(payload["kernels"][0])

    def test_json_to_file(self, capsys, tmp_path):
        import json

        path = tmp_path / "profile.json"
        code, out = run(
            capsys, "profile", "--n", "800", "--clusters", "3",
            "--k", "3", "--l", "3", "--a", "15", "--b", "3",
            "--json", str(path),
        )
        assert code == 0
        assert str(path) in out
        payload = json.loads(path.read_text())
        assert payload["modeled_seconds"] > 0


class TestTraceCommand:
    def test_trace_writes_valid_artifacts(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        code, out = run(
            capsys, "trace", "--n", "800", "--clusters", "3",
            "--k", "3", "--l", "3", "--a", "15", "--b", "3",
            "--out", str(tmp_path), "--label", "clitest",
        )
        assert code == 0
        assert "device timeline" in out
        assert "perfetto" in out.lower()
        trace = json.loads((tmp_path / "trace_gpu-fast.json").read_text())
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["label"] == "clitest"
        lines = (tmp_path / "telemetry.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        assert record["kind"] == "run"
        assert record["label"] == "clitest"

    def test_trace_study_mode(self, capsys, tmp_path):
        import json

        code, out = run(
            capsys, "trace", "--n", "600", "--d", "6", "--clusters", "3",
            "--a", "15", "--b", "3",
            "--backend", "gpu-fast", "--study-level", "3",
            "--ks", "4", "3", "--ls", "3",
            "--out", str(tmp_path),
        )
        assert code == 0
        record = json.loads(
            (tmp_path / "telemetry.jsonl").read_text().splitlines()[0]
        )
        assert record["kind"] == "study"
        assert record["settings"] == 2

    def test_trace_emulated_style_cpu_backend(self, capsys, tmp_path):
        """Tracing works for CPU backends too (host spans only)."""
        code, out = run(
            capsys, "trace", "--n", "600", "--clusters", "3",
            "--k", "3", "--l", "3", "--a", "15", "--b", "3",
            "--backend", "fast", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "trace_fast.json").exists()
        assert "device timeline" not in out
