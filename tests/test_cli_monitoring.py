"""Tests for the monitoring/regression CLI: bench quick, regress, monitor."""

from __future__ import annotations

import json

from repro.cli import main
from repro.cli.regress import REGRESS_INJECTIONS
from repro.obs import validate_bench_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


SMALL_LOAD = ("loadgen", "--requests", "6", "--workers", "2",
              "--backends", "gpu-fast")


class TestBenchQuickCli:
    def test_quick_tier_saves_baselines_and_gate_passes(self, capsys, tmp_path):
        store = tmp_path / "baselines"
        report = tmp_path / "BENCH_bench_quick.json"
        code, out = run(
            capsys, "bench", "quick", "--save-baseline",
            "--baseline-dir", str(store), "--json", str(report),
        )
        assert code == 0
        assert "baseline files written" in out
        assert len(list(store.glob("*.json"))) == 7
        payload = json.loads(report.read_text())
        assert validate_bench_report(payload, "repro.bench_quick/1") == []

        # A fresh run against the store we just wrote is all-ties: exit 0.
        verdict_path = tmp_path / "BENCH_regress.json"
        code, out = run(
            capsys, "regress", "--baseline-dir", str(store),
            "--json", str(verdict_path),
        )
        assert code == 0
        assert "no regression" in out
        verdict = json.loads(verdict_path.read_text())
        assert validate_bench_report(verdict, "repro.regress/1") == []
        assert verdict["exit_code"] == 0


class TestRegressCli:
    def test_missing_store_exits_2(self, capsys, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the quick tier ran without a store")

        monkeypatch.setattr("repro.bench.baseline.run_quick_tier", never)
        monkeypatch.chdir(tmp_path)
        code = main(["regress", "--baseline-dir", "nothing"])
        captured = capsys.readouterr()
        assert code == 2
        assert "store is empty" in captured.err
        assert str((tmp_path / "nothing").resolve()) in captured.err

    def test_injections_cover_headline_backends(self):
        remap = REGRESS_INJECTIONS["no-dist-cache"]
        assert remap["gpu-fast"] == "gpu-fast-h-only"
        assert "fast" in remap


class TestMonitorCli:
    def _monitor_dir(self, capsys, tmp_path):
        mon = tmp_path / "mon"
        code, _ = run(capsys, *SMALL_LOAD, "--monitor-dir", str(mon))
        assert code == 0
        return mon

    def test_once_renders_final_health(self, capsys, tmp_path):
        mon = self._monitor_dir(capsys, tmp_path)
        code, out = run(capsys, "monitor", str(mon), "--once")
        assert code == 0
        assert "service health" in out
        assert "queued-latency-p95" in out
        assert "OK" in out

    def test_once_json_to_stdout(self, capsys, tmp_path):
        mon = self._monitor_dir(capsys, tmp_path)
        code, out = run(capsys, "monitor", str(mon), "--once", "--json", "-")
        assert code == 0
        health = json.loads(out)
        assert health["schema"] == "repro.health/1"
        assert health["final"] is True

    def test_once_missing_dir_exits_2(self, capsys, tmp_path):
        code = main(["monitor", str(tmp_path / "nope"), "--once"])
        captured = capsys.readouterr()
        assert code == 2
        assert "no health report" in captured.err

    def test_live_mode_exits_on_final_snapshot(self, capsys, tmp_path):
        mon = self._monitor_dir(capsys, tmp_path)
        code, out = run(
            capsys, "monitor", str(mon), "--interval", "0.01",
            "--max-updates", "3",
        )
        assert code == 0
        assert "final snapshot" in out

    def test_live_mode_gives_up_without_service(self, capsys, tmp_path):
        code = main([
            "monitor", str(tmp_path / "empty"), "--interval", "0.01",
            "--max-updates", "2",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "no health report ever appeared" in captured.err


class TestLoadgenMonitoring:
    def test_loadgen_report_embeds_health(self, capsys, tmp_path):
        mon = tmp_path / "mon"
        out_path = tmp_path / "BENCH_serve.json"
        code, out = run(
            capsys, *SMALL_LOAD, "--monitor-dir", str(mon),
            "--json", str(out_path),
        )
        assert code == 0
        assert "service health" in out  # rendered in the CLI output
        report = json.loads(out_path.read_text())
        assert validate_bench_report(report, "repro.serve_bench/1") == []
        health = report["health"]
        assert health["final"] is True and health["ok"] is True
        assert (mon / "metrics.prom").exists()
        # The scrape is parseable and carries the serve counters.
        from repro.obs import parse_prometheus_text

        scraped = parse_prometheus_text((mon / "metrics.prom").read_text())
        assert scraped["counters"]["repro_serve_requests"] == 6.0


class TestServeMonitoring:
    def test_serve_once_flushes_monitor_dir(self, capsys, tmp_path):
        spool = str(tmp_path / "spool")
        mon = tmp_path / "mon"
        code, _ = run(
            capsys, "submit", spool, "--n", "600", "--d", "8",
            "--clusters", "4", "--k", "4", "--l", "3", "--a", "30",
            "--b", "5", "--id", "job-m", "--backend", "gpu-fast",
        )
        assert code == 0
        code, out = run(
            capsys, "serve", spool, "--once", "--monitor-dir", str(mon),
        )
        assert code == 0
        assert "monitor" in out
        health = json.loads((mon / "health.json").read_text())
        assert health["final"] is True
        assert health["service"]["counters"]["serve.requests"] >= 1
