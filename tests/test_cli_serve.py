"""Tests for the serving CLI: repro serve / submit / loadgen."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.serve import read_response
from repro.serve.spool import REQUEST_SCHEMA, RESPONSE_SCHEMA


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


SMALL = ("--n", "600", "--d", "8", "--clusters", "4", "--k", "4", "--l", "3")


class TestSubmitAndServe:
    def test_roundtrip_through_the_spool(self, capsys, tmp_path):
        spool = str(tmp_path / "spool")
        code, out = run(
            capsys, "submit", spool, *SMALL, "--id", "job-a",
            "--backend", "gpu-fast",
        )
        assert code == 0
        assert "job-a" in out
        assert json.loads(
            (tmp_path / "spool/requests/job-a.json").read_text()
        )["schema"] == REQUEST_SCHEMA

        code, out = run(capsys, "serve", spool, "--once", "--timeline")
        assert code == 0
        assert "1 requests handled" in out
        assert "serve timeline" in out

        response = read_response(spool, "job-a")
        assert response["schema"] == RESPONSE_SCHEMA
        assert response["ok"] is True
        assert response["k"] == 4
        assert len(response["labels_sha256"]) == 64
        # Processed requests are moved aside, not deleted.
        assert not (tmp_path / "spool/requests/job-a.json").exists()
        assert (tmp_path / "spool/done/job-a.json").exists()

    def test_submit_npy_and_wait(self, capsys, tmp_path):
        data = np.random.default_rng(0).random((300, 6)).astype(np.float32)
        npy = tmp_path / "data.npy"
        np.save(npy, data)
        spool = str(tmp_path / "spool")
        code, _ = run(
            capsys, "submit", spool, "--npy", str(npy), "--id", "job-n",
            "--k", "3", "--l", "3", "--backend", "fast",
        )
        assert code == 0
        code, _ = run(capsys, "serve", spool, "--once")
        assert code == 0
        # --wait finds the already-written response immediately.
        code, out = run(
            capsys, "submit", spool, "--npy", str(npy), "--id", "job-n",
            "--k", "3", "--l", "3", "--backend", "fast", "--wait", "5",
        )
        assert code == 0
        assert "cost=" in out
        assert "labels sha256:" in out

    def test_submit_refuses_flags_a_request_cannot_carry(
        self, capsys, tmp_path
    ):
        spool = tmp_path / "spool"
        code = main([
            "submit", str(spool), *SMALL, "--a", "25", "--b", "5",
            "--std", "2.0", "--dataset", "glass", "--id", "job-r",
        ])
        (message, _) = capsys.readouterr().err.splitlines()
        assert code == 2
        assert message == (
            "repro: error: --a, --b, --std, --dataset would not reach the "
            "served job: a spool request carries only --k, --l, --seed, "
            "--backend, --priority and the --n/--d/--clusters/--data-seed "
            "or --npy dataset"
        )
        assert not (spool / "requests/job-r.json").exists()
        # Values the served job uses anyway are accepted.
        code, _ = run(
            capsys, "submit", str(spool), *SMALL, "--a", "100",
            "--patience", "5", "--std", "5.0", "--id", "job-s",
        )
        assert code == 0

    def test_submit_npy_refuses_synthetic_data_flags(self, capsys, tmp_path):
        npy = tmp_path / "data.npy"
        np.save(npy, np.zeros((300, 6), dtype=np.float32))
        spool = tmp_path / "spool"
        code = main([
            "submit", str(spool), "--npy", str(npy), "--n", "5000",
            "--d", "3", "--clusters", "7", "--data-seed", "9",
            "--k", "3", "--l", "3", "--id", "job-np",
        ])
        (message, _) = capsys.readouterr().err.splitlines()
        assert code == 2
        assert message.startswith(
            "repro: error: --n, --d, --clusters, --data-seed would not "
            "reach the served job: "
        )
        assert not (spool / "requests/job-np.json").exists()
        # One flag at a time is named alone; the parser defaults pass.
        code = main([
            "submit", str(spool), "--npy", str(npy), "--d", "6",
            "--id", "job-np",
        ])
        (message, _) = capsys.readouterr().err.splitlines()
        assert code == 2
        assert message.startswith("repro: error: --d would not reach")
        code, _ = run(
            capsys, "submit", str(spool), "--npy", str(npy), "--n", "20000",
            "--d", "15", "--clusters", "10", "--data-seed", "0",
            "--id", "job-np",
        )
        assert code == 0
        request = json.loads((spool / "requests/job-np.json").read_text())
        assert request["dataset"] == {"npy": str(npy)}

    def test_wait_without_server_times_out(self, capsys, tmp_path):
        spool = str(tmp_path / "spool")
        code = main([
            "submit", spool, *SMALL, "--id", "job-w", "--wait", "0.1",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "no response" in captured.err

    def test_bad_request_yields_error_response(self, capsys, tmp_path):
        spool = str(tmp_path / "spool")
        code, _ = run(
            capsys, "submit", spool, *SMALL, "--id", "job-x",
            "--backend", "gpu-fast",
        )
        assert code == 0
        # Corrupt the request's backend after the fact.
        path = tmp_path / "spool/requests/job-x.json"
        document = json.loads(path.read_text())
        document["backend"] = "not-a-backend"
        path.write_text(json.dumps(document))
        code, _ = run(capsys, "serve", spool, "--once")
        assert code == 0  # the *server* survives bad requests
        response = read_response(spool, "job-x")
        assert response["ok"] is False
        assert "not-a-backend" in response["error"]


class TestLoadgenCli:
    def test_loadgen_writes_valid_report(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_serve.json"
        code, out = run(
            capsys, "loadgen", "--requests", "8", "--json", str(out_path),
        )
        assert code == 0
        assert "0 violations" in out
        assert "report written" in out
        from repro.obs import validate_serve_report

        report = json.loads(out_path.read_text())
        assert validate_serve_report(report) == []
        assert report["ok"] is True

    def test_loadgen_timeline_flag(self, capsys):
        code, out = run(
            capsys, "loadgen", "--requests", "6", "--timeline",
        )
        assert code == 0
        assert "serve timeline" in out
        assert "queued" in out

    def test_loadgen_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit):
            main(["loadgen", "--backends", "nope"])


class TestPostmortemCli:
    def _crash_a_served_job(self, capsys, tmp_path, flags=None) -> str:
        """Serve one fleet job with an injected terminal device loss."""
        spool = str(tmp_path / "spool")
        record = str(tmp_path / "pm")
        code, _ = run(
            capsys, "submit", spool, *SMALL, "--id", "job-x",
            "--backend", "fleet-gpu-fast",
        )
        assert code == 0
        code, out = run(
            capsys, "serve", spool, "--once", "--devices", "2",
            "--fault", "device-down@dev1", "--no-degrade",
            "--max-reshards", "0",
            *(["--record-dir", record] if flags is None else flags),
        )
        assert code == 0
        assert "postmortem bundle" in out
        return record

    def test_injected_crash_dumps_a_bundle(self, capsys, tmp_path):
        record = self._crash_a_served_job(capsys, tmp_path)
        import glob

        bundles = glob.glob(record + "/postmortem-*.json")
        assert len(bundles) == 1
        bundle = json.loads(open(bundles[0]).read())
        assert bundle["schema"] == "repro.postmortem/1"
        assert bundle["failure"]["reason"] == "resilience-exhausted"

    def test_env_var_recorder_gets_the_served_crash_bundle(
        self, capsys, monkeypatch, tmp_path
    ):
        record = str(tmp_path / "pm")
        monkeypatch.setenv("REPRO_FLIGHT_RECORDER", record)
        self._crash_a_served_job(capsys, tmp_path, flags=[])
        import glob

        (path,) = glob.glob(record + "/postmortem-*.json")
        with open(path) as handle:
            bundle = json.load(handle)
        assert bundle["failure"]["reason"] == "resilience-exhausted"

    def test_postmortem_analyze_and_replay(self, capsys, tmp_path):
        record = self._crash_a_served_job(capsys, tmp_path)
        analysis_path = str(tmp_path / "analysis.json")
        code, out = run(
            capsys, "postmortem", record, "--json", analysis_path,
            "--replay",
        )
        assert code == 0
        assert "replay REPRODUCED the failure" in out
        assert "dev1" in out
        analysis = json.loads(open(analysis_path).read())
        assert analysis["schema"] == "repro.postmortem_report/1"
        assert analysis["replay"]["reproduced"] is True
        assert analysis["suspects"]["device"] == "dev1"

    def test_postmortem_missing_bundle_exits_2(self, capsys, tmp_path):
        code = main(["postmortem", str(tmp_path)])
        assert code == 2

    def test_loadgen_postmortem_dir_flag(self, capsys, tmp_path, monkeypatch):
        import repro.serve.loadgen as loadgen_module

        monkeypatch.setattr(
            loadgen_module, "bit_identical", lambda served, reference: False
        )
        directory = str(tmp_path / "pm")
        code, out = run(
            capsys, "loadgen", "--requests", "4", "--workers", "1",
            "--n", "300", "--d", "6", "--clusters", "3",
            "--postmortem-dir", directory,
        )
        assert code == 1  # violations fail the loadgen gate
        assert "postmortem bundle:" in out
        code, out = run(capsys, "postmortem", directory, "--replay")
        assert code == 0
        assert "REPRODUCED the recorded solo bits" in out

    def test_sigterm_dump_via_keyboard_interrupt(self, tmp_path, monkeypatch):
        """The serve loop's interrupt path dumps a sigterm bundle."""
        import repro.cli as cli_module

        def fake_serve_spool(*args, **kwargs):
            raise KeyboardInterrupt

        import repro.serve as serve_module

        monkeypatch.setattr(serve_module, "serve_spool", fake_serve_spool)
        record = str(tmp_path / "pm")
        code = cli_module.main(
            ["serve", str(tmp_path / "spool"), "--once",
             "--record-dir", record]
        )
        assert code == 130  # conventional interrupt exit
        import glob

        bundles = glob.glob(record + "/postmortem-sigterm-*.json")
        assert len(bundles) == 1
        bundle = json.loads(open(bundles[0]).read())
        assert bundle["failure"]["reason"] == "sigterm"

    def test_env_var_installs_an_ambient_recorder(self, capsys, monkeypatch,
                                                  tmp_path):
        from repro.cli import info
        from repro.obs import current_run

        record = str(tmp_path / "pm")
        monkeypatch.setenv("REPRO_FLIGHT_RECORDER", record)
        seen = []
        monkeypatch.setattr(
            info, "run", lambda args: seen.append(current_run().recorder) or 0
        )
        code = main(["info"])
        assert code == 0
        (recorder,) = seen
        assert recorder is not None
        assert str(recorder.bundle_dir) == record
        # Installed for the command's duration, not process-wide.
        assert current_run().recorder is None
