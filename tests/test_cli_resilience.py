"""CLI tests for error handling, --strict, chaos, and study resume."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.exceptions import ParameterError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL = (
    "--n", "400", "--d", "8", "--clusters", "3",
    "--k", "3", "--l", "3", "--a", "20", "--b", "4",
)


class TestErrorHandling:
    def test_bad_parameter_combo_exits_2_with_one_line_message(self, capsys):
        code, _, err = run(capsys, "cluster", "--n", "100", "--k", "200")
        assert code == 2
        assert "repro: error:" in err
        assert "potential medoids" in err
        assert "--strict" in err  # points at the escape hatch

    def test_strict_reraises(self, capsys):
        with pytest.raises(ParameterError):
            main(["--strict", "cluster", "--n", "100", "--k", "200"])

    def test_bad_input_file_exits_2(self, capsys, tmp_path):
        bogus = tmp_path / "missing.npy"
        code, _, err = run(
            capsys, "cluster", *SMALL, "--save-labels",
            str(tmp_path / "no" / "such" / "dir" / "x.npy"),
        )
        assert code == 2
        assert "repro: error:" in err
        assert bogus.exists() is False

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.cli import info

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(info, "run", interrupted)
        # main() rebuilds the parser, so the patched handler is bound.
        code = cli.main(["info"])
        assert code == 130
        assert "interrupted" in capsys.readouterr().err


class TestStudyResume:
    def test_checkpoint_then_resume(self, capsys, tmp_path):
        directory = tmp_path / "ckpt"
        argv = (
            "study", *SMALL, "--ks", "4", "3", "--ls", "3",
            "--checkpoint-dir", str(directory),
        )
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "checkpoints in" in out
        assert (directory / "manifest.json").exists()

        code, resumed_out, _ = run(capsys, *argv, "--resume")
        assert code == 0
        assert "resume" in resumed_out
        # The resumed study reports the identical costs.
        table = [line for line in out.splitlines() if line.startswith("   ")]
        resumed_table = [
            line for line in resumed_out.splitlines() if line.startswith("   ")
        ]
        assert table == resumed_table

    def test_resume_without_dir_exits_2(self, capsys):
        code, _, err = run(capsys, "study", *SMALL, "--ks", "3", "--ls", "3",
                           "--resume")
        assert code == 2
        assert "checkpoint_dir" in err

    def test_resilient_flag_accepted(self, capsys):
        code, out, _ = run(
            capsys, "study", *SMALL, "--ks", "3", "--ls", "3", "--resilient"
        )
        assert code == 0
        assert "best:" in out


class TestChaos:
    def test_sweep_single_backend_ok(self, capsys, tmp_path):
        log = tmp_path / "chaos.json"
        code, out, _ = run(
            capsys, "chaos", *SMALL, "--backends", "gpu-fast",
            "--json", str(log),
        )
        assert code == 0
        assert "all 5 injected runs completed" in out
        payload = json.loads(log.read_text())
        assert payload["schema"] == "repro.chaos/1"
        assert payload["ok"] is True
        assert len(payload["rows"]) == 5
        for row in payload["rows"]:
            assert row["ok"] and row["identical"] and row["along_ladder"]
            assert row["fired"] >= 1
            assert row["injected"]  # the raw injection records

    def test_custom_fault_spec(self, capsys):
        code, out, _ = run(
            capsys, "chaos", *SMALL, "--backends", "gpu",
            "--fault", "transient@*#2",
        )
        assert code == 0
        assert "custom" in out

    def test_clean_fleet_sweep_records_nothing(self, capsys, tmp_path):
        log, record = tmp_path / "fleet_chaos.json", tmp_path / "pm"
        code, out, _ = run(
            capsys, "chaos", "--fleet", "--devices", "2", *SMALL,
            "--json", str(log), "--record-dir", str(record),
        )
        assert code == 0
        assert "all 8 device-loss runs recovered" in out
        payload = json.loads(log.read_text())
        assert payload["mode"] == "fleet" and payload["devices"] == 2
        assert [row["scenario"] for row in payload["rows"][:4]] == [
            "down-dev0@upload", "down-dev0@iterate",
            "down-dev1@upload", "down-dev1@iterate",
        ]
        for row in payload["rows"]:
            assert row["ok"] and row["identical"] and row["fired"] >= 1
            assert row["resharded"] or row["degraded"]
        assert not list(record.glob("postmortem-*.json"))

    @pytest.mark.parametrize("mode,backend,rows", [
        ((), "gpu-fast", 5),
        (("--fleet", "--devices", "2"), "fleet-gpu-fast", 4),
    ], ids=["solo", "fleet"])
    def test_record_dir_dumps_a_bundle_per_violation(
        self, capsys, tmp_path, monkeypatch, mode, backend, rows
    ):
        import dataclasses

        import repro.core.api as api

        real = api.proclus

        def wrong_reference(*args, **kwargs):
            result = real(*args, **kwargs)
            return dataclasses.replace(result, cost=result.cost + 1.0)

        # Every row now differs from its fault-free reference.
        monkeypatch.setattr(api, "proclus", wrong_reference)
        record = tmp_path / "pm"
        code, out, _ = run(
            capsys, "chaos", *mode, *SMALL, "--backends", backend,
            "--record-dir", str(record),
        )
        assert code == 1
        assert f"{rows}/{rows}" in out
        bundles = sorted(record.glob("postmortem-chaos-contract-*.json"))
        assert len(bundles) == rows
        bundle = json.loads(bundles[0].read_text())
        assert bundle["failure"]["reason"] == "chaos-contract"

    def test_unparseable_fault_exits_2(self, capsys):
        code, _, err = run(
            capsys, "chaos", *SMALL, "--backends", "gpu",
            "--fault", "explode@everything",
        )
        assert code == 2
        assert "repro: error:" in err
