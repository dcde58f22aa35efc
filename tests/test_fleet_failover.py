"""Health-aware failover: quarantine serving, re-shard recovery SLOs,
event-log determinism, and graceful shutdown of a fleet-backed service.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import proclus
from repro.exceptions import ServeError
from repro.fleet import default_fleet
from repro.obs import use_run
from repro.params import ProclusParams
from repro.resilience import (
    FaultInjector,
    ResilientRunner,
    RetryPolicy,
)

PARAMS = ProclusParams(k=4, l=3)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    return rng.normal(size=(400, 8)).astype(np.float32)


class TestQuarantineServing:
    def _service(self, tmp_path=None, devices=3):
        from repro.serve import ClusterService

        return ClusterService(
            fleet=default_fleet(devices),
            monitor_dir=None if tmp_path is None else tmp_path / "mon",
        )

    def test_sharded_jobs_reshard_around_quarantine(self, data):
        solo = proclus(data, params=PARAMS, backend="gpu-fast", seed=0)
        service = self._service()
        try:
            assert service.quarantine_device(1, reason="flaky") is True
            assert service.quarantined_devices == frozenset({1})
            handle = service.submit(
                data, backend="fleet-gpu-fast",
                k=PARAMS.k, l=PARAMS.l, seed=0,
            )
            result = handle.result(timeout=60)
            assert np.array_equal(result.labels, solo.labels)
            assert result.cost == solo.cost
            assert service.stats()["quarantined"] == ["dev1"]
        finally:
            service.close()

    def test_double_quarantine_and_blind_readmit_are_noops(self):
        service = self._service()
        try:
            assert service.quarantine_device(0) is True
            assert service.quarantine_device(0) is False
            assert service.readmit_device(2) is False
        finally:
            service.close()

    def test_cannot_quarantine_the_last_member(self):
        service = self._service(devices=2)
        try:
            service.quarantine_device(0)
            with pytest.raises(ServeError, match="would remain"):
                service.quarantine_device(1)
        finally:
            service.close()

    def test_concurrent_quarantines_never_empty_the_fleet(self, monkeypatch):
        """Two members quarantined at once: exactly one call wins.

        The check for a remaining member is slowed down, so both calls
        are inside it together unless the service serializes them.
        """
        import repro.serve.service as service_module

        check = service_module.degraded_fleet

        def slow_check(*args):
            time.sleep(0.01)
            return check(*args)

        monkeypatch.setattr(service_module, "degraded_fleet", slow_check)
        service = self._service(devices=2)
        barrier = threading.Barrier(2)
        outcomes = []

        def quarantine(index):
            barrier.wait(timeout=10)
            try:
                outcomes.append(service.quarantine_device(index))
            except ServeError:
                outcomes.append("refused")

        try:
            threads = [threading.Thread(target=quarantine, args=(index,))
                       for index in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert sorted(map(str, outcomes)) == ["True", "refused"]
            assert len(service.quarantined_devices) == 1
        finally:
            service.close()

    def test_quarantine_without_fleet_rejected(self):
        from repro.serve import ClusterService

        service = ClusterService()
        try:
            with pytest.raises(ServeError, match="no fleet"):
                service.quarantine_device(0)
        finally:
            service.close()

    def test_availability_and_mttr_reach_the_health_report(self, tmp_path):
        service = self._service(tmp_path)
        try:
            service.quarantine_device(1, reason="maintenance")
            report = service.monitor.flush(service._clock())
            by_name = {slo["name"]: slo for slo in report["slos"]}
            assert by_name["fleet-availability"]["value"] == pytest.approx(
                2 / 3
            )
            time.sleep(0.02)
            service.readmit_device(1)
        finally:
            health = service.shutdown()
        by_name = {slo["name"]: slo for slo in health["slos"]}
        assert by_name["fleet-availability"]["value"] == 1.0
        assert by_name["fleet-mttr"]["value"] > 0.0
        counters = health["service"]["counters"]
        assert counters["fleet.quarantined"] == 1
        assert counters["fleet.readmitted"] == 1

    def test_reshard_recovery_reaches_the_mttr_slo(self, data, tmp_path):
        """Regression: a job that re-sharded after a device loss counted
        its recovery on the metrics but left ``fleet-mttr`` at 0.0."""
        from repro.serve import ClusterService

        service = ClusterService(
            fleet=default_fleet(3), monitor_dir=tmp_path / "mon",
            injector=FaultInjector(["device-down@dev1#3"]),
        )
        outcomes = []
        fit = service.runner.fit

        def recording_fit(*args, **kwargs):
            outcomes.append(fit(*args, **kwargs))
            return outcomes[-1]

        service.runner.fit = recording_fit
        try:
            service.submit(
                data, backend="fleet-gpu-fast",
                k=PARAMS.k, l=PARAMS.l, seed=0,
            ).result(timeout=60)
        finally:
            health = service.shutdown()
        (reshard,) = [
            event for outcome in outcomes for event in outcome.events
            if event.kind == "reshard"
        ]
        assert reshard.recovery_s > 0.0
        by_name = {slo["name"]: slo for slo in health["slos"]}
        assert by_name["fleet-mttr"]["value"] == reshard.recovery_s
        counters = health["service"]["counters"]
        assert counters["fleet.recovery.reshards"] == 1
        assert counters["fleet.recovery.mttr_seconds"] == reshard.recovery_s

    def test_device_events_logged(self, tmp_path):
        from repro.obs.monitor import read_monitor_events

        service = self._service(tmp_path)
        try:
            service.quarantine_device(2, reason="ecc errors")
            service.readmit_device(2)
        finally:
            service.shutdown()
        records = read_monitor_events(tmp_path / "mon")
        kinds = [record["kind"] for record in records]
        assert "device_down" in kinds and "device_recovered" in kinds


class TestEventLogDeterminism:
    """Identical seeds + schedules produce identical resilience event
    logs — the satellite-4 contract.  ``recovery_s`` is wall-clock and
    explicitly excluded (zeroed before comparison)."""

    SCHEDULES = (
        ["device-down@dev1#8"],
        ["device-down@dev0#1", "device-down@dev1#4"],
        ["transient@*dev2*#3", "device-down@dev0#20"],
    )

    def _events(self, data, schedule):
        with use_run(injector=FaultInjector(schedule, seed=0)):
            outcome = ResilientRunner(RetryPolicy()).fit(
                data, backend="fleet-gpu-fast", params=PARAMS, seed=0,
                engine_kwargs={"fleet": 3},
            )
        payload = [event.as_dict() for event in outcome.events]
        for record in payload:
            record["recovery_s"] = 0.0
        return payload

    @pytest.mark.parametrize("schedule", SCHEDULES,
                             ids=["single-loss", "double-loss", "mixed"])
    def test_identical_runs_identical_logs(self, data, schedule):
        first = self._events(data, schedule)
        second = self._events(data, schedule)
        assert first == second
        assert any(record["kind"] == "reshard" for record in first)

    def test_logs_are_json_serializable(self, data):
        payload = self._events(data, ["device-down@dev2#5"])
        json.dumps(payload)


class TestServeSigterm:
    """SIGTERM mid-poll flushes the final monitor snapshot (satellite 3)."""

    def test_sigterm_is_graceful(self, tmp_path):
        from repro.obs import load_health
        from repro.serve.spool import read_response, write_request

        spool = tmp_path / "spool"
        monitor = tmp_path / "mon"
        env = dict(os.environ)
        repo = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(repo / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(spool),
                "--devices", "2", "--monitor-dir", str(monitor),
                "--poll-seconds", "0.05",
            ],
            env=env, cwd=repo,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            # An in-flight sharded job must complete before shutdown.
            write_request(
                spool, "job-sigterm", backend="fleet-gpu-fast",
                k=4, l=3, seed=0,
                synthetic={"n": 600, "d": 8, "clusters": 4},
            )
            deadline = time.monotonic() + 120
            response = None
            while response is None and time.monotonic() < deadline:
                time.sleep(0.1)
                response = read_response(spool, "job-sigterm")
            assert response is not None, "serve never answered the request"
            assert response["ok"] is True

            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        # 130 is the documented interrupted-exit code; the finally
        # block in the CLI flushed the final health report on the way.
        assert process.returncode == 130
        health = load_health(monitor)
        assert health["final"] is True
        assert health["service"]["counters"]["serve.requests"] >= 1
        # The handled request was archived, not left in the live spool.
        assert not list((spool / "requests").glob("*.json"))
        assert list((spool / "done").glob("*.json"))
