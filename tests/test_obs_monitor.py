"""Tests for SLO tracking and the on-disk service monitor."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import repro.obs.monitor as obs_monitor
from repro.obs import (
    SLOS,
    MetricsRegistry,
    ServiceMonitor,
    SloObjective,
    SloTracker,
    load_health,
    parse_prometheus_text,
    validate_bench_report,
)
from repro.obs.monitor import HEALTH_SCHEMA, read_monitor_events
from repro.serve.events import ServeEvent


def _event(kind: str, ts: float, job_id: int = 1, **kwargs) -> ServeEvent:
    return ServeEvent(ts=ts, kind=kind, job_id=job_id, **kwargs)


class TestSloObjective:
    def test_le_and_eq_semantics(self):
        budget = SloObjective(name="b", metric="m", op="<=", threshold=0.1)
        assert budget.met(0.1) and budget.met(0.0) and not budget.met(0.2)
        hard = SloObjective(name="h", metric="m", op="==", threshold=0.0)
        assert hard.met(0.0) and not hard.met(1.0)

    def test_default_slos_cover_the_objectives(self):
        names = {obj.name for obj in SLOS}
        assert names == {
            "queued-latency-p95", "rejection-rate",
            "determinism-violations", "error-budget-burn",
            "fleet-mttr", "fleet-availability",
        }

    def test_ge_semantics(self):
        floor = SloObjective(name="f", metric="m", op=">=", threshold=0.5)
        assert floor.met(0.5) and floor.met(1.0) and not floor.met(0.4)


class TestSloTracker:
    def test_queued_latency_from_submit_to_start(self):
        tracker = SloTracker()
        tracker.observe(_event("submit", ts=1.0, job_id=7))
        tracker.observe(_event("start", ts=1.4, job_id=7))
        value = tracker.metric_value(
            "queued_latency_p95_seconds", window=60.0, now=2.0
        )
        assert value == pytest.approx(0.4)

    def test_cache_hit_counts_as_zero_wait(self):
        tracker = SloTracker()
        tracker.observe(_event("submit", ts=1.0, job_id=7))
        tracker.observe(_event("cache_hit", ts=1.0, job_id=7))
        value = tracker.metric_value(
            "queued_latency_p95_seconds", window=60.0, now=2.0
        )
        assert value == 0.0

    def test_rejection_rate(self):
        tracker = SloTracker()
        for job_id in range(4):
            tracker.observe(_event("submit", ts=1.0, job_id=job_id))
        tracker.observe(_event("reject", ts=1.1, job_id=3, detail="shed"))
        rate = tracker.metric_value("rejection_rate", window=60.0, now=2.0)
        assert rate == pytest.approx(0.25)

    def test_rate_metrics_respect_the_window(self):
        tracker = SloTracker()
        tracker.observe(_event("submit", ts=1.0, job_id=1))
        tracker.observe(_event("reject", ts=1.0, job_id=1))
        tracker.observe(_event("submit", ts=100.0, job_id=2))
        tracker.observe(_event("start", ts=100.0, job_id=2))
        # At t=100 with a 10 s window the early rejection is gone.
        rate = tracker.metric_value("rejection_rate", window=10.0, now=100.0)
        assert rate == 0.0

    def test_error_budget_burn(self):
        tracker = SloTracker()
        for ts, ok in ((1.0, True), (2.0, True), (3.0, True), (4.0, False)):
            tracker.observe(_event("complete" if ok else "fail", ts=ts))
        burn = tracker.metric_value("error_budget_burn", window=60.0, now=5.0)
        assert burn == pytest.approx(0.25 / 0.01)

    def test_violations_are_window_independent(self):
        tracker = SloTracker()
        tracker.record_violations(2)
        value = tracker.metric_value(
            "determinism_violations", window=1.0, now=1e9
        )
        assert value == 2.0

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO metric"):
            SloTracker().metric_value("nope", window=1.0, now=0.0)

    def test_evaluate_defaults_to_last_event_ts(self):
        tracker = SloTracker()
        tracker.observe(_event("submit", ts=5.5, job_id=1))
        tracker.observe(_event("start", ts=5.5, job_id=1))
        report = tracker.evaluate()
        assert report.now == 5.5
        assert report.ok

    def test_evaluate_fails_on_violation(self):
        tracker = SloTracker()
        tracker.record_violations()
        report = tracker.evaluate(now=1.0)
        assert not report.ok
        by_name = {r.objective.name: r for r in report.results}
        assert not by_name["determinism-violations"].ok
        assert by_name["determinism-violations"].value == 1.0

    def test_report_as_dict_is_json_serializable(self):
        tracker = SloTracker()
        tracker.observe(_event("submit", ts=1.0))
        payload = tracker.evaluate(now=1.0).as_dict()
        json.dumps(payload)
        assert payload["ok"] is True
        assert len(payload["slos"]) == 6


def _an_hour_of_service(requests: int = 10_000) -> list[ServeEvent]:
    """``requests`` jobs spread over an hour of service clock.

    Every job is submitted; a tenth are refused, a tenth answered from
    the cache, and the rest start after a short wait and then complete
    (one in twenty fail).  A device goes down and comes back every five
    minutes, the last time inside the final minute.
    """
    rng = np.random.default_rng(20)
    events = []
    for job_id, submitted in enumerate(np.sort(rng.uniform(0, 3600, requests))):
        submitted = float(submitted)
        events.append(_event("submit", ts=submitted, job_id=job_id))
        fate = rng.random()
        if fate < 0.1:
            events.append(_event("reject", ts=submitted + 0.01, job_id=job_id))
        elif fate < 0.2:
            events.append(_event("cache_hit", ts=submitted, job_id=job_id))
        else:
            started = submitted + float(rng.exponential(0.2))
            events.append(_event("start", ts=started, job_id=job_id))
            kind = "fail" if rng.random() < 0.05 else "complete"
            events.append(_event(kind, ts=started + 0.1, job_id=job_id))
    for down in (*range(100, 3600, 300), 3570):
        events.append(_event("device_down", ts=down, detail="dev1"))
        events.append(_event("device_recovered", ts=down + 20, detail="dev1"))
    return sorted(events, key=lambda event: event.ts)


class TestSloTrackerRetention:
    def test_keeps_one_window_and_reports_as_if_untrimmed(self):
        events = _an_hour_of_service()
        tracker = SloTracker()
        # A tracker keeping two hours of samples keeps the whole hour.
        untrimmed = SloTracker()
        untrimmed._horizon = 7200.0
        for event in events:
            tracker.observe(event)
            untrimmed.observe(event)
        latest = events[-1].ts
        window = max(obj.window_seconds for obj in SLOS)
        samples = {
            "queued": [ts for ts, _ in tracker._queued],
            "submits": list(tracker._submits),
            "rejects": list(tracker._rejects),
            "outcomes": [ts for ts, _ in tracker._outcomes],
            "recoveries": [ts for ts, _ in tracker._recoveries],
        }
        for name, stamps in samples.items():
            assert stamps, name
            assert min(stamps) >= latest - window, name
        assert len(untrimmed._submits) == 10_000
        assert len(tracker._submits) < 1_000

        report = {r.objective.name: r for r in tracker.evaluate(now=latest).results}
        reference = {
            r.objective.name: r for r in untrimmed.evaluate(now=latest).results
        }
        assert set(report) == {obj.name for obj in SLOS}
        for name, result in report.items():
            assert result.value == reference[name].value, name
            assert result.ok == reference[name].ok, name


class TestServiceMonitor:
    def _drive(self, monitor: ServiceMonitor) -> None:
        monitor.on_event(_event("submit", ts=0.1, job_id=1))
        monitor.on_event(_event("start", ts=0.2, job_id=1))
        monitor.on_event(_event("complete", ts=0.5, job_id=1))

    def test_writes_all_four_files(self, tmp_path):
        monitor = ServiceMonitor(tmp_path / "mon")
        self._drive(monitor)
        monitor.flush(now=1.0)
        names = {path.name for path in (tmp_path / "mon").iterdir()}
        assert {"events.jsonl", "snapshots.jsonl", "metrics.prom",
                "health.json"} <= names

    def test_event_log_carries_trace_and_span_ids(self, tmp_path):
        monitor = ServiceMonitor(tmp_path)
        monitor.on_event(_event("submit", ts=0.1, job_id=1, span_id=42))
        records = read_monitor_events(tmp_path)
        assert len(records) == 1
        assert records[0]["schema"] == "repro.monitor_event/1"
        assert records[0]["trace_id"] == monitor.trace_id
        assert records[0]["span_id"] == 42
        assert records[0]["kind"] == "submit"

    def test_health_report_envelope_and_content(self, tmp_path):
        monitor = ServiceMonitor(tmp_path)
        self._drive(monitor)
        report = monitor.flush(now=1.0)
        assert report["schema"] == HEALTH_SCHEMA
        assert validate_bench_report(report, HEALTH_SCHEMA) == []
        assert report["final"] is True
        assert report["ok"] is True
        assert report["events"] == 3
        assert len(report["slos"]) == 6
        assert report == load_health(tmp_path)

    def test_violations_flip_health_to_failing(self, tmp_path):
        monitor = ServiceMonitor(tmp_path)
        self._drive(monitor)
        monitor.slo.record_violations(2)
        report = monitor.flush(now=1.0)
        assert report["ok"] is False

    def test_scrape_file_parses_and_reflects_registry(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc(5)
        monitor = ServiceMonitor(tmp_path, metrics=registry)
        monitor.flush(now=0.0)
        scraped = parse_prometheus_text(
            (tmp_path / "metrics.prom").read_text()
        )
        assert scraped["counters"]["repro_serve_requests"] == 5.0

    def test_snapshot_throttling(self, tmp_path):
        monitor = ServiceMonitor(tmp_path)
        assert monitor.maybe_snapshot(0.0) is True
        assert monitor.maybe_snapshot(0.5) is False
        assert monitor.maybe_snapshot(1.0) is True

    def test_health_only_surfaces_serve_counters(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc(1)
        registry.counter("gpu.flops").inc(1e9)
        monitor = ServiceMonitor(tmp_path, metrics=registry)
        report = monitor.flush(now=0.0)
        assert "serve.requests" in report["service"]["counters"]
        assert "gpu.flops" not in report["service"]["counters"]

    def test_init_truncates_previous_lifetime_logs(self, tmp_path):
        first = ServiceMonitor(tmp_path)
        first.on_event(_event("submit", ts=0.1))
        ServiceMonitor(tmp_path)
        assert read_monitor_events(tmp_path) == []


class TestReaderSide:
    def test_load_health_missing_raises_with_hint(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no health report"):
            load_health(tmp_path)

    def test_read_monitor_events_missing_dir(self, tmp_path):
        assert read_monitor_events(tmp_path / "nope") == []


class TestServiceIntegration:
    """ClusterService wired to a monitor directory."""

    def _run_service(self, tmp_path, violations: int = 0):
        import numpy as np

        from repro.serve import ClusterService

        rng = np.random.default_rng(0)
        data = rng.normal(size=(400, 6))
        service = ClusterService(monitor_dir=tmp_path / "mon")
        handle = service.submit(data, backend="gpu-fast", k=3, l=3, seed=0)
        handle.result(timeout=60)
        service.drain()
        if violations:
            service.record_violations(violations)
        return service, service.shutdown()

    def test_shutdown_flushes_final_health(self, tmp_path):
        service, health = self._run_service(tmp_path)
        assert health is not None and health["final"] is True
        assert health == load_health(tmp_path / "mon")
        assert health["ok"] is True
        assert health["service"]["counters"]["serve.requests"] >= 1

    def test_events_logged_with_span_ids(self, tmp_path):
        self._run_service(tmp_path)
        records = read_monitor_events(tmp_path / "mon")
        kinds = [record["kind"] for record in records]
        assert "submit" in kinds and "complete" in kinds
        assert all(record["span_id"] is not None for record in records)
        assert len({record["trace_id"] for record in records}) == 1

    def test_recorded_violations_reach_the_health_report(self, tmp_path):
        _, health = self._run_service(tmp_path, violations=3)
        assert health["ok"] is False
        by_name = {slo["name"]: slo for slo in health["slos"]}
        assert by_name["determinism-violations"]["value"] == 3.0
        counters = health["service"]["counters"]
        assert counters["serve.determinism.violations"] == 3

    def test_violation_breach_dumps_one_bundle(self, tmp_path):
        import numpy as np

        from repro.obs import load_bundle
        from repro.serve import ClusterService

        data = np.random.default_rng(0).normal(size=(400, 6))
        service = ClusterService(
            monitor_dir=tmp_path / "mon", postmortem_dir=tmp_path / "pm"
        )
        service.submit(data, backend="gpu-fast", k=3, l=3, seed=0).result(
            timeout=60
        )
        service.drain()
        service.record_violations(1)
        service.monitor.snapshot()
        service.shutdown()  # a second failing report dumps nothing more
        (path,) = (tmp_path / "pm").glob("postmortem-*.json")
        failure = load_bundle(path)["failure"]
        assert failure["reason"] == "slo-breach"
        assert failure["detail"] == "failing: determinism-violations"

    def test_service_without_monitor_dir_shutdown_returns_none(self):
        import numpy as np

        from repro.serve import ClusterService

        rng = np.random.default_rng(0)
        data = rng.normal(size=(200, 5))
        service = ClusterService()
        handle = service.submit(data, backend="gpu-fast", k=3, l=3, seed=0)
        handle.result(timeout=60)
        assert service.shutdown() is None


class TestLogRotation:
    """Rotation under a small cap: each test shrinks ``MAX_LOG_BYTES``."""

    @pytest.fixture(autouse=True)
    def _no_periodic_snapshots(self, monkeypatch):
        # Events one second apart would otherwise snapshot on each one.
        monkeypatch.setattr(obs_monitor, "SNAPSHOT_EVERY_S", math.inf)

    def _flood(self, monitor: ServiceMonitor, count: int) -> None:
        for index in range(count):
            monitor.on_event(_event("submit", ts=float(index), job_id=index))

    def test_long_run_keeps_directory_under_the_cap(
        self, tmp_path, monkeypatch
    ):
        cap = 8192
        monkeypatch.setattr(obs_monitor, "MAX_LOG_BYTES", cap)
        monitor = ServiceMonitor(tmp_path)
        self._flood(monitor, 2000)
        total = sum(
            path.stat().st_size for path in tmp_path.glob("events.jsonl*")
        )
        # Each segment may overshoot its budget by at most one record.
        longest = max(
            len(line) + 1
            for path in tmp_path.glob("events.jsonl*")
            for line in path.read_text().splitlines()
        )
        assert total <= cap + 4 * longest
        assert list(tmp_path.glob("events.jsonl.*"))  # rotation happened

    def test_read_monitor_events_spans_rotated_segments(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(obs_monitor, "MAX_LOG_BYTES", 4096)
        monitor = ServiceMonitor(tmp_path)
        self._flood(monitor, 300)
        assert list(tmp_path.glob("events.jsonl.*"))
        ids = [record["job_id"] for record in read_monitor_events(tmp_path)]
        # Oldest-first across segments, newest record present, and the
        # kept window is a contiguous tail of the stream.
        assert ids and ids[-1] == 299
        assert ids == list(range(ids[0], 300))

    def test_snapshots_rotate_too(self, tmp_path, monkeypatch):
        monkeypatch.setattr(obs_monitor, "MAX_LOG_BYTES", 2048)
        monitor = ServiceMonitor(tmp_path)
        for index in range(100):
            monitor.snapshot(now=float(index))
        total = sum(
            path.stat().st_size for path in tmp_path.glob("snapshots.jsonl*")
        )
        longest = max(
            len(line) + 1
            for path in tmp_path.glob("snapshots.jsonl*")
            for line in path.read_text().splitlines()
        )
        assert total <= 2048 + 4 * longest
        assert list(tmp_path.glob("snapshots.jsonl.*"))

    def test_init_unlinks_rotated_segments_from_previous_lifetime(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(obs_monitor, "MAX_LOG_BYTES", 2048)
        monitor = ServiceMonitor(tmp_path)
        self._flood(monitor, 200)
        assert list(tmp_path.glob("events.jsonl.*"))
        ServiceMonitor(tmp_path)
        assert list(tmp_path.glob("events.jsonl.*")) == []
        assert read_monitor_events(tmp_path) == []


class TestUnhealthyHook:
    def test_hook_fires_on_failing_report_outside_the_lock(self, tmp_path):
        monitor = ServiceMonitor(tmp_path)
        seen = []
        monitor.on_unhealthy = seen.append
        monitor.slo.record_violations(1)
        monitor.snapshot(now=1.0)
        assert len(seen) == 1 and seen[0]["ok"] is False
        # A hook that itself snapshots must not deadlock.
        monitor.on_unhealthy = lambda report: monitor.snapshot(now=2.0)

    def test_hook_not_called_while_healthy(self, tmp_path):
        monitor = ServiceMonitor(tmp_path)
        monitor.on_unhealthy = lambda report: (_ for _ in ()).throw(
            AssertionError("must not fire")
        )
        monitor.on_event(_event("submit", ts=0.1))
        monitor.on_event(_event("start", ts=0.2))
        monitor.snapshot(now=1.0)

    def test_hook_exceptions_are_swallowed(self, tmp_path):
        monitor = ServiceMonitor(tmp_path)

        def explode(report):
            raise RuntimeError("hook bug")

        monitor.on_unhealthy = explode
        monitor.slo.record_violations(1)
        report = monitor.snapshot(now=1.0)
        assert report["ok"] is False  # snapshot survived the hook bug
