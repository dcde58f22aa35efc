"""Differential replay tests: crash bundles reproduce their failures.

The acceptance contract of the postmortem subsystem: for each terminal
failure class — solo OOM exhaustion, fleet device loss, and a loadgen
determinism violation — the dumped bundle alone must deterministically
re-execute the recorded job and reproduce the recorded error class
with a bit-identical resilience event log (modulo wall-clock fields),
or, for violations recorded without an error, the recorded solo bits.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import PostmortemError, ResilienceExhaustedError
from repro.obs import (
    FlightRecorder,
    analyze_bundle,
    comparable_events,
    load_bundle,
    replay_bundle,
    use_run,
    validate_postmortem,
)
from repro.params import ProclusParams
from repro.resilience import (
    FaultInjector,
    ResilientRunner,
    RetryPolicy,
)


def _data(n: int = 500, d: int = 8, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, d))


def _crash(
    tmp_path,
    *,
    backend: str,
    schedule: tuple[str, ...],
    engine_kwargs: dict | None = None,
    policy: RetryPolicy | None = None,
) -> dict:
    """Run a fit to terminal failure under a recorder; load the bundle."""
    recorder = FlightRecorder(capacity=64, bundle_dir=tmp_path)
    policy = policy or RetryPolicy(max_retries=1, allow_degraded=False)
    runner = ResilientRunner(policy)
    injector = FaultInjector(schedule, seed=0)
    with use_run(recorder=recorder, injector=injector):
        with pytest.raises(ResilienceExhaustedError) as excinfo:
            runner.fit(
                _data(),
                backend=backend,
                params=ProclusParams(k=3, l=3, a=10, b=4),
                seed=7,
                engine_kwargs=engine_kwargs or {},
            )
    assert recorder.dump_count == 1
    bundle = load_bundle(tmp_path)
    bundle["_recorded_error"] = excinfo.value
    return bundle


class TestSoloOomExhaustion:
    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        return _crash(
            tmp_path_factory.mktemp("oom"),
            backend="gpu-fast",
            schedule=("oom#1+*",),
        )

    def test_bundle_validates(self, bundle):
        assert validate_postmortem(bundle) == []

    def test_bundle_records_the_failure_and_schedule(self, bundle):
        assert bundle["failure"]["reason"] == "resilience-exhausted"
        assert bundle["failure"]["error_type"] == "ResilienceExhaustedError"
        assert bundle["failure"]["last_error_type"] == "DeviceOutOfMemoryError"
        assert bundle["fault_schedule"]["specs"]
        assert bundle["job"]["backend"] == "gpu-fast"
        assert bundle["dataset"]["data_b64"]

    def test_analysis_names_the_oom_fault(self, bundle):
        analysis = analyze_bundle(bundle)
        assert analysis["reason"] == "resilience-exhausted"
        assert analysis["suspects"]["fault"]["kind"] == "oom"
        assert analysis["replayable"] is True

    def test_replay_reproduces_the_error_class_and_event_log(self, bundle):
        report = replay_bundle(bundle)
        assert report["reproduced"] is True, report["detail"]
        assert report["observed_error_type"] == "ResilienceExhaustedError"
        assert report["observed_last_error_type"] == "DeviceOutOfMemoryError"
        assert report["events_match"] is True

    def test_differential_recorded_vs_replayed_events(self, bundle):
        """The recorded exception's own event log equals the bundle's
        (the dump did not lose or reorder anything)."""
        recorded = comparable_events(
            [event.as_dict() for event in bundle["_recorded_error"].events]
        )
        assert recorded == comparable_events(bundle["failure"]["events"])

    def test_tampered_bundle_fails_to_reproduce(self, bundle):
        tampered = json.loads(
            json.dumps({k: v for k, v in bundle.items() if k != "_recorded_error"})
        )
        tampered["failure"]["error_type"] = "KernelTimeoutError"
        report = replay_bundle(tampered)
        assert report["reproduced"] is False
        assert "KernelTimeoutError" in report["detail"]


class TestFleetDeviceDown:
    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        return _crash(
            tmp_path_factory.mktemp("devdown"),
            backend="fleet-gpu-fast",
            schedule=("device-down@dev1",),
            engine_kwargs={"fleet": 2},
            policy=RetryPolicy(
                max_retries=1, allow_degraded=False, max_reshards=0
            ),
        )

    def test_bundle_validates(self, bundle):
        assert validate_postmortem(bundle) == []

    def test_analysis_names_the_lost_device(self, bundle):
        analysis = analyze_bundle(bundle)
        assert analysis["suspects"]["fault"]["kind"] == "device-down"
        assert analysis["suspects"]["device"] == "dev1"
        assert analysis["failure"]["last_error_type"] == "DeviceLostError"

    def test_replay_reproduces_the_device_loss(self, bundle):
        report = replay_bundle(bundle)
        assert report["reproduced"] is True, report["detail"]
        assert report["observed_error_type"] == "ResilienceExhaustedError"
        assert report["observed_last_error_type"] == "DeviceLostError"
        assert report["events_match"] is True

    def test_max_reshards_zero_made_the_loss_terminal(self, bundle):
        assert bundle["job"]["policy"]["max_reshards"] == 0


class TestDeterminismViolationReplay:
    @pytest.fixture(scope="class")
    def report_and_bundle(self, tmp_path_factory):
        """Force the loadgen oracle to flag every response as divergent
        (the service is actually deterministic, so the recorded solo
        digest is the truth the replay can reproduce)."""
        import repro.serve.loadgen as loadgen_module
        from repro.serve import run_loadgen

        directory = tmp_path_factory.mktemp("determinism")
        original = loadgen_module.bit_identical
        loadgen_module.bit_identical = lambda served, reference: False
        try:
            report = run_loadgen(
                num_requests=4,
                seed=0,
                workers=1,
                n=300,
                d=6,
                clusters=3,
                postmortem_dir=directory,
            )
        finally:
            loadgen_module.bit_identical = original
        return report, load_bundle(directory)

    def test_loadgen_report_names_the_bundle(self, report_and_bundle):
        report, bundle = report_and_bundle
        assert report["ok"] is False
        assert report["determinism"]["violations"]
        assert report["postmortem_bundle"] == bundle["_path"]

    def test_bundle_validates_and_has_reference_digest(
        self, report_and_bundle
    ):
        _, bundle = report_and_bundle
        assert validate_postmortem(bundle) == []
        assert bundle["failure"]["reason"] == "determinism-violation"
        assert bundle["failure"]["error_type"] == ""  # no exception raised
        assert bundle["reference_digest"]
        assert bundle["fault_schedule"] is None

    def test_replay_reproduces_the_solo_bits(self, report_and_bundle):
        _, bundle = report_and_bundle
        report = replay_bundle(bundle)
        assert report["reproduced"] is True, report["detail"]
        assert report["digest_match"] is True
        assert report["observed_digest"] == bundle["reference_digest"]

    def test_corrupted_reference_digest_fails_the_replay(
        self, report_and_bundle
    ):
        _, bundle = report_and_bundle
        tampered = dict(bundle)
        tampered["reference_digest"] = "0" * 64
        report = replay_bundle(tampered)
        assert report["reproduced"] is False
        assert "digest" in report["detail"]


class TestBundleErrors:
    def test_load_missing_bundle_raises(self, tmp_path):
        with pytest.raises(PostmortemError, match="no postmortem"):
            load_bundle(tmp_path)

    def test_load_bad_json_raises(self, tmp_path):
        path = tmp_path / "postmortem-x-001.json"
        path.write_text("{nope")
        with pytest.raises(PostmortemError, match="not valid JSON"):
            load_bundle(path)

    def test_replay_without_job_context_raises(self, tmp_path):
        recorder = FlightRecorder(capacity=4, bundle_dir=tmp_path)
        recorder.record_failure("mystery")
        path = recorder.dump("mystery")
        bundle = load_bundle(path)
        assert validate_postmortem(bundle) == []
        with pytest.raises(PostmortemError, match="no replayable job"):
            replay_bundle(bundle)

    def test_analyze_rejects_invalid_bundles(self):
        with pytest.raises(PostmortemError, match="failed validation"):
            analyze_bundle({"schema": "repro.postmortem/1"})

    def test_dataset_fingerprint_mismatch_detected(self, tmp_path):
        bundle = _crash(
            tmp_path, backend="gpu-fast", schedule=("oom#1+*",)
        )
        tampered = json.loads(
            json.dumps(
                {k: v for k, v in bundle.items() if k != "_recorded_error"}
            )
        )
        payload = tampered["dataset"]["data_b64"]
        tampered["dataset"]["data_b64"] = payload[:-8] + payload[:8]
        with pytest.raises(PostmortemError):
            replay_bundle(tampered)
