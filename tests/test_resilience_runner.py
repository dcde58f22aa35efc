"""Tests for the resilient runner: retry, degradation, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro import proclus
from repro.exceptions import (
    DataValidationError,
    DeviceOutOfMemoryError,
    KernelLaunchError,
    KernelTimeoutError,
    ParameterError,
    ReproError,
    ResilienceExhaustedError,
    TransferCorruptionError,
    TransientDeviceError,
)
from repro.obs import use_run
from repro.resilience import (
    DEFAULT_LADDERS,
    ErrorClass,
    FaultInjector,
    LadderStep,
    ResilientRunner,
    RetryPolicy,
    classify_error,
    default_ladder,
    resilient_fit,
)

GPU_BACKENDS = ("gpu", "gpu-fast", "gpu-fast-star")

#: One representative schedule per fault class (all fire early in any
#: GPU run; a gpu-fast run at test scale issues only one transfer, so
#: ``corrupt`` must target the first).
FAULT_SCHEDULES = {
    "oom": ("oom#1",),
    "launch": ("launch#2",),
    "transient": ("transient#2",),
    "corrupt": ("corrupt#1",),
    "timeout": ("timeout#2",),
}


def assert_identical(a, b):
    """Bit-identical clustering results."""
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.medoids, b.medoids)
    assert a.dimensions == b.dimensions  # ragged tuple: no array_equal
    assert a.cost == b.cost


class TestClassification:
    @pytest.mark.parametrize("error,expected", [
        (DeviceOutOfMemoryError(100, 10, 50), ErrorClass.CAPACITY),
        (TransientDeviceError("x"), ErrorClass.TRANSIENT),
        (TransferCorruptionError("x"), ErrorClass.TRANSIENT),
        (KernelTimeoutError("x"), ErrorClass.TRANSIENT),
        (KernelLaunchError("x"), ErrorClass.TRANSIENT),
        (DataValidationError("x"), ErrorClass.FATAL),
        (ParameterError("x"), ErrorClass.FATAL),
        (ReproError("x"), ErrorClass.FATAL),
        (RuntimeError("x"), ErrorClass.FATAL),
    ])
    def test_classify(self, error, expected):
        assert classify_error(error) is expected


class TestPolicy:
    def test_default_ladders_start_at_their_backend(self):
        for backend, ladder in DEFAULT_LADDERS.items():
            assert ladder[0].backend == backend
            assert ladder[0].engine_kwargs == {}

    def test_gpu_fast_ladder_is_the_documented_one(self):
        rungs = [step.describe() for step in default_ladder("gpu-fast")]
        assert rungs == [
            "gpu-fast",
            "gpu-fast(dist_chunks=2)",
            "gpu-fast(dist_chunks=4)",
            "gpu",
            "fast",
        ]

    def test_unknown_backend_gets_one_rung(self):
        assert default_ladder("proclus") == (LadderStep("proclus"),)

    def test_allow_degraded_false_is_one_rung(self):
        policy = RetryPolicy(allow_degraded=False)
        assert policy.ladder_for("gpu-fast") == (LadderStep("gpu-fast"),)

    def test_backoff_is_deterministic_exponential(self):
        policy = RetryPolicy(backoff_base=0.5)
        assert [policy.backoff_seconds(i) for i in (1, 2, 3)] == [0.5, 1.0, 2.0]
        assert RetryPolicy().backoff_seconds(3) == 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ParameterError):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(ParameterError):
            RetryPolicy(backoff_base=float("nan"))


class TestRecovery:
    def test_transient_retries_same_rung(self, small_dataset, small_params):
        data, _ = small_dataset
        reference = proclus(data, backend="gpu-fast", params=small_params, seed=0)
        injector = FaultInjector(["transient#2"])
        with use_run(injector=injector):
            outcome = resilient_fit(
                data, backend="gpu-fast", params=small_params, seed=0
            )
        assert outcome.attempts == 2
        assert outcome.backend == "gpu-fast"
        assert not outcome.degraded
        assert [event.kind for event in outcome.events] == ["retry"]
        assert outcome.events[0].error_class == "transient"
        assert_identical(outcome.result, reference)

    def test_oom_degrades_to_chunked_dist(self, small_dataset, small_params):
        data, _ = small_dataset
        reference = proclus(data, backend="gpu-fast", params=small_params, seed=0)
        injector = FaultInjector(["oom#1"])
        with use_run(injector=injector):
            outcome = resilient_fit(
                data, backend="gpu-fast", params=small_params, seed=0
            )
        assert outcome.degraded
        assert outcome.rung == "gpu-fast(dist_chunks=2)"
        degrade = [e for e in outcome.events if e.kind == "degrade"][0]
        assert degrade.error_class == "capacity"
        assert degrade.to_rung == "gpu-fast(dist_chunks=2)"
        assert_identical(outcome.result, reference)

    def test_persistent_oom_falls_back_to_cpu(self, small_dataset, small_params):
        data, _ = small_dataset
        reference = proclus(data, backend="gpu-fast", params=small_params, seed=0)
        injector = FaultInjector(["oom#1+*"])  # every allocation fails
        with use_run(injector=injector):
            outcome = resilient_fit(
                data, backend="gpu-fast", params=small_params, seed=0
            )
        assert outcome.backend == "fast"  # bottom of the ladder
        assert outcome.result.stats.backend != reference.stats.backend
        assert_identical(outcome.result, reference)

    def test_exhaustion_raises_with_history(self, small_dataset, small_params):
        data, _ = small_dataset
        injector = FaultInjector(["transient#1+*"])
        policy = RetryPolicy(max_retries=2, allow_degraded=False)
        with use_run(injector=injector):
            with pytest.raises(ResilienceExhaustedError) as info:
                resilient_fit(
                    data, backend="gpu-fast", params=small_params, seed=0,
                    policy=policy,
                )
        error = info.value
        assert isinstance(error.last_error, TransientDeviceError)
        assert len([e for e in error.events if e.kind == "retry"]) == 2

    def test_fatal_errors_pass_through(self, small_dataset, small_params):
        data, _ = small_dataset
        bad = data.copy()
        bad[0, 0] = np.nan
        with pytest.raises(DataValidationError):
            resilient_fit(bad, backend="gpu-fast", params=small_params, seed=0)

    def test_unknown_backend_rejected(self, small_dataset):
        data, _ = small_dataset
        with pytest.raises(ParameterError, match="unknown backend"):
            resilient_fit(data, backend="tpu", seed=0)

    def test_event_as_dict_is_json_ready(self, small_dataset, small_params):
        import json

        data, _ = small_dataset
        with use_run(injector=FaultInjector(["launch#2"])):
            outcome = resilient_fit(
                data, backend="gpu-fast", params=small_params, seed=0
            )
        payload = json.dumps([event.as_dict() for event in outcome.events])
        assert "retry" in payload


class TestDeterminismUnderFaults:
    """The acceptance criterion: every injected run across all three GPU
    backends recovers to the bit-identical fault-free clustering."""

    @pytest.mark.parametrize("backend", GPU_BACKENDS)
    @pytest.mark.parametrize("fault_class", sorted(FAULT_SCHEDULES))
    def test_differential(self, backend, fault_class, small_dataset, small_params):
        data, _ = small_dataset
        reference = proclus(data, backend=backend, params=small_params, seed=0)
        runner = ResilientRunner(RetryPolicy(max_retries=3))
        injector = FaultInjector(FAULT_SCHEDULES[fault_class], seed=0)
        with use_run(injector=injector):
            outcome = runner.fit(
                data, backend=backend, params=small_params, seed=0
            )
        assert injector.injected, "schedule never fired"
        rungs = [step.describe() for step in runner.policy.ladder_for(backend)]
        assert outcome.rung in rungs
        assert_identical(outcome.result, reference)

    def test_faults_leave_no_ambient_state(self, small_dataset, small_params):
        data, _ = small_dataset
        reference = proclus(data, backend="gpu-fast", params=small_params, seed=0)
        injector = FaultInjector(["transient#3"])
        with use_run(injector=injector):
            resilient_fit(data, backend="gpu-fast", params=small_params, seed=0)
        # A later, injector-free run is unaffected.
        again = proclus(data, backend="gpu-fast", params=small_params, seed=0)
        assert_identical(again, reference)
