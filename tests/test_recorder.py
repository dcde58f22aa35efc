"""Tests for the flight recorder: rings, correlation, forwarding.

The recorder is the capture side of the postmortem story (replay is
covered in ``test_postmortem_replay.py``): bounded per-stream rings
with exact recorded/dropped bookkeeping, a correlation ID threaded
through spans/faults/resilience events, and passive forwarding from
the tracer / fault injector / resilient runner — passive meaning the
modeled result is bit-identical with the recorder on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.obs import (
    RECORDER_STREAMS,
    FlightRecorder,
    Tracer,
    current_run,
    use_run,
    validate_postmortem,
)
from repro.obs.tracer import KernelEvent


class TestRings:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ParameterError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_unknown_stream_rejected(self):
        recorder = FlightRecorder(capacity=4)
        with pytest.raises(ParameterError, match="unknown recorder stream"):
            recorder.record("bogus", {"x": 1})

    def test_ring_keeps_only_the_newest_records(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(10):
            recorder.record("spans", {"index": index})
        snapshot = recorder.snapshot()
        kept = [record["index"] for record in snapshot["streams"]["spans"]]
        assert kept == [7, 8, 9]
        assert snapshot["recorded"]["spans"] == 10
        assert snapshot["dropped"]["spans"] == 7

    @settings(max_examples=10, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=64),
        events=st.lists(
            st.sampled_from(RECORDER_STREAMS), min_size=0, max_size=500
        ),
    )
    def test_bounded_memory_under_stress(self, capacity, events):
        recorder = FlightRecorder(capacity=capacity)
        for sequence, stream in enumerate(events):
            recorder.record(stream, {"sequence": sequence})
        snapshot = recorder.snapshot()
        for stream in RECORDER_STREAMS:
            ring = snapshot["streams"][stream]
            assert len(ring) <= capacity
            total = events.count(stream)
            assert snapshot["recorded"][stream] == total
            assert snapshot["dropped"][stream] == total - len(ring)
            # The kept window is the contiguous tail of the stream.
            kept = [record["sequence"] for record in ring]
            assert kept == sorted(kept)

    def test_ten_thousand_events_obey_the_capacity(self):
        recorder = FlightRecorder(capacity=16)
        for sequence in range(10_000):
            recorder.record(
                RECORDER_STREAMS[sequence % len(RECORDER_STREAMS)],
                {"sequence": sequence},
            )
        snapshot = recorder.snapshot()
        assert len(recorder) <= 16 * len(RECORDER_STREAMS)
        assert (
            sum(snapshot["recorded"].values()) == 10_000
            == sum(snapshot["dropped"].values())
            + sum(len(r) for r in snapshot["streams"].values())
        )

    def test_comm_kernels_route_to_the_collectives_stream(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record_kernel(
            KernelEvent("assign", "gpu0:compute", "assign", 0.0, 1e-3)
        )
        recorder.record_kernel(
            KernelEvent("comm.allreduce@dev0", "fleet", "comm", 0.0, 1e-4)
        )
        snapshot = recorder.snapshot()
        assert [r["name"] for r in snapshot["streams"]["kernels"]] == ["assign"]
        assert [r["name"] for r in snapshot["streams"]["collectives"]] == [
            "comm.allreduce@dev0"
        ]


class TestCorrelation:
    def test_default_is_none(self):
        assert current_run().corr is None

    def test_use_run_corr_installs_and_restores(self):
        with use_run(corr="job-7"):
            assert current_run().corr == "job-7"
            with use_run(corr="job-7:r0a1"):
                assert current_run().corr == "job-7:r0a1"
            assert current_run().corr == "job-7"
        assert current_run().corr is None

    def test_records_are_stamped_with_the_ambient_correlation(self):
        recorder = FlightRecorder(capacity=4)
        tracer = Tracer()
        with use_run(recorder=recorder, corr="job-3"):
            with tracer.span("retry"):
                pass
        with use_run(recorder=recorder):
            with tracer.span("degrade"):
                pass
        ring = recorder.snapshot()["streams"]["spans"]
        assert ring[0]["corr"] == "job-3"
        assert "corr" not in ring[1]

    def test_the_recorder_reads_no_ambient_state(self):
        recorder = FlightRecorder(capacity=4)
        with use_run(recorder=recorder, corr="ambient"):
            # A plain sink: only the corr the emitter passes is stamped.
            recorder.record("resilience", {"kind": "retry"}, "job-3")
            recorder.record("resilience", {"kind": "degrade"})
        ring = recorder.snapshot()["streams"]["resilience"]
        assert ring[0]["corr"] == "job-3"
        assert "corr" not in ring[1]

    def test_explicit_corr_wins_over_ambient(self):
        recorder = FlightRecorder(capacity=4)
        with use_run(corr="ambient"):
            recorder.record(
                "serve", {"kind": "submit", "corr": "explicit"},
                current_run().corr,
            )
        assert recorder.snapshot()["streams"]["serve"][0]["corr"] == "explicit"


class TestAmbientRecorder:
    def test_default_is_none(self):
        assert current_run().recorder is None

    def test_use_run_recorder_installs_and_restores(self):
        recorder = FlightRecorder(capacity=4)
        with use_run(recorder=recorder):
            assert current_run().recorder is recorder
        assert current_run().recorder is None

    def test_enabled_tracer_forwards_to_the_recorder(self):
        recorder = FlightRecorder(capacity=32)
        tracer = Tracer()
        with use_run(recorder=recorder, corr="job-1"):
            with tracer.span("phase.assign", category="phase"):
                tracer.kernel(
                    "assign", pipeline="gpu0:compute", phase="assign",
                    start=0.0, duration=1e-3,
                )
                tracer.counter("gpu.flops", 0.0, 1e9)
        snapshot = recorder.snapshot()
        assert [r["name"] for r in snapshot["streams"]["spans"]] == [
            "phase.assign"
        ]
        assert len(snapshot["streams"]["kernels"]) == 1
        assert snapshot["streams"]["counters"][0]["track"] == "gpu.flops"
        assert {
            record["corr"]
            for stream in ("spans", "kernels", "counters")
            for record in snapshot["streams"][stream]
        } == {"job-1"}

    def test_disabled_tracer_forwards_nothing(self):
        recorder = FlightRecorder(capacity=8)
        tracer = Tracer(enabled=False)
        with use_run(recorder=recorder):
            with tracer.span("phase.assign"):
                tracer.counter("gpu.flops", 0.0, 1e9)
        assert len(recorder) == 0

    def test_fault_injections_are_recorded(self):
        from repro.resilience.faults import FaultInjector

        from repro.exceptions import DeviceOutOfMemoryError

        recorder = FlightRecorder(capacity=8)
        injector = FaultInjector(("oom#1",), seed=0)
        with use_run(recorder=recorder, injector=injector, corr="job-2"):
            with pytest.raises(DeviceOutOfMemoryError):
                injector.on_alloc("dist@dev0", 1 << 20, 1 << 30, 1 << 30)
        faults = recorder.snapshot()["streams"]["faults"]
        assert len(faults) == 1
        assert faults[0]["kind"] == "oom"
        assert faults[0]["site"] == "dist@dev0"
        assert faults[0]["sequence"] == 1
        assert faults[0]["corr"] == "job-2"


class TestPassiveOverhead:
    def test_recorder_does_not_change_the_modeled_result(self):
        """Acceptance: the recorder is passive — bit-identical results
        and identical modeled seconds with the recorder on."""
        from repro import proclus

        data = np.random.default_rng(0).normal(size=(500, 8))

        def run(with_recorder: bool):
            tracer = Tracer()
            recorder = FlightRecorder(capacity=64)
            with use_run(
                tracer=tracer, recorder=recorder if with_recorder else None
            ):
                result = proclus(
                    data, backend="gpu-fast", k=3, l=3, seed=0
                )
            return result, recorder

        plain, _ = run(with_recorder=False)
        recorded, recorder = run(with_recorder=True)
        assert np.array_equal(plain.labels, recorded.labels)
        assert plain.cost == recorded.cost
        assert (
            plain.stats.modeled_seconds == recorded.stats.modeled_seconds
        )
        assert len(recorder) > 0  # and it actually captured the run


class TestBundleDump:
    def test_dump_writes_a_valid_unique_bundle(self, tmp_path):
        recorder = FlightRecorder(capacity=8, bundle_dir=tmp_path)
        recorder.record("spans", {"name": "phase.assign"})
        recorder.record_failure("test-failure", detail="synthetic")
        first = recorder.dump("test-failure")
        second = recorder.dump("test-failure")
        assert first != second and first.exists() and second.exists()
        from repro.obs import load_bundle

        bundle = load_bundle(first)
        assert validate_postmortem(bundle) == []
        assert bundle["failure"]["reason"] == "test-failure"
        assert recorder.dump_count == 2

    def test_auto_dump_without_bundle_dir_is_a_noop(self):
        recorder = FlightRecorder(capacity=8)
        assert recorder.auto_dump("whatever") is None

    def test_auto_dump_deduplicates_by_error_identity(self, tmp_path):
        recorder = FlightRecorder(capacity=8, bundle_dir=tmp_path)
        error = RuntimeError("boom")
        assert recorder.auto_dump("first", error) is not None
        assert recorder.auto_dump("second", error) is None
        assert recorder.dump_count == 1
