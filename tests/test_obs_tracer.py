"""Tests for the span-based tracer (repro.obs.tracer)."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    NULL_TRACER,
    FlightRecorder,
    RunContext,
    Tracer,
    current_run,
    use_run,
)
from repro.resilience import FaultInjector
from repro.obs.tracer import _NOOP_SPAN


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("fit"):
            with tracer.span("iterative"):
                with tracer.span("iteration"):
                    pass
                with tracer.span("iteration"):
                    pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "fit"
        assert [c.name for c in root.children] == ["iterative"]
        assert [c.name for c in root.children[0].children] == [
            "iteration", "iteration",
        ]

    def test_span_ids_are_unique(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        ids = [s.span_id for s in tracer.all_spans()]
        assert len(ids) == len(set(ids)) == 3

    def test_durations_non_negative_and_ordered(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.start <= inner.start
        assert inner.end <= outer.end
        assert outer.duration >= inner.duration >= 0.0

    def test_attrs_set_and_links(self):
        tracer = Tracer()
        with tracer.span("a", k=4) as a:
            pass
        with tracer.span("b") as b:
            b.set(cost=1.5).link(a.span_id).link(None)
        assert a.attrs == {"k": 4}
        assert b.attrs == {"cost": 1.5}
        assert b.links == [a.span_id]

    def test_signature_ignores_timing_and_attrs(self):
        one, two = Tracer(), Tracer()
        for tracer, attr in ((one, 1), (two, 99)):
            with tracer.span("fit", value=attr):
                with tracer.span("phase"):
                    pass
        assert one.roots[0].signature() == two.roots[0].signature()

    def test_find_spans(self):
        tracer = Tracer()
        with tracer.span("fit"):
            with tracer.span("iteration"):
                pass
            with tracer.span("iteration"):
                pass
        assert len(tracer.find_spans("iteration")) == 2
        assert tracer.find_spans("missing") == []

    def test_as_dict_is_json_serializable(self):
        import json

        tracer = Tracer()
        with tracer.span("fit", backend="gpu-fast") as span:
            pass
        payload = json.dumps(span.as_dict())
        assert "gpu-fast" in payload

    def test_exception_unwinds_spans(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        assert tracer.current_span_id() is None
        for span in tracer.all_spans():
            assert span.end is not None

    def test_threads_get_separate_stacks(self):
        tracer = Tracer()
        done = threading.Event()

        def worker():
            with tracer.span("worker-root"):
                done.wait(timeout=5)

        thread = threading.Thread(target=worker)
        with tracer.span("main-root"):
            thread.start()
            while len(tracer.roots) < 2:
                pass
        done.set()
        thread.join()
        names = {root.name for root in tracer.roots}
        assert names == {"main-root", "worker-root"}


class TestDisabledTracer:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything")
        assert span is _NOOP_SPAN
        assert span is tracer.span("other")
        with span as inner:
            assert inner.set(a=1) is inner
            assert inner.link(3) is inner
        assert span.span_id is None
        assert tracer.roots == []

    def test_disabled_kernel_and_counter_record_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.kernel("k", "pipe", "phase", 0.0, 1.0)
        tracer.counter("track", 1.0, 0.0)
        assert tracer.kernel_events == []
        assert tracer.counter_samples == []


class TestAmbientTracer:
    def test_default_is_disabled_null_tracer(self):
        assert current_run() == RunContext()
        assert current_run().tracer is NULL_TRACER
        assert not current_run().tracer.enabled

    def test_use_run_installs_and_restores(self):
        tracer, recorder = Tracer(), FlightRecorder(capacity=4)
        injector = FaultInjector(["oom#1"])
        with use_run(tracer=tracer, recorder=recorder) as outer:
            assert current_run() is outer
            assert outer == RunContext(tracer, recorder, None, None)
            with use_run(injector=injector, corr="job-1"):
                assert current_run() == RunContext(
                    tracer, recorder, injector, "job-1"
                )
            assert current_run() is outer
        assert current_run() == RunContext()

    def test_nested_corr_keeps_the_other_fields(self):
        tracer, recorder = Tracer(), FlightRecorder(capacity=4)
        injector = FaultInjector(["oom#1"])
        with use_run(
            tracer=tracer, recorder=recorder, injector=injector, corr="job-7"
        ):
            with use_run(corr="job-7:r0a1") as inner:
                assert inner.corr == "job-7:r0a1"
                assert inner.tracer is tracer
                assert inner.recorder is recorder
                assert inner.injector is injector
            assert current_run().corr == "job-7"

    def test_a_new_thread_sees_the_default_context(self):
        seen = []
        with use_run(tracer=Tracer(), corr="job-3"):
            thread = threading.Thread(target=lambda: seen.append(current_run()))
            thread.start()
            thread.join()
        assert seen == [RunContext()]

    def test_unknown_field_is_rejected(self):
        with pytest.raises(TypeError):
            with use_run(tracr=Tracer()):
                pass
        assert current_run() == RunContext()


class TestKernelEvents:
    def test_kernel_event_captures_enclosing_span(self):
        tracer = Tracer()
        with tracer.span("fit") as fit:
            tracer.kernel("k1", "compute_l", "compute_l", 0.0, 1e-6)
        tracer.kernel("k2", "compute_l", "compute_l", 1e-6, 1e-6)
        first, second = tracer.kernel_events
        assert first.span_id == fit.span_id
        assert second.span_id is None

    def test_counter_samples_recorded(self):
        tracer = Tracer()
        tracer.counter("cache hit-rate", 0.5, 1.0)
        sample = tracer.counter_samples[0]
        assert (sample.track, sample.ts, sample.value) == (
            "cache hit-rate", 1.0, 0.5,
        )


class TestDeviceOffset:
    def test_zero_without_events(self):
        assert Tracer().device_offset() == 0.0

    def test_max_modeled_end_ignores_wall_clock_events(self):
        import random

        rng = random.Random(5)
        tracer = Tracer()
        for index in range(200):
            clock = "wall" if index % 3 == 0 else "modeled"
            tracer.kernel(
                "k", "compute_l", "compute_l",
                rng.uniform(0.0, 1e-3), rng.uniform(0.0, 1e-3), clock=clock,
            )
            ends = [
                event.start + event.duration
                for event in tracer.kernel_events
                if event.clock == "modeled"
            ]
            assert tracer.device_offset() == max(ends, default=0.0)
        # A wall-clock event ending later does not move the offset.
        before = tracer.device_offset()
        tracer.kernel("emu", "emulated", "compute_l", 1.0, 1.0, clock="wall")
        assert tracer.device_offset() == before

    def test_never_scans_the_recorded_events(self):
        class Unscannable(list):
            def __iter__(self):
                raise AssertionError("kernel_events was iterated")

        tracer = Tracer()
        tracer.kernel_events = Unscannable()
        tracer.kernel("a", "compute_l", "compute_l", 0.0, 2e-6)
        tracer.kernel("b", "compute_l", "compute_l", 1e-6, 5e-6)
        tracer.kernel("c", "compute_l", "compute_l", 3e-6, 1e-6)
        assert tracer.device_offset() == 1e-6 + 5e-6


class TestDisabledOverhead:
    """Satellite: pin the <=2% disabled-overhead claim of the tracer."""

    def test_disabled_span_returns_shared_singleton(self):
        from repro.obs.tracer import _NOOP_SPAN

        tracer = Tracer(enabled=False)
        spans = {id(tracer.span(f"phase.{i}", x=i)) for i in range(50)}
        assert spans == {id(_NOOP_SPAN)}

    def test_disabled_paths_allocate_no_per_call_garbage(self):
        import tracemalloc

        tracer = Tracer(enabled=False)
        # Warm up interned strings / bytecode caches first.
        for _ in range(10):
            with tracer.span("warmup"):
                pass
            tracer.counter("warmup", 0.0, 1.0)
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for index in range(1000):
            with tracer.span("phase.assign"):
                pass
            tracer.counter("gpu.flops", float(index), 1.0)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        grown = sum(
            stat.size_diff
            for stat in after.compare_to(before, "filename")
            if stat.size_diff > 0
        )
        # No per-call garbage: total growth over 2000 no-op calls stays
        # within tracemalloc's own bookkeeping noise, far below even one
        # small object per call.
        assert grown < 16_000

    def test_disabled_span_cost_is_within_two_percent_of_quick_tier(self):
        import time

        import numpy as np

        from repro import proclus
        from repro.obs import use_run

        data = np.random.default_rng(0).normal(size=(600, 8))
        tracer = Tracer(enabled=False)
        with use_run(tracer=tracer):
            start = time.perf_counter()
            proclus(data, backend="gpu-fast", k=3, l=3, seed=0)
            workload = time.perf_counter() - start

        # Count the instrumentation calls the same workload actually
        # makes when tracing is ON: every span, kernel stamp, and
        # counter sample is one call into the tracer.
        enabled = Tracer()
        with use_run(tracer=enabled):
            proclus(data, backend="gpu-fast", k=3, l=3, seed=0)

        def count_spans(spans):
            return sum(1 + count_spans(span.children) for span in spans)

        calls_made = (
            count_spans(enabled.roots)
            + len(enabled.kernel_events)
            + len(enabled.counter_samples)
        )
        assert calls_made > 0

        calls = 200_000
        start = time.perf_counter()
        for _ in range(calls):
            span = tracer.span("phase.assign")
            span.__enter__()
            span.__exit__(None, None, None)
        per_call = (time.perf_counter() - start) / calls
        overhead = per_call * calls_made
        assert overhead < 0.02 * workload, (
            f"disabled span costs {per_call * 1e9:.1f}ns/call; the "
            f"{calls_made} instrumentation calls of this workload would "
            f"be {overhead / workload:.2%} of its {workload * 1e3:.1f}ms"
        )
