"""Tests for the ASCII timeline renderer (repro.viz.timeline)."""

from __future__ import annotations

import pytest

from repro import BACKENDS
from repro.obs import Tracer, use_run
from repro.viz import render_device_lanes, render_span_tree, render_timeline


@pytest.fixture(scope="module")
def traced(request):
    from repro.data.normalize import minmax_normalize
    from repro.data.synthetic import generate_subspace_data
    from repro.params import ProclusParams

    ds = generate_subspace_data(
        n=600, d=8, n_clusters=4, subspace_dims=4, std=2.0, seed=7
    )
    data = minmax_normalize(ds.data)
    tracer = Tracer()
    with use_run(tracer=tracer):
        BACKENDS["gpu-fast"](
            params=ProclusParams(k=4, l=3, a=30, b=5), seed=0
        ).fit(data)
    return tracer


class TestSpanTree:
    def test_empty_roots(self):
        assert render_span_tree([]) == "(no spans recorded)"

    def test_contains_phase_names_and_bars(self, traced):
        text = render_span_tree(traced.roots)
        assert "fit" in text
        assert "iterative" in text
        assert "refinement" in text
        assert "#" in text

    def test_elides_long_sibling_runs(self):
        tracer = Tracer()
        with tracer.span("root"):
            for index in range(10):
                with tracer.span("child", index=index):
                    pass
        text = render_span_tree(tracer.roots, max_children=3)
        assert "... 7 more sibling spans" in text
        assert text.count("child") == 3

    def test_max_depth_limits_recursion(self, traced):
        shallow = render_span_tree(traced.roots, max_depth=0)
        assert "iteration" not in shallow
        assert "fit" in shallow


class TestDeviceLanes:
    def test_no_modeled_events(self):
        assert "no modeled kernel launches" in render_device_lanes(Tracer())

    def test_one_lane_per_pipeline(self, traced):
        text = render_device_lanes(traced)
        for pipeline in ("compute_l", "assign_points", "evaluate", "outliers"):
            assert pipeline in text
        assert "launches" in text


class TestTimeline:
    def test_full_timeline_sections(self, traced):
        text = render_timeline(traced)
        assert "device timeline" in text
        assert "final counters" in text
        assert "cache hit-rate" in text

    def test_timeline_without_kernels_or_counters(self):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        text = render_timeline(tracer)
        assert "only" in text
        assert "device timeline" not in text
        assert "final counters" not in text


class TestServeLanes:
    def test_empty_events(self):
        from repro.viz import render_serve_lanes

        assert render_serve_lanes([]) == "(no serve events recorded)"

    def test_synthetic_event_log(self):
        from repro.serve.events import ServeEvent
        from repro.viz import render_serve_lanes

        events = [
            ServeEvent(ts=0.0, kind="submit", queued=1, running=0),
            ServeEvent(ts=0.1, kind="admit", queued=2, running=0),
            ServeEvent(ts=0.2, kind="coalesce", queued=0, running=2),
            ServeEvent(ts=0.3, kind="cache_hit", queued=0, running=2),
            ServeEvent(ts=0.4, kind="reject", queued=0, running=2),
            ServeEvent(ts=0.5, kind="complete", queued=0, running=0),
        ]
        text = render_serve_lanes(events, width=30)
        lines = text.splitlines()
        assert "6 events" in lines[0]
        queued = next(line for line in lines if line.startswith("queued"))
        running = next(line for line in lines if line.startswith("running"))
        marks = next(line for line in lines if line.startswith("events"))
        assert "peak 2" in queued
        assert "2" in running.split("|")[1]
        assert "*" in marks and "h" in marks and "!" in marks
        assert "coalesce=1" in lines[-1]

    def test_accepts_dict_events_and_deep_queues(self):
        from repro.viz import render_serve_lanes

        events = [
            {"ts": float(index), "kind": "submit",
             "queued": index + 8, "running": 0}
            for index in range(6)
        ]
        text = render_serve_lanes(events, width=20)
        assert "+" in text  # depths >= 10 render as '+'
        assert "peak 13" in text

    def test_real_service_log_renders(self):
        import numpy as np

        from repro.serve import ClusterService
        from repro.viz import render_serve_lanes
        from repro.params import ProclusParams

        data = np.random.default_rng(1).random((200, 6)).astype(np.float32)
        with ClusterService(workers=1) as service:
            handle = service.submit(
                data=data, backend="fast",
                params=ProclusParams(k=3, l=3, a=20, b=4),
            )
            handle.result(timeout=120)
            text = render_serve_lanes(service.log.snapshot())
        assert "serve timeline" in text
        assert "running" in text
        assert "submit=1" in text
