"""Integration tests for the tracing subsystem.

The two acceptance properties of the observability layer:

* every engine variant emits the *same* span tree for the same input —
  asserted differentially between the vectorized GPU engine and the
  SIMT-emulated engine (whose kernels execute thread by thread);
* instrumentation costs nothing measurable when tracing is disabled.
"""

from __future__ import annotations

import time

import pytest

from repro import BACKENDS
from repro.gpu_impl.emulated_engine import EmulatedGpuFastProclusEngine
from repro.obs import Tracer, use_run


def _signatures(tracer: Tracer) -> tuple:
    return tuple(root.signature() for root in tracer.roots)


class TestDifferentialSpanTree:
    def test_emulated_and_vectorized_trees_identical(
        self, tiny_dataset, tiny_params
    ):
        """Same names, same nesting, same counts — only timing differs."""
        data, _ = tiny_dataset
        trees = {}
        costs = {}
        for name, factory in (
            ("vectorized", BACKENDS["gpu-fast"]),
            ("emulated", EmulatedGpuFastProclusEngine),
        ):
            tracer = Tracer()
            with use_run(tracer=tracer):
                result = factory(params=tiny_params, seed=3).fit(data)
            trees[name] = _signatures(tracer)
            costs[name] = result.cost
        assert trees["vectorized"] == trees["emulated"]
        assert costs["vectorized"] == pytest.approx(costs["emulated"])

    def test_emulated_kernels_on_wall_clock(self, tiny_dataset, tiny_params):
        data, _ = tiny_dataset
        tracer = Tracer()
        with use_run(tracer=tracer):
            EmulatedGpuFastProclusEngine(params=tiny_params, seed=3).fit(data)
        clocks = {event.clock for event in tracer.kernel_events}
        assert clocks == {"wall"}
        for event in tracer.kernel_events:
            assert event.duration >= 0.0
            assert event.grid_blocks >= 1
            assert event.threads_per_block >= 1

    def test_vectorized_kernels_on_modeled_clock(
        self, tiny_dataset, tiny_params
    ):
        data, _ = tiny_dataset
        tracer = Tracer()
        with use_run(tracer=tracer):
            BACKENDS["gpu-fast"](params=tiny_params, seed=3).fit(data)
        assert {e.clock for e in tracer.kernel_events} == {"modeled"}

    def test_emulated_engine_collects_run_trace(
        self, tiny_dataset, tiny_params
    ):
        data, _ = tiny_dataset
        engine = EmulatedGpuFastProclusEngine(
            params=tiny_params, seed=3, collect_trace=True
        )
        result = engine.fit(data)
        assert result.trace is not None
        assert len(result.trace) == result.iterations
        assert result.trace.records[-1].best_cost == pytest.approx(result.cost)


class TestExplicitTracer:
    def test_fit_reports_to_the_tracer_of_its_run(
        self, small_dataset, small_params
    ):
        data, _ = small_dataset
        tracer = Tracer()
        engine = BACKENDS["fast"](params=small_params, seed=0)
        with use_run(tracer=tracer):
            engine.fit(data)
        assert tracer.find_spans("fit")
        assert tracer.find_spans("iteration")

    def test_cpu_backend_emits_spans_but_no_kernels(
        self, small_dataset, small_params
    ):
        data, _ = small_dataset
        tracer = Tracer()
        with use_run(tracer=tracer):
            BACKENDS["proclus"](params=small_params, seed=0).fit(data)
        assert tracer.find_spans("refinement")
        assert tracer.kernel_events == []

    def test_metrics_absorbed_after_fit(self, small_dataset, small_params):
        data, _ = small_dataset
        tracer = Tracer()
        with use_run(tracer=tracer):
            BACKENDS["gpu-fast"](params=small_params, seed=0).fit(data)
        snapshot = tracer.metrics.as_dict()
        assert snapshot["counters"]["runs"] == 1
        assert any(
            name.startswith("phase_seconds.") for name in snapshot["counters"]
        )
        assert any(
            name.startswith("kernel.") for name in snapshot["histograms"]
        )


class TestMultiParamLinks:
    @pytest.fixture(scope="class")
    def traced_study(self):
        from repro.core.multiparam import run_study
        from repro.data.normalize import minmax_normalize
        from repro.data.synthetic import generate_subspace_data
        from repro.params import ParameterGrid, ProclusParams

        ds = generate_subspace_data(
            n=500, d=6, n_clusters=3, subspace_dims=3, seed=5
        )
        data = minmax_normalize(ds.data)
        grid = ParameterGrid(
            ks=(4, 3), ls=(3,), base=ProclusParams(k=4, l=3, a=20, b=4)
        )
        tracer = Tracer()
        with use_run(tracer=tracer):
            run_study(data, BACKENDS["gpu-fast"], grid=grid, level=3, seed=1)
        return tracer

    def test_study_contains_one_setting_span_per_combination(
        self, traced_study
    ):
        assert len(traced_study.find_spans("study")) == 1
        assert len(traced_study.find_spans("setting")) == 2
        assert len(traced_study.find_spans("shared_state")) == 1

    def test_settings_link_to_shared_state(self, traced_study):
        shared_id = traced_study.find_spans("shared_state")[0].span_id
        for setting in traced_study.find_spans("setting"):
            assert shared_id in setting.links

    def test_warm_started_setting_links_to_previous(self, traced_study):
        settings = traced_study.find_spans("setting")
        first, second = settings
        assert first.attrs["warm_start"] is False
        assert second.attrs["warm_start"] is True
        assert first.span_id in second.links

    def test_fit_spans_nest_under_settings(self, traced_study):
        for setting in traced_study.find_spans("setting"):
            assert [c.name for c in setting.children] == ["fit"]


class TestDisabledOverhead:
    def test_disabled_tracing_overhead_under_two_percent(
        self, small_dataset, small_params
    ):
        """Per-span cost of the disabled path, scaled by the spans one
        fit opens, must stay under 2 % of that fit's wall time."""
        data, _ = small_dataset

        started = time.perf_counter()
        engine = BACKENDS["gpu-fast"](params=small_params, seed=0)
        result = engine.fit(data)
        fit_seconds = time.perf_counter() - started

        # Spans an identical traced fit would open.
        tracer = Tracer()
        with use_run(tracer=tracer):
            BACKENDS["gpu-fast"](params=small_params, seed=0).fit(data)
        spans_per_fit = len(tracer.all_spans())

        # Measure the disabled per-span cost directly.
        disabled = Tracer(enabled=False)
        reps = 20_000
        started = time.perf_counter()
        for _ in range(reps):
            with disabled.span("x"):
                pass
        per_span = (time.perf_counter() - started) / reps

        overhead = per_span * spans_per_fit
        assert overhead < 0.02 * fit_seconds, (
            f"disabled tracing would cost {overhead * 1e6:.1f}us over "
            f"{spans_per_fit} spans vs {fit_seconds * 1e3:.1f}ms fit"
        )
        assert result.iterations > 0
