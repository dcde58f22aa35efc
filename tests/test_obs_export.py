"""Tests for the trace exporters (repro.obs.export)."""

from __future__ import annotations

import json

import pytest

from repro import BACKENDS
from repro.obs import (
    PIPELINES,
    Tracer,
    chrome_trace,
    kernel_pipeline,
    read_jsonl,
    run_record,
    study_record,
    use_run,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


@pytest.fixture(scope="module")
def traced_run(request):
    """One traced gpu-fast run on a small dataset."""
    from repro.data.normalize import minmax_normalize
    from repro.data.synthetic import generate_subspace_data
    from repro.params import ProclusParams

    ds = generate_subspace_data(
        n=600, d=8, n_clusters=4, subspace_dims=4, std=2.0, seed=7
    )
    data = minmax_normalize(ds.data)
    tracer = Tracer()
    with use_run(tracer=tracer):
        engine = BACKENDS["gpu-fast"](
            params=ProclusParams(k=4, l=3, a=30, b=5), seed=0
        )
        result = engine.fit(data)
    return tracer, result


class TestKernelPipeline:
    def test_known_prefixes(self):
        assert kernel_pipeline("compute_l.distances") == "compute_l"
        assert kernel_pipeline("evaluate_cluster.centroids") == "evaluate"
        assert kernel_pipeline("update_iteration.bad_medoids") == "update"
        assert kernel_pipeline("remove_outliers.thresholds") == "outliers"
        assert kernel_pipeline("refinement.x_sums") == "find_dimensions"

    def test_unknown_prefix_passes_through(self):
        assert kernel_pipeline("custom.thing") == "custom"


class TestChromeTrace:
    def test_trace_from_real_run_is_valid(self, traced_run):
        tracer, _ = traced_run
        trace = chrome_trace(tracer, label="test")
        assert validate_chrome_trace(trace) == []

    def test_all_seven_pipelines_have_device_events(self, traced_run):
        tracer, _ = traced_run
        trace = chrome_trace(tracer)
        device_pids = {
            event["pid"]
            for event in trace["traceEvents"]
            if event.get("cat") == "kernel"
        }
        assert device_pids == {2}
        named_tracks = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M"
            and event["name"] == "thread_name"
            and event["pid"] == 2
        }
        for pipeline in PIPELINES:
            assert pipeline in named_tracks
        kernel_pipelines = {e.pipeline for e in tracer.kernel_events}
        assert set(PIPELINES) <= kernel_pipelines

    def test_counter_tracks_present(self, traced_run):
        tracer, _ = traced_run
        trace = chrome_trace(tracer)
        counter_names = {
            event["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "C"
        }
        assert "cache hit-rate" in counter_names
        assert "bandwidth (GB/s)" in counter_names

    def test_hit_rate_values_are_rates(self, traced_run):
        tracer, _ = traced_run
        for sample in tracer.counter_samples:
            if sample.track == "cache hit-rate":
                assert 0.0 <= sample.value <= 1.0

    def test_trace_round_trips_through_json(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = write_chrome_trace(tracer, tmp_path / "trace.json", label="x")
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []
        assert loaded["otherData"]["label"] == "x"
        assert loaded["otherData"]["kernel_events"] == len(tracer.kernel_events)


class TestValidateChromeTrace:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) != []
        assert validate_chrome_trace({"notEvents": []}) != []

    def test_rejects_missing_ts(self):
        trace = {"traceEvents": [{"ph": "X", "name": "k", "dur": 1.0}]}
        problems = validate_chrome_trace(trace)
        assert any("bad 'ts'" in p for p in problems)

    def test_rejects_negative_duration(self):
        trace = {
            "traceEvents": [
                {"ph": "X", "name": "k", "ts": 0.0, "dur": -1.0, "pid": 1, "tid": 1}
            ]
        }
        problems = validate_chrome_trace(trace)
        assert any("negative 'dur'" in p for p in problems)

    def test_rejects_unmatched_begin_end(self):
        trace = {
            "traceEvents": [
                {"ph": "E", "name": "a", "ts": 1.0, "pid": 1, "tid": 1},
                {"ph": "B", "name": "b", "ts": 2.0, "pid": 1, "tid": 1},
            ]
        }
        problems = validate_chrome_trace(trace)
        assert any("E without matching B" in p for p in problems)
        assert any("never closed" in p for p in problems)

    def test_rejects_partial_overlap_on_one_track(self):
        trace = {
            "traceEvents": [
                {"ph": "X", "name": "a", "ts": 0.0, "dur": 10.0, "pid": 1, "tid": 1},
                {"ph": "X", "name": "b", "ts": 5.0, "dur": 10.0, "pid": 1, "tid": 1},
            ]
        }
        problems = validate_chrome_trace(trace)
        assert any("partially overlaps" in p for p in problems)

    def test_accepts_nested_and_disjoint(self):
        trace = {
            "traceEvents": [
                {"ph": "X", "name": "outer", "ts": 0.0, "dur": 10.0, "pid": 1, "tid": 1},
                {"ph": "X", "name": "inner", "ts": 2.0, "dur": 3.0, "pid": 1, "tid": 1},
                {"ph": "X", "name": "later", "ts": 20.0, "dur": 5.0, "pid": 1, "tid": 1},
            ]
        }
        assert validate_chrome_trace(trace) == []

    def test_rejects_non_numeric_counter(self):
        trace = {
            "traceEvents": [
                {"ph": "C", "name": "c", "ts": 0.0, "pid": 1, "tid": 0,
                 "args": {"value": "high"}},
            ]
        }
        problems = validate_chrome_trace(trace)
        assert any("numeric args" in p for p in problems)


class TestTelemetry:
    def test_run_record_fields(self, traced_run):
        tracer, result = traced_run
        record = run_record(
            result, tracer, label="smoke", seed=0, n=600, d=8
        )
        assert record["schema"] == "repro.telemetry/1"
        assert record["kind"] == "run"
        assert record["backend"] == "gpu-fast-proclus"
        assert record["k"] == 4
        assert record["spans"] > 0
        assert record["kernel_events"] == len(tracer.kernel_events)
        json.dumps(record)

    def test_study_record_fields(self):
        from repro.core.multiparam import run_study
        from repro.data.normalize import minmax_normalize
        from repro.data.synthetic import generate_subspace_data
        from repro.params import ParameterGrid, ProclusParams

        ds = generate_subspace_data(
            n=400, d=6, n_clusters=3, subspace_dims=3, seed=5
        )
        data = minmax_normalize(ds.data)
        grid = ParameterGrid(
            ks=(4, 3), ls=(3,), base=ProclusParams(k=4, l=3, a=20, b=4)
        )
        tracer = Tracer()
        with use_run(tracer=tracer):
            study = run_study(
                data, BACKENDS["gpu-fast"], grid=grid, level=3, seed=1
            )
        record = study_record(study, tracer, label="grid", seed=1)
        assert record["kind"] == "study"
        assert record["settings"] == 2
        assert record["level"] == 3
        json.dumps(record)

    def test_jsonl_round_trip(self, tmp_path):
        records = [{"a": 1}, {"b": [1, 2]}]
        path = write_jsonl(tmp_path / "telemetry.jsonl", records)
        assert read_jsonl(path) == records
        write_jsonl(path, [{"c": 3}], append=True)
        assert read_jsonl(path) == records + [{"c": 3}]
