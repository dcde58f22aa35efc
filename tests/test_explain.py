"""Tests for repro.obs.explain: attribution, diffing, triage, exports.

The load-bearing property is *conservation*: the cost ledger accrues
exact integer units of ``2**-1074`` s, so regrouping the run any way
(per kernel, per phase, per component) re-sums to the run's modeled
seconds bit-for-bit — not approximately, ``==``.  Everything else
(diff zeroes, triage naming the lost cache, flamegraph weights) follows
from that exactness.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

import pytest

from repro.bench.baseline import QUICK_SEEDS, QuickWorkload, run_workload
from repro.bench.regress import compare_workload, run_regression_check
from repro.core import BACKENDS
from repro.fleet import FleetModel, default_fleet, fleet_report
from repro.obs import Tracer, use_run
from repro.obs.explain import (
    EXPLAIN_SCHEMA,
    attribute_run,
    attribution_record,
    collapsed_stacks,
    diff_attribution,
    diff_counters,
    explain_report,
    fleet_attribution,
    format_collapsed,
    speedscope_profile,
    validate_explain_report,
)
from repro.obs.explain.attribution import COMPONENTS
from repro.obs.explain.diff import (
    load_comparable,
    summarize_attribution,
    triage_lines,
)
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.params import ProclusParams
from repro.viz.explain import (
    render_attribution,
    render_diff,
    render_fleet_attribution,
)

EXPLAIN_BACKENDS = (
    "proclus",
    "multicore",
    "gpu",
    "gpu-fast",
    "gpu-fast-star",
    "fleet-gpu",
    "fleet-gpu-fast",
    "fleet-gpu-fast-star",
)


def _fit(backend, data, params, seed=0, tracer=None):
    kwargs = {}
    if backend.startswith("fleet-"):
        kwargs["fleet"] = default_fleet(2)
    with use_run(tracer=tracer if tracer is not None else Tracer(enabled=False)):
        engine = BACKENDS[backend](params=params, seed=seed, **kwargs)
        result = engine.fit(data)
    return engine, result


# ----------------------------------------------------------------------
# Conservation: the acceptance criterion of the attribution layer
# ----------------------------------------------------------------------
class TestConservation:
    @pytest.mark.parametrize("backend", EXPLAIN_BACKENDS)
    def test_bit_level_conservation(self, backend, small_dataset, small_params):
        """Per-kernel per-component seconds re-sum to modeled seconds ==."""
        data, _ = small_dataset
        engine, result = _fit(backend, data, small_params)
        attr = attribute_run(engine.model)
        regrouped = Fraction(0)
        for kernel in attr.kernels:
            for component, exact in kernel.exact.items():
                assert component in COMPONENTS
                regrouped += exact
        assert float(regrouped) == result.stats.modeled_seconds
        assert float(attr.total_exact) == result.stats.modeled_seconds

    @pytest.mark.parametrize("backend", EXPLAIN_BACKENDS)
    def test_record_conservation_witness(self, backend, small_dataset,
                                         small_params):
        data, _ = small_dataset
        engine, result = _fit(backend, data, small_params)
        record = attribution_record(attribute_run(engine.model))
        conservation = record["conservation"]
        assert conservation["exact"] is True
        assert conservation["attributed_seconds"] == result.stats.modeled_seconds
        assert conservation["modeled_seconds"] == result.stats.modeled_seconds

    def test_phase_and_pipeline_groupings_also_conserve(
        self, small_dataset, small_params
    ):
        data, _ = small_dataset
        engine, result = _fit("gpu-fast", data, small_params)
        attr = attribute_run(engine.model)
        for grouping in (attr.phase_exact, attr.pipeline_exact):
            total = sum(
                (value for bucket in grouping.values()
                 for value in bucket.values()),
                Fraction(0),
            )
            assert float(total) == result.stats.modeled_seconds
        flat = sum(attr.component_exact.values(), Fraction(0))
        assert float(flat) == result.stats.modeled_seconds

    def test_validate_explain_report_accepts_real_run(
        self, small_dataset, small_params
    ):
        data, _ = small_dataset
        engine, result = _fit("gpu-fast", data, small_params)
        record = attribution_record(attribute_run(engine.model))
        report = explain_report(record, label="gpu-fast",
                                counters=dict(result.stats.counters))
        assert report["schema"] == EXPLAIN_SCHEMA
        assert validate_explain_report(report) == []


class TestCacheAndOccupancy:
    def test_cache_savings_attributed(self, small_dataset, small_params):
        data, _ = small_dataset
        engine, _ = _fit("gpu-fast", data, small_params)
        cache = attribute_run(engine.model).cache
        assert cache["enabled"]
        assert cache["hits"] > 0
        assert 0.0 < cache["hit_rate"] <= 1.0
        assert cache["avoided_flops"] > 0
        assert cache["avoided_seconds_estimate"] > 0

    def test_cache_never_hits_without_dist_cache(self, small_dataset,
                                                 small_params):
        """Plain GPU PROCLUS recomputes every medoid row: 0% hit rate."""
        data, _ = small_dataset
        engine, _ = _fit("gpu", data, small_params)
        cache = attribute_run(engine.model).cache
        assert cache["hits"] == 0
        assert cache["hit_rate"] == 0.0
        assert cache["avoided_seconds_estimate"] == 0.0

    def test_occupancy_rollup(self, small_dataset, small_params):
        data, _ = small_dataset
        engine, _ = _fit("gpu-fast", data, small_params)
        occupancy = attribute_run(engine.model).occupancy
        assert occupancy is not None
        assert 0.0 < occupancy["weighted_achieved"] <= 1.0
        assert occupancy["kernels"]

    def test_fleet_occupancy_uses_logical_gpu(self, small_dataset,
                                              small_params):
        data, _ = small_dataset
        engine, _ = _fit("fleet-gpu-fast", data, small_params)
        occupancy = attribute_run(engine.model).occupancy
        assert occupancy is not None and occupancy["kernels"]


# ----------------------------------------------------------------------
# Differential attribution
# ----------------------------------------------------------------------
class TestDiff:
    def _record(self, small_dataset, small_params, backend="gpu-fast"):
        data, _ = small_dataset
        engine, _ = _fit(backend, data, small_params)
        return attribution_record(attribute_run(engine.model))

    def test_identical_runs_diff_to_exact_zero(self, small_dataset,
                                               small_params):
        a = self._record(small_dataset, small_params)
        b = self._record(small_dataset, small_params)
        diff = diff_attribution(a, b)
        assert diff["zero"] is True
        assert diff["delta_seconds"] == 0.0
        assert diff["kernels"] == []
        assert diff["components"] == []
        assert diff["pipeline_components"] == []

    def test_different_backends_attribute_the_gap(self, small_dataset,
                                                  small_params):
        slow = self._record(small_dataset, small_params, backend="gpu")
        fast = self._record(small_dataset, small_params, backend="gpu-fast")
        diff = diff_attribution(fast, slow)
        assert diff["zero"] is False
        assert diff["delta_seconds"] == pytest.approx(
            slow["total_seconds"] - fast["total_seconds"]
        )
        assert diff["kernels"]

    def test_diff_counters_zero_and_mover(self):
        assert diff_counters({"a": 1.0}, {"a": 1.0}) == []
        movers = diff_counters({"a": [1.0, 2.0]}, {"a": 5.0, "b": 1.0})
        names = {row["name"] for row in movers}
        assert names == {"a", "b"}

    def test_load_comparable_roundtrip(self, tmp_path, small_dataset,
                                       small_params):
        record = self._record(small_dataset, small_params)
        report = explain_report(record, label="x", counters={"gpu.flops": 1.0})
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        loaded = load_comparable(path)
        assert loaded["label"] == "x"
        diff = diff_attribution(loaded["attribution"], record)
        assert diff["zero"] is True

    def test_load_comparable_rejects_garbage(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError):
            load_comparable(path)

    def test_summarize_attribution_is_idempotent(self, small_dataset,
                                                 small_params):
        record = self._record(small_dataset, small_params)
        summary = summarize_attribution(record)
        assert summarize_attribution(summary) == summary
        assert summary["total_seconds"] == record["total_seconds"]


# ----------------------------------------------------------------------
# Regression triage (the no-dist-cache negative control)
# ----------------------------------------------------------------------
class TestTriage:
    WORKLOAD = QuickWorkload(name="triage-tiny", backend="gpu-fast",
                             n=1024, d=10, n_clusters=4, subspace_dims=4,
                             k=5, l=4)

    def test_no_dist_cache_triage_names_cache_counters(self):
        """`--inject no-dist-cache` must be *explained*, not just flagged."""
        seeds = QUICK_SEEDS[:2]
        baseline = run_workload(self.WORKLOAD, seeds=seeds)
        injected = run_workload(self.WORKLOAD, seeds=seeds,
                                backend="gpu-fast-h-only")
        verdict = compare_workload(baseline, injected)
        assert not verdict["ok"]
        triage = verdict["triage"]
        counter_names = {row["name"] for row in triage["counters"]}
        assert "cache.dist_rows_hit" in counter_names
        assert "cache.dist_rows_missed" in counter_names
        joined = " ".join(triage["lines"])
        assert "cache.dist_rows" in joined or "pipeline" in joined
        # The attribution diff localizes the slowdown too.
        assert triage["attribution"]["zero"] is False

    def test_clean_rerun_triage_free(self):
        seeds = QUICK_SEEDS[:2]
        baseline = run_workload(self.WORKLOAD, seeds=seeds)
        fresh = run_workload(self.WORKLOAD, seeds=seeds)
        verdict = compare_workload(baseline, fresh)
        assert verdict["ok"]
        assert "triage" not in verdict

    def test_gate_verdict_carries_triage_headlines(self):
        seeds = QUICK_SEEDS[:2]
        baseline = run_workload(self.WORKLOAD, seeds=seeds)
        injected = run_workload(self.WORKLOAD, seeds=seeds,
                                backend="gpu-fast-h-only")
        verdict = run_regression_check(
            {self.WORKLOAD.name: baseline}, [injected]
        )
        assert verdict["exit_code"] == 1
        assert verdict["triage"]
        assert self.WORKLOAD.name in verdict["triage"][0]

    def test_triage_lines_render_counters_and_kernels(self):
        lines = triage_lines({
            "counters": [{"name": "cache.dist_rows_hit", "baseline": 512.0,
                          "fresh": 0.0, "delta": -512.0, "rel_delta": -1.0}],
            "attribution": {
                "zero": False,
                "pipeline_components": [
                    {"name": "evaluate/memory", "baseline": 1.0,
                     "fresh": 1.41, "delta": 0.41, "rel_delta": 0.41}],
                "kernels": [{"name": "compute_l.distances", "baseline": 1.0,
                             "fresh": 2.0, "delta": 1.0, "rel_delta": 1.0}],
                "components": [],
            },
        })
        joined = " ".join(lines)
        assert "cache.dist_rows_hit" in joined
        assert "512" in joined


# ----------------------------------------------------------------------
# Fleet attribution
# ----------------------------------------------------------------------
class TestFleetAttribution:
    def test_live_fleet_report_embeds_attribution(self, small_dataset,
                                                  small_params):
        data, _ = small_dataset
        engine, _ = _fit("fleet-gpu-fast", data, small_params)
        assert isinstance(engine.model, FleetModel)
        report = fleet_report(engine.model)
        attribution = report["attribution"]
        assert attribution["num_devices"] == 2
        assert attribution["straggler_index"] >= 1.0
        assert 0.0 <= attribution["comm_fraction"] <= 1.0
        assert attribution["imbalance"] >= 1.0
        assert attribution["straggler_device"] in (0, 1)
        # Per-device busy + sync + idle covers the makespan.
        for entry in attribution["devices"]:
            covered = (entry["busy_seconds"] + entry["sync_seconds"]
                       + entry["idle_seconds"])
            assert covered == pytest.approx(attribution["makespan_seconds"],
                                            rel=1e-9)

    def test_consistent_with_report_fields(self, small_dataset, small_params):
        data, _ = small_dataset
        engine, _ = _fit("fleet-gpu-fast", data, small_params)
        report = fleet_report(engine.model)
        attribution = report["attribution"]
        assert attribution["comm_seconds"] == report["comm_seconds"]
        assert attribution["makespan_seconds"] == report["total_seconds"]
        assert attribution["comm_fraction"] == pytest.approx(
            report["communication_fraction"]
        )

    def test_degenerate_inputs_never_raise(self):
        for report in ({}, {"devices": []}, {"devices": None},
                       {"total_seconds": 0.0, "devices": [{}]},
                       {"total_seconds": -1.0,
                        "devices": [{"busy_seconds": 2.0}]}):
            attribution = fleet_attribution(report)
            assert attribution["straggler_index"] >= 1.0
            assert attribution["imbalance"] >= 0.0

    def test_single_device_is_balanced(self):
        attribution = fleet_attribution({
            "total_seconds": 2.0,
            "comm_seconds": 0.0,
            "devices": [{"device": 0, "busy_seconds": 2.0,
                         "sync_seconds": 0.0}],
        })
        assert attribution["straggler_index"] == 1.0
        assert attribution["comm_fraction"] == 0.0


# ----------------------------------------------------------------------
# Chrome-trace validation of fleet comm tracks
# ----------------------------------------------------------------------
class TestFleetTraceRoundTrip:
    def _fleet_trace(self, small_dataset, small_params):
        data, _ = small_dataset
        tracer = Tracer()
        _fit("fleet-gpu-fast", data, small_params, tracer=tracer)
        return chrome_trace(tracer, label="fleet")

    def test_round_trip_validates_clean(self, small_dataset, small_params):
        trace = self._fleet_trace(small_dataset, small_params)
        assert validate_chrome_trace(trace) == []
        names = {
            event.get("args", {}).get("name")
            for event in trace["traceEvents"]
            if event.get("ph") == "M" and event.get("name") == "thread_name"
        }
        assert any(isinstance(n, str) and n.endswith(":comm") for n in names)

    def test_foreign_event_on_comm_track_flagged(self, small_dataset,
                                                 small_params):
        trace = copy.deepcopy(self._fleet_trace(small_dataset, small_params))
        for event in trace["traceEvents"]:
            if event.get("ph") == "X" and event["name"].startswith("comm."):
                event["name"] = "sneaky_kernel"
                break
        else:
            pytest.fail("no comm event found in fleet trace")
        problems = validate_chrome_trace(trace)
        assert any("comm track" in problem for problem in problems)

    def test_counter_time_reversal_flagged(self, small_dataset, small_params):
        trace = copy.deepcopy(self._fleet_trace(small_dataset, small_params))
        counters = [event for event in trace["traceEvents"]
                    if event.get("ph") == "C"]
        if len(counters) < 2:
            pytest.skip("trace exports no counter track")
        counters[-1]["ts"] = counters[0]["ts"] - 10.0
        assert validate_chrome_trace(trace) != []


# ----------------------------------------------------------------------
# Flamegraph export
# ----------------------------------------------------------------------
class TestFlamegraph:
    def _tracer(self, small_dataset, small_params):
        data, _ = small_dataset
        tracer = Tracer()
        _fit("gpu-fast", data, small_params, tracer=tracer)
        return tracer

    def test_collapsed_stacks_cover_kernels(self, small_dataset,
                                            small_params):
        tracer = self._tracer(small_dataset, small_params)
        stacks = collapsed_stacks(tracer)
        assert stacks
        assert all(weight > 0 for _, weight in stacks)
        joined = [";".join(frames) for frames, _ in stacks]
        assert any("greedy.distances" in line for line in joined)

    def test_format_collapsed_integer_weights(self, small_dataset,
                                              small_params):
        tracer = self._tracer(small_dataset, small_params)
        for line in format_collapsed(collapsed_stacks(tracer)).splitlines():
            frames, weight = line.rsplit(" ", 1)
            assert frames
            assert int(weight) >= 1

    def test_empty_tracer_placeholder(self):
        assert "no kernel events" in format_collapsed(
            collapsed_stacks(Tracer())
        )

    def test_speedscope_profile_shape(self, small_dataset, small_params):
        tracer = self._tracer(small_dataset, small_params)
        profile = speedscope_profile(tracer, name="gpu-fast")
        assert profile["$schema"].endswith("file-format-schema.json")
        run = profile["profiles"][0]
        assert run["type"] == "sampled"
        assert len(run["samples"]) == len(run["weights"])
        frame_count = len(profile["shared"]["frames"])
        assert all(0 <= index < frame_count
                   for sample in run["samples"] for index in sample)
        assert run["endValue"] == pytest.approx(sum(run["weights"]))


# ----------------------------------------------------------------------
# Report schema validation (negative cases)
# ----------------------------------------------------------------------
class TestValidateExplainReport:
    def _valid(self, small_dataset, small_params):
        data, _ = small_dataset
        engine, _ = _fit("gpu-fast", data, small_params)
        return explain_report(
            attribution_record(attribute_run(engine.model)), label="t"
        )

    def test_rejects_wrong_schema(self, small_dataset, small_params):
        report = self._valid(small_dataset, small_params)
        report["schema"] = "repro.other/1"
        assert validate_explain_report(report) != []

    def test_rejects_broken_conservation(self, small_dataset, small_params):
        report = copy.deepcopy(self._valid(small_dataset, small_params))
        report["attribution"]["conservation"]["exact"] = False
        assert any("conservation" in problem
                   for problem in validate_explain_report(report))

    def test_rejects_component_sum_mismatch(self, small_dataset,
                                            small_params):
        report = copy.deepcopy(self._valid(small_dataset, small_params))
        kernel = report["attribution"]["kernels"][0]
        kernel["components"]["memory"] = kernel["seconds"] * 10 + 1.0
        assert validate_explain_report(report) != []

    def test_rejects_unknown_component(self, small_dataset, small_params):
        report = copy.deepcopy(self._valid(small_dataset, small_params))
        report["attribution"]["components"]["warp_divergence"] = 1.0
        assert validate_explain_report(report) != []

    def test_rejects_non_dict(self):
        assert validate_explain_report([]) != []
        assert validate_explain_report({"schema": EXPLAIN_SCHEMA}) != []


# ----------------------------------------------------------------------
# Renderers: degenerate inputs must render, not raise
# ----------------------------------------------------------------------
class TestRenderers:
    def test_render_attribution_empty(self):
        out = render_attribution({})
        assert "empty run" in out

    def test_render_attribution_zero_seconds(self):
        out = render_attribution({
            "model": "x", "total_seconds": 0.0, "components": {},
            "kernels": [], "fusion": {}, "cache": {}, "occupancy": None,
        })
        assert isinstance(out, str)

    def test_render_attribution_real(self, small_dataset, small_params):
        data, _ = small_dataset
        engine, _ = _fit("gpu-fast", data, small_params)
        record = attribution_record(attribute_run(engine.model))
        out = render_attribution(record, top=3)
        assert "by component" in out
        assert "more kernels" in out
        assert "dist cache" in out

    def test_render_diff_zero_and_movers(self):
        zero = render_diff({"zero": True, "baseline_seconds": 1.0,
                            "fresh_seconds": 1.0, "delta_seconds": 0.0,
                            "rel_delta": 0.0, "kernels": [],
                            "components": [], "pipeline_components": []})
        assert "no difference" in zero
        moved = render_diff({"zero": False, "baseline_seconds": 1.0,
                             "fresh_seconds": 1.5, "delta_seconds": 0.5,
                             "rel_delta": 0.5,
                             "kernels": [{"name": "k", "baseline": 1.0,
                                          "fresh": 1.5, "delta": 0.5,
                                          "rel_delta": 0.5}],
                             "components": [], "pipeline_components": []})
        assert "k" in moved

    def test_render_fleet_empty_and_degenerate(self):
        assert "no per-device ledgers" in render_fleet_attribution({})
        out = render_fleet_attribution({
            "num_devices": 1, "makespan_seconds": 0.0, "comm_fraction": 0.0,
            "straggler_index": 1.0, "straggler_device": 0, "imbalance": 1.0,
            "devices": [{"device": 0, "busy_seconds": 0.0,
                         "sync_seconds": 0.0, "idle_seconds": 0.0}],
        })
        assert "gpu0" in out

    def test_fleet_utilization_chart_degenerate(self):
        from repro.viz import fleet_utilization_chart

        assert isinstance(fleet_utilization_chart({}), str)
        assert isinstance(
            fleet_utilization_chart({"devices": [{}], "total_seconds": 0.0}),
            str,
        )


# ----------------------------------------------------------------------
# Profiler back-compat + new component column
# ----------------------------------------------------------------------
class TestProfilerComponents:
    def test_components_match_attribution(self, small_dataset, small_params):
        from repro.gpu.profiler import profile_kernels

        data, _ = small_dataset
        engine, _ = _fit("gpu-fast", data, small_params)
        attr = attribute_run(engine.model)
        by_name = {kernel.name: kernel for kernel in attr.kernels}
        for profile in profile_kernels(engine.model):
            attributed = by_name[profile.name].component_seconds()
            for component, seconds in profile.components.items():
                assert seconds == pytest.approx(
                    attributed.get(component, 0.0), rel=1e-9
                )

    def test_top_folds_remainder(self, small_dataset, small_params):
        from repro.gpu.profiler import format_kernel_profile, profile_kernels

        data, _ = small_dataset
        engine, _ = _fit("gpu-fast", data, small_params)
        profiles = profile_kernels(engine.model)
        table = format_kernel_profile(profiles, top=2)
        assert f"(+{len(profiles) - 2} more)" in table
        # Folding must not change the grand total.
        full = format_kernel_profile(profiles)
        assert table.splitlines()[-1].split() == full.splitlines()[-1].split()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestExplainCli:
    ARGS = ("--n", "1200", "--clusters", "3", "--k", "4", "--l", "3",
            "--a", "20", "--b", "4")

    def _run(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_explain_run_and_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        flame_path = tmp_path / "flame.txt"
        code, out = self._run(
            capsys, "explain", *self.ARGS, "--backend", "gpu-fast",
            "--json", str(report_path), "--flamegraph", str(flame_path),
        )
        assert code == 0
        assert "by component" in out
        report = json.loads(report_path.read_text())
        assert report["schema"] == EXPLAIN_SCHEMA
        assert validate_explain_report(report) == []
        assert flame_path.read_text().strip()

    def test_explain_fleet_reports_stragglers(self, capsys):
        code, out = self._run(
            capsys, "explain", *self.ARGS, "--backend", "fleet-gpu-fast",
            "--devices", "2",
        )
        assert code == 0
        assert "straggler index" in out
        assert "comm" in out

    def test_explain_diff_identical_is_zero(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _ = self._run(
                capsys, "explain", *self.ARGS, "--backend", "gpu-fast",
                "--json", str(path),
            )
            assert code == 0
        code, out = self._run(capsys, "explain", "--diff", str(a), str(b))
        assert code == 0
        assert "no difference" in out
        assert "exact zero delta" in out

    def test_explain_diff_backends_shows_movers(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path, backend in ((a, "gpu"), (b, "gpu-fast")):
            self._run(capsys, "explain", *self.ARGS, "--backend", backend,
                      "--json", str(path))
        code, out = self._run(capsys, "explain", "--diff", str(a), str(b))
        assert code == 0
        assert "kernel movers" in out or "counter movers" in out

    def test_explain_unknown_workload_exits_2(self, capsys):
        code, _ = self._run(capsys, "explain", "--workload", "nope")
        assert code == 2

    def test_profile_top(self, capsys):
        code, out = self._run(
            capsys, "profile", *self.ARGS, "--backend", "gpu-fast",
            "--top", "2",
        )
        assert code == 0
        assert "more)" in out
        assert "components" in out

    def test_monitor_fleet_file(self, capsys, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({
            "total_seconds": 1.0, "comm_seconds": 0.25,
            "devices": [
                {"device": 0, "busy_seconds": 0.75, "sync_seconds": 0.0},
                {"device": 1, "busy_seconds": 0.25, "sync_seconds": 0.5},
            ],
        }))
        code, out = self._run(capsys, "monitor", "--fleet", str(path))
        assert code == 0
        assert "straggler index" in out

    def test_monitor_requires_dir_or_fleet(self, capsys):
        from repro.cli import main

        code = main(["monitor"])
        assert code == 2
