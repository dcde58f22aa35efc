"""Tests for the unified metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import pytest

from repro.hardware.counters import KernelLaunch
from repro.hardware.cost_model import GpuModel, ScalarCpuModel
from repro.hardware.specs import GTX_1660_TI, INTEL_I7_9750H
from repro.obs import MetricsRegistry
from repro.result import RunStats


def _launch(name: str = "compute_l.distances") -> KernelLaunch:
    return KernelLaunch(
        name=name, phase="compute_l", grid_blocks=16, threads_per_block=256,
        flops=1e6, gmem_bytes=1e6,
    )


class TestInstruments:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        registry.counter("flops").inc(10)
        registry.counter("flops").inc(5)
        assert registry.counter("flops").value == 15
        assert len(registry) == 1

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("hit_rate").set(0.2)
        registry.gauge("hit_rate").set(0.9)
        assert registry.gauge("hit_rate").value == 0.9

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("seconds")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 6.0
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert hist.mean == pytest.approx(2.0)

    def test_empty_histogram_as_dict(self):
        hist = MetricsRegistry().histogram("empty")
        assert hist.as_dict() == {
            "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0,
        }


class TestHistogramPercentiles:
    """Bucket-estimation edge cases: exact where exactness is possible."""

    def test_empty_histogram_percentile_is_zero(self):
        hist = MetricsRegistry().histogram("h")
        for q in (0, 50, 95, 100):
            assert hist.percentile(q) == 0.0

    def test_single_sample_is_exact_at_every_quantile(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(3.3)
        for q in (0, 1, 50, 95, 100):
            assert hist.percentile(q) == 3.3

    def test_all_equal_samples_are_exact(self):
        hist = MetricsRegistry().histogram("h")
        for _ in range(100):
            hist.observe(7.0)
        for q in (0, 50, 99, 100):
            assert hist.percentile(q) == 7.0

    def test_percentiles_clamped_to_observed_range(self):
        hist = MetricsRegistry().histogram("h")
        for value in (0.0011, 0.0012, 0.9, 1.7):
            hist.observe(value)
        for q in (0, 10, 50, 90, 100):
            assert 0.0011 <= hist.percentile(q) <= 1.7
        assert hist.percentile(100) == 1.7

    def test_percentiles_monotone_in_q(self):
        hist = MetricsRegistry().histogram("h")
        for value in (1e-6, 5e-5, 3e-4, 0.002, 0.002, 0.4, 12.0):
            hist.observe(value)
        values = [hist.percentile(q) for q in range(0, 101, 5)]
        assert values == sorted(values)

    def test_out_of_range_quantile_rejected(self):
        hist = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError):
            hist.percentile(-1)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_overflow_bucket_catches_values_above_all_bounds(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(1e6)  # far above the last default bound
        pairs = hist.bucket_pairs()
        assert pairs[-1] == (float("inf"), 1)
        assert all(count == 0 for _, count in pairs[:-1])
        assert hist.percentile(50) == 1e6  # clamped to max: still exact

    def test_bucket_pairs_are_cumulative_and_end_at_count(self):
        hist = MetricsRegistry().histogram("h")
        for value in (1e-6, 2e-6, 0.3, 0.9, 50.0, 1e9):
            hist.observe(value)
        pairs = hist.bucket_pairs()
        counts = [count for _, count in pairs]
        assert counts == sorted(counts)  # cumulative
        assert pairs[-1][0] == float("inf")
        assert pairs[-1][1] == hist.count

    def test_as_dict_reports_p50_p95(self):
        hist = MetricsRegistry().histogram("h")
        for value in (1.0, 1.0, 1.0, 1.0):
            hist.observe(value)
        summary = hist.as_dict()
        assert summary["p50"] == 1.0
        assert summary["p95"] == 1.0


class TestAdapters:
    def test_absorb_phase_seconds(self):
        registry = MetricsRegistry()
        registry.absorb_phase_seconds({"compute_l": 0.5, "evaluate": 0.25})
        assert registry.counter("phase_seconds.compute_l").value == 0.5
        assert registry.counter("phase_seconds.evaluate").value == 0.25

    def test_absorb_run_stats_accumulates_across_runs(self):
        stats = RunStats(
            counters={"gpu.flops": 10.0},
            phase_seconds={"compute_l": 0.1},
            modeled_seconds=0.1,
            wall_seconds=0.2,
            iterations=7,
            backend="gpu-fast",
        )
        registry = MetricsRegistry()
        registry.absorb_run_stats(stats)
        registry.absorb_run_stats(stats)
        assert registry.counter("runs").value == 2
        assert registry.counter("iterations").value == 14
        assert registry.counter("gpu.flops").value == 20.0
        assert registry.histogram("run.modeled_seconds").count == 2

    def test_absorb_kernel_times_from_gpu_model(self):
        model = GpuModel(GTX_1660_TI)
        model.launch(_launch())
        model.launch(_launch())
        registry = MetricsRegistry()
        registry.absorb_kernel_times(model)
        hist = registry.histogram("kernel.compute_l.distances.seconds")
        assert hist.count == 2
        assert hist.total > 0

    def test_absorb_kernel_times_ignores_cpu_models(self):
        class NoLaunchTime:
            pass

        registry = MetricsRegistry()
        registry.absorb_kernel_times(NoLaunchTime())
        assert len(registry) == 0

    def test_absorb_kernel_times_reads_the_ledger_in_launch_order(self):
        """Ledger durations equal a ``launch_time`` recompute, in order."""
        model = GpuModel(GTX_1660_TI)
        launches = [
            _launch(),
            KernelLaunch(
                name="assign_points", phase="assign", grid_blocks=3,
                threads_per_block=64, flops=5e8, atomic_ops=1e4,
            ),
            _launch(),
        ]
        for launch in launches:
            model.launch(launch)
        model.account("transfer", "h2d:data", "transfer", 1e-3)
        registry = MetricsRegistry()
        registry.absorb_kernel_times(model)
        recomputed = MetricsRegistry()
        for launch in launches:
            recomputed.histogram(f"kernel.{launch.name}.seconds").observe(
                model.launch_time(launch)
            )
        assert registry.as_dict() == recomputed.as_dict()

    def test_absorb_kernel_times_ignores_cpu_ledgers(self):
        model = ScalarCpuModel(INTEL_I7_9750H)
        model.work("compute_l", scalar_ops=1e6)
        registry = MetricsRegistry()
        registry.absorb_kernel_times(model)
        assert len(registry) == 0


class TestExport:
    def test_as_dict_is_json_serializable_and_sorted(self):
        import json

        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.counter("a").inc(1)
        registry.gauge("g").set(0.5)
        registry.histogram("h").observe(1.0)
        snapshot = registry.as_dict()
        json.dumps(snapshot)
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["gauges"] == {"g": 0.5}
        assert snapshot["histograms"]["h"]["count"] == 1
