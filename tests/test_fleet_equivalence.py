"""Differential shard-equivalence suite for the fleet backends.

The fleet's contract is absolute: sharding a job across D modeled
devices must not change a single bit of the output — labels,
dimensions, cost, *and* the deterministic work counters — versus the
solo run, for every GPU backend, every device count, heterogeneous
fleets, and even when faults strike a single shard mid-run.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.bench.baseline import EXACT_COUNTERS
from repro.core.api import BACKENDS
from repro.data.normalize import minmax_normalize
from repro.data.synthetic import generate_subspace_data
from repro.fleet import Fleet, FleetModel, default_fleet, fleet_report, mixed_fleet
from repro.hardware.specs import GTX_1660_TI, RTX_3090
from repro.obs import Tracer, use_run
from repro.params import ProclusParams
from repro.resilience import ResilientRunner, RetryPolicy
from repro.resilience.faults import FaultInjector

GPU_BACKENDS = ("gpu", "gpu-fast", "gpu-fast-star")
DEVICE_COUNTS = (1, 2, 3, 4)

#: Per-device ledger entries whose sum must equal the solo counter
#: (work splits exactly; kernel_launches is inherently D-fold for
#: sharded kernels and is excluded on purpose).
WORK_COUNTERS = ("flops", "gmem_bytes", "atomic_ops", "h2d_bytes")


@pytest.fixture(scope="module")
def data():
    dataset = generate_subspace_data(n=1500, d=10, n_clusters=4, seed=11)
    return minmax_normalize(dataset.data)


@pytest.fixture(scope="module")
def params():
    return ProclusParams(k=6, l=4)


@pytest.fixture(scope="module")
def solo(data, params):
    results = {}
    for backend in GPU_BACKENDS:
        engine = BACKENDS[backend](params=params, seed=0)
        results[backend] = engine.fit(data)
    return results


def run_fleet(data, params, backend, fleet):
    engine = BACKENDS[f"fleet-{backend}"](params=params, seed=0, fleet=fleet)
    return engine, engine.fit(data)


def assert_identical(result, reference):
    assert np.array_equal(result.labels, reference.labels)
    assert result.dimensions == reference.dimensions
    assert result.cost == reference.cost


def assert_counters_identical(result, reference):
    for name in EXACT_COUNTERS:
        assert result.stats.counters.get(name) == pytest.approx(
            reference.stats.counters.get(name), abs=0
        ), name


class TestShardEquivalence:
    @pytest.mark.parametrize("backend", GPU_BACKENDS)
    @pytest.mark.parametrize("devices", DEVICE_COUNTS)
    def test_bit_identical_to_solo(self, data, params, solo, backend, devices):
        _, result = run_fleet(data, params, backend, default_fleet(devices))
        assert_identical(result, solo[backend])
        assert_counters_identical(result, solo[backend])

    @pytest.mark.parametrize("backend", GPU_BACKENDS)
    def test_single_device_fleet_is_an_exact_anchor(
        self, data, params, solo, backend
    ):
        """D=1 issues the solo stream: no collectives, equal modeled time
        (to float round-off of the per-launch accrual order)."""
        engine, result = run_fleet(data, params, backend, default_fleet(1))
        assert result.stats.modeled_seconds == pytest.approx(
            solo[backend].stats.modeled_seconds, rel=1e-12
        )
        report = fleet_report(engine.model)
        assert report["allreduce_steps"] == 0
        assert report["broadcast_steps"] == 0
        assert report["comm_seconds"] == 0.0

    @pytest.mark.parametrize("backend", GPU_BACKENDS)
    def test_heterogeneous_fleet(self, data, params, solo, backend):
        """1660 Ti + 3090: uneven shards, NVLink/PCIe mix, same bits."""
        _, result = run_fleet(
            data, params, backend, mixed_fleet(small=1, large=1)
        )
        assert_identical(result, solo[backend])
        assert_counters_identical(result, solo[backend])

    @pytest.mark.parametrize("backend", GPU_BACKENDS)
    def test_per_device_work_sums_to_solo(self, data, params, solo, backend):
        """The physical ledgers split the solo work exactly (no double
        counting, nothing dropped)."""
        engine, _ = run_fleet(data, params, backend, default_fleet(3))
        assert isinstance(engine.model, FleetModel)
        report = fleet_report(engine.model)
        assert len(report["devices"]) == 3
        for name in WORK_COUNTERS:
            sharded = sum(entry[name] for entry in report["devices"])
            solo_value = solo[backend].stats.counters.get(f"gpu.{name}", 0.0)
            if float(solo_value).is_integer():
                # Integral work splits with largest-remainder: exact.
                assert sharded == pytest.approx(solo_value, abs=0), name
            else:
                # Derated flop counts are fractional and split
                # proportionally: exact to float round-off.
                assert sharded == pytest.approx(solo_value, rel=1e-12), name

    def test_communication_is_modeled(self, data, params):
        """D>1 runs charge collective steps, and only then."""
        engine, _ = run_fleet(data, params, "gpu-fast", default_fleet(4))
        report = fleet_report(engine.model)
        assert report["allreduce_steps"] > 0
        assert report["broadcast_steps"] > 0
        assert report["comm_bytes"] > 0
        assert 0.0 < report["communication_fraction"] < 1.0
        assert report["comm_seconds"] > 0.0
        # Collectives are barriers: somebody waited at them.
        assert sum(entry["sync_seconds"] for entry in report["devices"]) > 0.0


class TestFaultedShards:
    """Faults on one shard must not change the answer."""

    @pytest.mark.parametrize("backend", GPU_BACKENDS)
    def test_transient_fault_on_one_shard(self, data, params, solo, backend):
        runner = ResilientRunner(RetryPolicy())
        with use_run(injector=
            FaultInjector([f"transient@assign_points@dev1#1"])
        ):
            outcome = runner.fit(
                data,
                backend=f"fleet-{backend}",
                params=params,
                seed=0,
                engine_kwargs={"fleet": default_fleet(2)},
            )
        assert outcome.attempts == 2
        assert [event.kind for event in outcome.events] == ["retry"]
        assert outcome.backend == f"fleet-{backend}"
        assert_identical(outcome.result, solo[backend])
        assert_counters_identical(outcome.result, solo[backend])

    def test_sticky_capacity_fault_degrades_off_the_fleet(
        self, data, params, solo
    ):
        """A persistent per-shard OOM walks the documented ladder down
        to the solo card — and the answer still matches bit-for-bit."""
        runner = ResilientRunner(RetryPolicy())
        with use_run(injector=FaultInjector(["oom@data@dev0#1+*"])):
            outcome = runner.fit(
                data,
                backend="fleet-gpu-fast",
                params=params,
                seed=0,
                engine_kwargs={"fleet": default_fleet(2)},
            )
        assert outcome.degraded
        assert outcome.backend == "gpu-fast"
        assert_identical(outcome.result, solo["gpu-fast"])

    def test_fault_site_targets_only_the_named_shard(self, data, params):
        """`*@dev1` leaves shard 0 untouched: a D=1 fleet (only dev0
        active) never trips the injector."""
        injector = FaultInjector(["transient@assign_points@dev1#1"])
        with use_run(injector=injector):
            engine = BACKENDS["fleet-gpu-fast"](
                params=params, seed=0, fleet=default_fleet(1)
            )
            engine.fit(data)
        assert injector.injected == []


class TestFleetValidation:
    def test_engine_accepts_int_shorthand(self, data, params, solo):
        engine = BACKENDS["fleet-gpu-fast"](params=params, seed=0, fleet=3)
        result = engine.fit(data)
        assert_identical(result, solo["gpu-fast"])
        assert len(engine.fleet.specs) == 3

    def test_zero_capacity_member_holds_no_points(self, data, params, solo):
        dead = replace(GTX_1660_TI, memory_bytes=GTX_1660_TI.reserved_bytes)
        fleet = Fleet(specs=(GTX_1660_TI, dead, RTX_3090))
        assert fleet.shard_plan(len(data)).counts[1] == 0
        _, result = run_fleet(data, params, "gpu-fast", fleet)
        assert_identical(result, solo["gpu-fast"])


class TestTracedEqualsUntraced:
    """Tracing places kernel events; it must not move a modeled second.

    A tracer that already ran a device hands the fleet a non-zero
    ``device_offset()``.  The shards' barrier skew still accrues from
    zero, so the traced run reports the untraced run's exact figures.
    """

    @pytest.mark.parametrize("backend", GPU_BACKENDS)
    def test_offset_tracer_keeps_modeled_figures(self, backend):
        data = minmax_normalize(
            generate_subspace_data(n=1500, d=8, n_clusters=4, seed=1).data
        )
        params = ProclusParams(k=5, l=3, a=25, b=5)
        engine = BACKENDS[f"fleet-{backend}"]
        untraced = engine(params=params, seed=1, fleet=default_fleet(3)).fit(data)

        tracer = Tracer()
        with use_run(tracer=tracer):
            BACKENDS["gpu-fast"](params=params, seed=1).fit(data)
            offset = tracer.device_offset()
            assert offset > 0
            before = len(tracer.kernel_events)
            traced = engine(
                params=params, seed=1, fleet=default_fleet(3)
            ).fit(data)

        assert traced.stats.modeled_seconds == untraced.stats.modeled_seconds
        assert traced.stats.phase_seconds == untraced.stats.phase_seconds
        assert traced.stats.counters == untraced.stats.counters
        # The offset still shifts where the fleet's events are placed.
        shard_events = [
            event for event in tracer.kernel_events[before:]
            if "@dev" in event.name
        ]
        assert shard_events
        assert min(event.start for event in shard_events) >= offset
