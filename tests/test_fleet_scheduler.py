"""Admission and placement edge cases for fleet-aware serving.

Covers the scheduler-side contract of ``ClusterService(fleet=...)``:
componentwise admission of sharded jobs (a job too big for every
single device still runs when its shards fit the fleet), zero-capacity
fleet members, quarantined cards (seen by admission and by placement
alike), and the per-backend EWMA backlog estimator under mixed
solo/sharded traffic.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro import proclus
from repro.data.normalize import minmax_normalize
from repro.data.synthetic import generate_subspace_data
from repro.exceptions import AdmissionError, DeviceOutOfMemoryError
from repro.fleet import Fleet, default_fleet
from repro.hardware.specs import GTX_1660_TI
from repro.params import ProclusParams
from repro.serve import (
    ClusterService,
    JobScheduler,
    estimate_device_bytes,
    estimate_shard_bytes,
)
from repro.serve.request import ClusterRequest, Job
from tests.test_serve_service import gate_fit


def tiny_card(usable_bytes: int):
    """A 1660 Ti clone with exactly ``usable_bytes`` of app memory."""
    return replace(
        GTX_1660_TI,
        memory_bytes=usable_bytes + GTX_1660_TI.reserved_bytes,
    )


def make_job(backend, estimated_bytes=0, shard_bytes=None, job_id=0,
             priority=1):
    request = ClusterRequest(
        fingerprint="f" * 16, backend=backend,
        params=ProclusParams(k=6, l=4), priority=priority,
    )
    return Job(request=request, job_id=job_id,
               estimated_bytes=estimated_bytes, shard_bytes=shard_bytes)


@pytest.fixture(scope="module")
def data():
    dataset = generate_subspace_data(n=2000, d=10, n_clusters=4, seed=5)
    return minmax_normalize(dataset.data)


@pytest.fixture(scope="module")
def params():
    return ProclusParams(k=6, l=4)


class TestShardEstimates:
    def test_shards_cover_more_than_solo(self, params):
        """Replicated k-sized arrays make the fleet total exceed solo,
        while each single shard is strictly smaller."""
        solo = estimate_device_bytes(20_000, 12, params, "gpu-fast")
        shards = estimate_shard_bytes(
            20_000, 12, params, "fleet-gpu-fast", default_fleet(2)
        )
        assert len(shards) == 2
        assert sum(shards) > solo
        assert max(shards) < solo

    def test_zero_capacity_member_estimates_zero(self, params):
        fleet = Fleet(specs=(GTX_1660_TI, tiny_card(0)))
        shards = estimate_shard_bytes(
            10_000, 12, params, "fleet-gpu-fast", fleet
        )
        assert shards[1] == 0
        assert shards[0] == estimate_device_bytes(10_000, 12, params,
                                                  "gpu-fast")


class TestComponentwiseAdmission:
    def test_job_bigger_than_any_device_fits_the_fleet(self, params):
        """The tentpole admission case: solo is refused, sharded runs."""
        solo_bytes = estimate_device_bytes(2_000, 10, params, "gpu-fast")
        capacity = int(solo_bytes * 0.7)  # no single card fits the job
        fleet = Fleet(specs=(tiny_card(capacity), tiny_card(capacity)))
        shards = estimate_shard_bytes(
            2_000, 10, params, "fleet-gpu-fast", fleet
        )
        assert max(shards) <= capacity < solo_bytes

        scheduler = JobScheduler(
            device_capacities=tuple(s.usable_bytes for s in fleet.specs),
        )
        with pytest.raises(AdmissionError) as excinfo:
            scheduler.admit(make_job("gpu-fast", estimated_bytes=solo_bytes))
        assert excinfo.value.reason == "memory"
        # Same workload, sharded: admitted componentwise.
        scheduler.admit(
            make_job("fleet-gpu-fast", estimated_bytes=max(shards),
                     shard_bytes=shards)
        )

    def test_one_oversized_shard_is_refused(self):
        scheduler = JobScheduler(device_capacities=(100, 100))
        with pytest.raises(AdmissionError) as excinfo:
            scheduler.admit(
                make_job("fleet-gpu", estimated_bytes=150,
                         shard_bytes=(80, 150))
            )
        assert excinfo.value.reason == "memory"
        assert "shard 1" in str(excinfo.value)

    def test_end_to_end_through_the_service(self, data, params):
        solo_bytes = estimate_device_bytes(
            len(data), data.shape[1], params, "gpu-fast"
        )
        capacity = int(solo_bytes * 0.7)
        fleet = Fleet(specs=(tiny_card(capacity), tiny_card(capacity)))
        reference = proclus(data, params=params, backend="gpu-fast", seed=0)
        with ClusterService(workers=1, fleet=fleet) as service:
            with pytest.raises(AdmissionError):
                service.submit(data, backend="gpu-fast", params=params,
                               seed=0)
            handle = service.submit(data, backend="fleet-gpu-fast",
                                    params=params, seed=0)
            result = handle.result(timeout=120)
            assert np.array_equal(result.labels, reference.labels)
            assert result.cost == reference.cost
            stats = service.stats()
        assert stats["counters"]["fleet.jobs"] == 1
        assert all(entry["peak_reserved_bytes"] > 0
                   for entry in stats["devices"])


class TestZeroCapacityMember:
    def test_service_runs_around_the_dead_device(self, data, params):
        fleet = Fleet(specs=(GTX_1660_TI, tiny_card(0)))
        reference = proclus(data, params=params, backend="gpu", seed=0)
        with ClusterService(workers=1, fleet=fleet) as service:
            assert service.scheduler.device_capacities == (
                GTX_1660_TI.usable_bytes, 0
            )
            handle = service.submit(data, backend="fleet-gpu",
                                    params=params, seed=0)
            result = handle.result(timeout=120)
            assert np.array_equal(result.labels, reference.labels)
            stats = service.stats()
        assert stats["devices"][1]["capacity_bytes"] == 0
        assert stats["devices"][1]["peak_reserved_bytes"] == 0
        assert stats["devices"][0]["peak_reserved_bytes"] > 0

    def test_solo_jobs_never_placed_on_the_dead_device(self, data, params):
        fleet = Fleet(specs=(GTX_1660_TI, tiny_card(0)))
        with ClusterService(workers=1, fleet=fleet) as service:
            for seed in (0, 1):
                service.submit(data, backend="gpu-fast", params=params,
                               seed=seed)
            service.drain(timeout=120)
            counters = service.stats()["counters"]
        assert counters.get("fleet.placements.dev0", 0) == 2
        assert "fleet.placements.dev1" not in counters


class TestQuarantinedCard:
    """A quarantined card admits and places nothing.

    Card 0 has too little room for the solo gpu-fast job below; card 1
    holds it, so quarantining card 1 leaves no card that can.
    """

    PARAMS = ProclusParams(k=4, l=3, a=20, b=4)
    SOLO_BYTES = 265_408

    @pytest.fixture(scope="class")
    def small(self):
        generated = generate_subspace_data(n=2000, d=8, n_clusters=4, seed=3)
        return minmax_normalize(generated.data)

    @pytest.fixture
    def service(self):
        fleet = Fleet(specs=(tiny_card(100_000), tiny_card(10_000_000)))
        service = ClusterService(workers=1, fleet=fleet)
        yield service
        service.close(drain=False)

    def test_solo_job_refused_when_only_a_quarantined_card_holds_it(
        self, service, small
    ):
        assert estimate_device_bytes(
            2000, 8, self.PARAMS, "gpu-fast"
        ) == self.SOLO_BYTES
        assert service.quarantine_device(1, reason="drill")
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(small, backend="gpu-fast", params=self.PARAMS,
                           seed=0)
        assert excinfo.value.reason == "memory"
        assert service.scheduler.device_capacities == (100_000, 0)

    def test_queued_job_whose_card_is_quarantined_fails_typed(
        self, service, small
    ):
        running, release = threading.Event(), threading.Event()

        def hold_first(seed):
            if seed == 0:
                running.set()
                assert release.wait(timeout=30)

        def submit(backend, seed):
            return service.submit(small, backend=backend,
                                  params=self.PARAMS, seed=seed)

        gate_fit(service, hold_first)
        first = submit("fast", 0)
        assert running.wait(timeout=30)
        queued = submit("gpu-fast", 1)  # card 1 can hold it: admitted
        assert service.quarantine_device(1, reason="drill")
        release.set()
        assert first.result(timeout=30).k == 4
        with pytest.raises(DeviceOutOfMemoryError):
            queued.result(timeout=10)
        assert queued.status == "failed"
        assert all(thread.is_alive() for thread in service._workers)
        assert submit("fast", 2).result(timeout=30).k == 4
        stats = service.stats()
        assert stats["counters"]["serve.failed"] == 1
        assert stats["counters"]["serve.completed"] == 2
        assert "fleet.placements.dev1" not in stats["counters"]
        assert [entry["peak_reserved_bytes"]
                for entry in stats["devices"]] == [0, 0]


class TestBacklogEwmaMixedTraffic:
    def test_estimates_are_tracked_per_backend(self):
        scheduler = JobScheduler()
        scheduler.observe("gpu-fast", 1.0)
        scheduler.observe("fleet-gpu-fast", 0.25)
        assert scheduler.estimate_seconds("gpu-fast") == 1.0
        assert scheduler.estimate_seconds("fleet-gpu-fast") == 0.25
        # EWMA update (alpha = 0.3): 0.3 * 2.0 + 0.7 * 1.0
        scheduler.observe("gpu-fast", 2.0)
        assert scheduler.estimate_seconds("gpu-fast") == pytest.approx(1.3)
        assert scheduler.estimate_seconds("fleet-gpu-fast") == 0.25

    def test_backlog_sums_over_mixed_queue(self):
        scheduler = JobScheduler(max_backlog_seconds=1.0)
        scheduler.observe("gpu-fast", 0.5)
        scheduler.observe("fleet-gpu-fast", 0.3)
        scheduler.push(make_job("gpu-fast", job_id=0))
        scheduler.push(make_job("fleet-gpu-fast", job_id=1))
        assert scheduler.backlog_seconds() == pytest.approx(0.8)
        # 0.8 queued + 0.3 estimated = 1.1 > 1.0: refused as backlog...
        with pytest.raises(AdmissionError) as excinfo:
            scheduler.admit(make_job("fleet-gpu-fast", job_id=2))
        assert excinfo.value.reason == "backlog"
        # ...while a cheap never-seen backend (estimate 0) still fits.
        scheduler.admit(make_job("fast", job_id=3))

    def test_service_learns_both_traffic_classes(self, data, params):
        with ClusterService(workers=1, fleet=default_fleet(2)) as service:
            for seed in (0, 1):
                service.submit(data, backend="gpu-fast", params=params,
                               seed=seed)
                service.submit(data, backend="fleet-gpu-fast", params=params,
                               seed=seed)
            service.drain(timeout=240)
            solo_estimate = service.scheduler.estimate_seconds("gpu-fast")
            fleet_estimate = service.scheduler.estimate_seconds(
                "fleet-gpu-fast"
            )
        assert solo_estimate > 0.0
        assert fleet_estimate > 0.0
        # Sharded runs model a different (here: slower, collective-
        # bound) time than solo runs on the same workload, and the
        # estimator keeps the two classes apart.
        assert solo_estimate != fleet_estimate
