"""Unit tests for the serving layer (repro.serve) components.

The end-to-end determinism contract lives in
``test_serve_coalescing.py``; these tests cover the parts: registry,
request keys, scheduler admission/coalescing, the result cache, the
event log, the service's caching/dedup/observability behavior, its
one-group-at-a-time execution, its private tracer's retention, and the
run context its jobs run in.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
import time

import numpy as np
import pytest

from repro import proclus
from repro.core.base import EngineBase
from repro.exceptions import (
    AdmissionError,
    DeviceOutOfMemoryError,
    ParameterError,
    ResilienceExhaustedError,
    ServeError,
)
from repro.fleet import default_fleet
from repro.hardware.specs import GTX_1660_TI
from repro.obs import FlightRecorder, Tracer, use_run
from repro.params import ProclusParams
from repro.resilience import FaultInjector, RetryPolicy
from repro.result import bit_identical
from repro.serve import (
    ClusterRequest,
    ClusterService,
    DatasetRegistry,
    JobScheduler,
    ResultCache,
    estimate_device_bytes,
)
from repro.serve.events import MAX_EVENTS, ServeEvent, ServeLog
from repro.serve.request import Job


def small_params(**changes) -> ProclusParams:
    base = dict(k=4, l=3, a=30, b=5)
    base.update(changes)
    return ProclusParams(**base)


def make_job(job_id=0, fingerprint="f" * 64, backend="gpu-fast",
             seed=0, priority=1, estimated_bytes=0, **params):
    request = ClusterRequest(
        fingerprint=fingerprint, backend=backend,
        params=small_params(**params), seed=seed, priority=priority,
    )
    return Job(request=request, job_id=job_id,
               estimated_bytes=estimated_bytes)


class TestDatasetRegistry:
    def test_register_is_idempotent_and_canonical(self):
        registry = DatasetRegistry()
        data = np.random.default_rng(0).random((40, 5))
        fingerprint = registry.register(data)
        assert registry.register(data.astype(np.float32)) == fingerprint
        assert len(registry) == 1
        stored = registry.get(fingerprint)
        assert stored.dtype == np.float32
        assert not stored.flags.writeable

    def test_unknown_fingerprint_rejected(self):
        with pytest.raises(ServeError, match="unknown dataset"):
            DatasetRegistry().get("0" * 64)


class TestRequestKeys:
    def test_share_key_ignores_l(self):
        a = ClusterRequest("f" * 64, "gpu-fast", small_params(l=3))
        b = ClusterRequest("f" * 64, "gpu-fast", small_params(l=4))
        assert a.share_key == b.share_key
        assert a.cache_key != b.cache_key

    def test_share_key_separates_seed_backend_and_k(self):
        base = ClusterRequest("f" * 64, "gpu-fast", small_params())
        for other in (
            ClusterRequest("f" * 64, "gpu-fast", small_params(), seed=1),
            ClusterRequest("f" * 64, "gpu", small_params()),
            ClusterRequest("f" * 64, "gpu-fast", small_params(k=5, l=3)),
            ClusterRequest("e" * 64, "gpu-fast", small_params()),
        ):
            assert other.share_key != base.share_key

    def test_share_key_separates_a_and_b(self):
        # A and B size the shared sample and greedy pick, so a group
        # mixing them would hand some member the wrong medoid set M.
        base = ClusterRequest("f" * 64, "gpu-fast", small_params())
        for other in (
            ClusterRequest("f" * 64, "gpu-fast", small_params(a=31)),
            ClusterRequest("f" * 64, "gpu-fast", small_params(b=6)),
        ):
            assert other.share_key != base.share_key

    def test_fingerprint_validated(self):
        with pytest.raises(ParameterError):
            ClusterRequest("", "gpu-fast", small_params())


class TestEstimateDeviceBytes:
    def test_cpu_backends_are_free(self):
        assert estimate_device_bytes(10_000, 15, small_params(), "fast") == 0

    def test_scales_with_n_and_k(self):
        params = small_params()
        small = estimate_device_bytes(1_000, 10, params, "gpu-fast")
        bigger_n = estimate_device_bytes(100_000, 10, params, "gpu-fast")
        bigger_k = estimate_device_bytes(
            1_000, 10, small_params(k=8, l=3), "gpu-fast"
        )
        assert small < bigger_n
        assert small < bigger_k

    def test_paper_space_limit_on_the_6gb_card(self):
        # Section 5: on the 6 GB GTX 1660 Ti space becomes the limit in
        # the millions of points; a k=20 run at 8M points must exceed
        # the usable VRAM while the 1M run still fits.
        params = ProclusParams(k=20, l=5)
        needed = estimate_device_bytes(8_000_000, 15, params, "gpu-fast")
        assert needed > GTX_1660_TI.usable_bytes
        fits = estimate_device_bytes(1_000_000, 15, params, "gpu-fast")
        assert fits < GTX_1660_TI.usable_bytes

    def test_variants_differ(self):
        params = small_params()
        star = estimate_device_bytes(50_000, 10, params, "gpu-fast-star")
        fast = estimate_device_bytes(50_000, 10, params, "gpu-fast")
        plain = estimate_device_bytes(50_000, 10, params, "gpu")
        assert len({star, fast, plain}) == 3


class TestJobScheduler:
    def test_priority_order_with_fifo_tiebreak(self):
        scheduler = JobScheduler()
        scheduler.push(make_job(0, seed=0, priority=2))
        scheduler.push(make_job(1, seed=1, priority=1))
        scheduler.push(make_job(2, seed=2, priority=1))
        order = [scheduler.pop_group()[0].job_id for _ in range(3)]
        assert order == [1, 2, 0]
        assert scheduler.pop_group() == []

    def test_pop_group_coalesces_share_key_siblings(self):
        scheduler = JobScheduler()
        scheduler.push(make_job(0, l=3, seed=0))
        scheduler.push(make_job(1, l=4, seed=1))  # different share key
        scheduler.push(make_job(2, l=4, seed=0))
        scheduler.push(make_job(3, l=5, seed=0))
        group = scheduler.pop_group()
        assert [job.job_id for job in group] == [0, 2, 3]
        assert scheduler.depth == 1
        assert [job.job_id for job in scheduler.pop_group()] == [1]

    def test_queue_depth_admission(self):
        scheduler = JobScheduler(max_queue_depth=1)
        scheduler.admit(make_job(0))
        scheduler.push(make_job(0))
        with pytest.raises(AdmissionError) as info:
            scheduler.admit(make_job(1))
        assert info.value.reason == "queue"

    def test_memory_admission(self):
        scheduler = JobScheduler(device_capacities=(1_000,))
        scheduler.admit(make_job(0, estimated_bytes=999))
        with pytest.raises(AdmissionError) as info:
            scheduler.admit(make_job(1, estimated_bytes=1_001))
        assert info.value.reason == "memory"

    def test_backlog_admission_uses_observed_ewma(self):
        scheduler = JobScheduler(max_backlog_seconds=1.0)
        scheduler.observe("gpu-fast", 0.7)
        scheduler.admit(make_job(0))
        scheduler.push(make_job(0))
        assert scheduler.backlog_seconds() == pytest.approx(0.7)
        with pytest.raises(AdmissionError) as info:
            scheduler.admit(make_job(1))
        assert info.value.reason == "backlog"


class TestCardBook:
    """The scheduler's per-card book: reserve, release, place, quarantine."""

    def test_reserve_release_and_peak(self):
        scheduler = JobScheduler(device_capacities=(1_000, 500))
        scheduler.reserve((600, 0))
        scheduler.reserve((300, 500))
        assert [card.reserved_bytes for card in scheduler.cards] == [900, 500]
        assert [card.free_bytes for card in scheduler.cards] == [100, 0]
        scheduler.release((300, 500))
        scheduler.release((600, 0))
        assert [card.reserved_bytes for card in scheduler.cards] == [0, 0]
        assert [card.peak_bytes for card in scheduler.cards] == [900, 500]
        assert scheduler.peak_reserved_bytes == 1_400

    def test_reserve_refuses_what_a_card_cannot_hold(self):
        scheduler = JobScheduler(device_capacities=(1_000, 1_000))
        with pytest.raises(DeviceOutOfMemoryError):
            scheduler.reserve((500, 1_001))
        # All or none: the first card's part was not booked either.
        assert [card.reserved_bytes for card in scheduler.cards] == [0, 0]
        assert scheduler.peak_reserved_bytes == 0

    def test_place_picks_most_free_lowest_index_first(self):
        scheduler = JobScheduler(device_capacities=(1_000, 2_000, 2_000))
        assert scheduler.place() == 1
        scheduler.reserve((0, 500, 0))
        assert scheduler.place() == 2

    def test_quarantine_zeroes_the_admitting_capacity(self):
        scheduler = JobScheduler(device_capacities=(1_000, 2_000, -5))
        assert scheduler.device_capacities == (1_000, 2_000, 0)
        assert scheduler.set_quarantined(1, True)
        assert not scheduler.set_quarantined(1, True)
        assert scheduler.quarantined == frozenset({1})
        assert scheduler.device_capacities == (1_000, 0, 0)
        assert scheduler.place() == 0
        with pytest.raises(AdmissionError) as info:
            scheduler.admit(make_job(0, estimated_bytes=1_001))
        assert info.value.reason == "memory"
        with pytest.raises(DeviceOutOfMemoryError):
            scheduler.reserve((0, 1, 0))
        assert scheduler.set_quarantined(1, False)
        assert scheduler.device_capacities == (1_000, 2_000, 0)
        scheduler.admit(make_job(0, estimated_bytes=1_001))

    def test_no_cards_admit_only_jobs_without_device_memory(self):
        scheduler = JobScheduler()
        scheduler.admit(make_job(0, backend="fast"))
        with pytest.raises(AdmissionError) as info:
            scheduler.admit(make_job(1, estimated_bytes=1))
        assert info.value.reason == "memory"


class TestResultCache:
    def test_lru_eviction_and_counters(self):
        cache = ResultCache(max_entries=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": now "b" is oldest
        evicted = cache.put("c", 3)
        assert evicted == ["b"]
        assert cache.get("b") is None
        assert cache.stats() == {
            "entries": 2, "max_entries": 2,
            "hits": 1, "misses": 2, "evictions": 1,
        }

    def test_zero_entries_disables_caching(self):
        cache = ResultCache(max_entries=0)
        assert cache.put("a", 1) == []
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ParameterError):
            ResultCache(max_entries=-1)


class TestServeLog:
    def test_keeps_only_the_latest_events(self):
        log = ServeLog()
        total = MAX_EVENTS + 100
        for job_id in range(total):
            log.record(ServeEvent(ts=float(job_id), kind="submit",
                                  job_id=job_id))
        assert MAX_EVENTS == 8192
        assert len(log) == MAX_EVENTS
        kept = [event.job_id for event in log.snapshot()]
        assert kept == list(range(100, total))
        assert log.count("submit") == MAX_EVENTS
        assert log.as_dicts()[0]["job_id"] == 100


@pytest.fixture(scope="module")
def served(small_dataset):
    """One service lifecycle shared by the behavior assertions below."""
    data, _ = small_dataset
    params = ProclusParams(k=4, l=3, a=30, b=5)
    with ClusterService(workers=2, cache_entries=4) as service:
        first = service.submit(data=data, backend="gpu-fast", params=params)
        first.result(timeout=120)
        repeat = service.submit(data=data, backend="gpu-fast", params=params)
        repeat.result(timeout=120)
        other = service.submit(
            data=data, backend="gpu-fast", params=params.with_(l=4)
        )
        other.result(timeout=120)
        stats = service.stats()
        events = service.log.as_dicts()
    return first, repeat, other, stats, events


class TestClusterService:
    def test_repeat_request_is_a_cache_hit(self, served):
        first, repeat, _, stats, _ = served
        assert not first.cached
        assert repeat.cached
        assert stats["cache"]["hits"] == 1
        assert np.array_equal(
            first.result().labels, repeat.result().labels
        )

    def test_events_and_counters_recorded(self, served):
        *_, stats, events = served
        kinds = {event["kind"] for event in events}
        assert {"submit", "admit", "start", "complete", "cache_hit"} <= kinds
        assert stats["counters"]["serve.requests"] == 3
        assert stats["counters"]["serve.completed"] == 2
        assert stats["executed_modeled_seconds"] > 0
        assert stats["peak_reserved_bytes"] > 0

    def test_latency_and_status(self, served):
        first, repeat, other, _, _ = served
        for handle in (first, repeat, other):
            assert handle.done()
            assert handle.status == "done"
            assert handle.latency >= 0.0

    def test_submit_requires_exactly_one_data_source(self, small_dataset):
        data, _ = small_dataset
        with ClusterService(workers=1) as service:
            with pytest.raises(ServeError):
                service.submit()
            with pytest.raises(ServeError):
                service.submit(data=data, fingerprint="a" * 64)
            with pytest.raises(ServeError, match="unknown dataset"):
                service.submit(fingerprint="a" * 64)

    def test_unknown_backend_refused_before_any_event(self, small_dataset):
        """A client's typo is refused like invalid params, not admitted
        to fail on a worker and count as a service failure."""
        data, _ = small_dataset
        with pytest.raises(ParameterError) as direct:
            proclus(data, backend="no-such-backend")
        with ClusterService(workers=1) as service:
            with pytest.raises(ParameterError) as served:
                service.submit(data=data, backend="no-such-backend")
            service.drain()
            assert str(served.value) == str(direct.value)
            assert service.log.as_dicts() == []
            assert service.stats()["counters"].get("serve.failed", 0) == 0

    def test_submit_by_fingerprint_after_register(self, small_dataset):
        data, _ = small_dataset
        with ClusterService(workers=1) as service:
            fingerprint = service.register(data)
            handle = service.submit(
                fingerprint=fingerprint, backend="fast",
                params=ProclusParams(k=4, l=3, a=30, b=5),
            )
            assert handle.result(timeout=120).k == 4

    def test_infeasible_memory_request_rejected(self, small_dataset):
        import dataclasses

        data, _ = small_dataset
        # A card whose usable VRAM cannot even hold this tiny dataset.
        tiny_card = dataclasses.replace(
            GTX_1660_TI, name="tiny", memory_bytes=16_384,
            reserved_bytes=8_192,
        )
        with ClusterService(workers=1, gpu_spec=tiny_card) as service:
            with pytest.raises(AdmissionError) as info:
                service.submit(
                    data=data, backend="gpu-fast",
                    params=ProclusParams(k=4, l=3, a=30, b=5),
                )
            assert info.value.reason == "memory"
            assert service.log.count("reject") == 1
            stats = service.stats()
            assert stats["counters"]["serve.rejected"] == 1
            assert stats["counters"]["serve.rejected.memory"] == 1

    def test_close_fails_pending_handles(self, small_dataset):
        data, _ = small_dataset
        service = ClusterService(workers=1)
        handle = service.submit(
            data=data, backend="fast",
            params=ProclusParams(k=4, l=3, a=30, b=5),
        )
        service.close(drain=False)
        if handle.status == "failed":
            with pytest.raises(ServeError, match="closed"):
                handle.result(timeout=1)
        else:
            assert handle.result(timeout=1).k == 4

    def test_closed_service_refuses_submissions(self, small_dataset):
        data, _ = small_dataset
        service = ClusterService(workers=1)
        service.close()
        with pytest.raises(ServeError):
            service.submit(
                data=data, backend="fast",
                params=ProclusParams(k=4, l=3, a=30, b=5),
            )


def gate_fit(service, before):
    """Make the service's runner call ``before(seed)`` ahead of each fit."""
    fit = service.runner.fit

    def gated(data, *, seed, **kwargs):
        before(seed)
        return fit(data, seed=seed, **kwargs)

    service.runner.fit = gated


class TestOneGroupAtATime:
    """Each service executes one group at a time; the rest stay queued."""

    def test_waiting_work_stays_queued(self, small_dataset):
        """While one group executes, a later urgent job overtakes a
        queued one, a duplicate dedupes onto it and a sibling joins it."""
        data, _ = small_dataset
        running, release = threading.Event(), threading.Event()

        def hold_first(seed):
            if seed == 0:
                running.set()
                assert release.wait(timeout=60)

        def submit(seed, priority=1, **params):
            return service.submit(data=data, params=small_params(**params),
                                  seed=seed, priority=priority)

        with ClusterService(workers=2) as service:
            gate_fit(service, hold_first)
            first = submit(0)
            assert running.wait(timeout=60)
            low = submit(1, priority=5)
            # A free worker allowed to pop would take ``low`` now.
            time.sleep(0.2)
            urgent = submit(2, priority=0)
            duplicate = submit(1, priority=5)
            sibling = submit(1, priority=5, l=2)
            release.set()
            service.drain(timeout=120)
            starts = [event["job_id"] for event in service.log.as_dicts()
                      if event["kind"] == "start"]
        assert starts == [first.job_id, urgent.job_id, low.job_id,
                          sibling.job_id]
        assert duplicate.deduped and sibling.coalesced

    def test_failure_bundle_carries_the_failing_job(
        self, small_dataset, tmp_path
    ):
        data, _ = small_dataset
        other = np.ascontiguousarray(data[:400])
        other_pinned = threading.Event()

        def fail_seed_3(seed):
            if seed == 3:
                # Fail once the other worker has pinned its job, if it can.
                other_pinned.wait(timeout=0.5)
                raise RuntimeError("injected job failure")
            other_pinned.set()

        recorder = FlightRecorder(bundle_dir=tmp_path)
        params = small_params(l=3)
        with ClusterService(workers=2, recorder=recorder) as service:
            gate_fit(service, fail_seed_3)
            failing = service.submit(data=data, params=params, seed=3)
            fine = service.submit(
                data=other, params=small_params(l=2), seed=4
            )
            assert fine.result(timeout=120).k == 4
            with pytest.raises(RuntimeError, match="injected"):
                failing.result(timeout=120)
        (path,) = recorder.dumped_paths
        bundle = json.loads(path.read_text())
        assert bundle["job"]["seed"] == {"kind": "int", "value": 3}
        assert bundle["job"]["params"] == dataclasses.asdict(params)
        assert bundle["job"]["fingerprint"] == failing.request.fingerprint
        assert bundle["dataset"]["fingerprint"] == failing.request.fingerprint

    def test_stress_many_workers_one_engine_run(
        self, small_dataset, monkeypatch
    ):
        data, _ = small_dataset
        lock = threading.Lock()
        in_progress, peak = [0], [0]
        fit = EngineBase.fit

        def counted_fit(engine, X):
            with lock:
                in_progress[0] += 1
                peak[0] = max(peak[0], in_progress[0])
            try:
                return fit(engine, X)
            finally:
                with lock:
                    in_progress[0] -= 1

        monkeypatch.setattr(EngineBase, "fit", counted_fit)
        # Share-key siblings (l differs) and exact duplicates.
        mix = [(backend, seed, l)
               for backend in ("gpu", "gpu-fast", "gpu-fast-star")
               for seed in (0, 1) for l in (2, 3)]
        mix += mix[::3]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            service = ClusterService(workers=4)
            handles = [
                service.submit(data=data, backend=backend,
                               params=small_params(l=l), seed=seed)
                for backend, seed, l in mix
            ]
            results = [handle.result(timeout=120) for handle in handles]
            closer = threading.Thread(target=service.close)
            closer.start()
            closer.join(timeout=60)
            assert not closer.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert peak[0] == 1
        for (backend, seed, l), result in zip(mix, results):
            solo = proclus(data, params=small_params(l=l), backend=backend,
                           seed=seed)
            assert bit_identical(result, solo), (backend, seed, l)


class TestPrivateTracer:
    @staticmethod
    def serve(service, data, seeds):
        for seed in seeds:
            service.submit(
                data=data, params=small_params(), seed=seed
            ).result(timeout=120)

    @staticmethod
    def retained(tracer):
        return (len(tracer.roots), len(tracer.kernel_events),
                len(tracer.counter_samples))

    def test_history_does_not_grow_with_requests(self, small_dataset):
        data, _ = small_dataset
        recorder = FlightRecorder()
        with ClusterService(workers=1, recorder=recorder) as service:
            self.serve(service, data, range(3))
            after_n = self.retained(service.obs)
            self.serve(service, data, range(3, 6))
            after_2n = self.retained(service.obs)
            assert service.obs.device_offset() > 0.0
            counters = service.stats()["counters"]
        assert after_2n == after_n
        assert counters["serve.completed"] == 6
        span_ids = [event["span_id"] for event in service.log.as_dicts()]
        assert None not in span_ids and len(set(span_ids)) == len(span_ids)
        recorded = recorder.snapshot()["recorded"]
        assert recorded["spans"] > 0 and recorded["kernels"] > 0

    def test_an_installed_tracer_keeps_everything(self, small_dataset):
        data, _ = small_dataset
        tracer = Tracer()
        with use_run(tracer=tracer), ClusterService(workers=1) as service:
            self.serve(service, data, range(2))
        assert service.obs is tracer
        assert all(count > 0 for count in self.retained(tracer))


class TestRunContext:
    """Jobs run in the context the service was built in."""

    def test_the_build_context_recorder_gets_the_crash_bundle(
        self, small_dataset, tmp_path
    ):
        """A served job that exhausts its ladder dumps its bundle into
        the recorder that was current when the service was built."""
        data, _ = small_dataset
        with use_run(recorder=FlightRecorder(bundle_dir=tmp_path)):
            service = ClusterService(
                workers=1, fleet=default_fleet(2),
                policy=RetryPolicy(allow_degraded=False, max_reshards=0),
                injector=FaultInjector(["device-down@dev1"]),
            )
        with service:
            handle = service.submit(
                data=data, backend="fleet-gpu-fast", params=small_params(),
                seed=0,
            )
            with pytest.raises(ResilienceExhaustedError):
                handle.result(timeout=120)
        assert [path.name for path in tmp_path.glob("postmortem-*")] == [
            "postmortem-resilience-exhausted-001.json"
        ]

    def test_own_arguments_win_over_the_build_context(self):
        recorder, injector = FlightRecorder(), FaultInjector([])
        with use_run(recorder=recorder, injector=injector):
            captured = ClusterService(workers=1)
            own = ClusterService(
                workers=1, recorder=FlightRecorder(),
                injector=FaultInjector([]),
            )
        captured.close()
        own.close()
        assert captured.recorder is recorder
        assert captured.injector is injector
        assert own.recorder is not recorder
        assert own.injector is not injector
