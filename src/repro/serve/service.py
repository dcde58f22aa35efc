"""The in-process clustering service.

:class:`ClusterService` ties the serving pieces together: datasets are
registered once and referenced by fingerprint, submissions pass
admission control and wait in a priority queue, worker threads drain
the queue in coalesced groups (one group executing at a time), every
job runs under the resilience policies
(:class:`~repro.resilience.runner.ResilientRunner`), and device memory
is booked in the scheduler's per-card book
(:class:`~repro.serve.scheduler.Card`: one line for the modeled card,
or one per fleet member), which admits, places and reserves every job.

**Determinism contract.**  Every response is bit-identical to the
direct solo call ``proclus(data, params=..., backend=..., seed=...)``:

* a lone job simply *is* that call (run through the resilient runner);
* a coalesced group replays the solo initialization draws once
  (:func:`~repro.core.multiparam.build_solo_shared_state`), snapshots
  the RNG, and restores that snapshot before every member — so each
  member consumes the exact random stream of its solo run while the
  sample, greedy pick, data upload, and FAST caches are paid for once.
  The FAST caches are *result-invariant* (the paper's Theorem 3.2
  argument): warmth changes the work counters and modeled seconds, not
  any clustering output;
* a cache hit returns the stored result of such a run.

What coalescing and caching change is only the *cost*: modeled device
seconds and work counters strictly shrink versus naive per-request
execution, which is exactly what ``BENCH_serve.json`` measures.

Jobs run in the :class:`~repro.obs.tracer.RunContext` the service was
built in, with ``corr="job-<id>"``; its own ``recorder=``,
``postmortem_dir=`` and ``injector=`` arguments win.
:meth:`ClusterService._event` builds and routes every serve event.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from pathlib import Path

import numpy as np

from ..core.api import resolve_backend
from ..core.multiparam import build_solo_shared_state
from ..exceptions import ReproError, ServeError
from ..fleet.fleet import Fleet
from ..fleet.recovery import degraded_fleet
from ..hardware.specs import GTX_1660_TI, GpuSpec
from ..obs.monitor import ServiceMonitor
from ..obs.recorder import FlightRecorder
from ..obs.tracer import Tracer, current_run, use_run
from ..resilience.faults import FaultInjector
from ..params import ProclusParams
from ..resilience.policy import RetryPolicy
from ..resilience.runner import ResilientRunner
from ..result import RunStats
from ..rng import RandomSource
from .cache import ResultCache
from .events import ServeEvent, ServeLog
from .registry import DatasetRegistry
from .request import ClusterRequest, Job, JobHandle
from .scheduler import JobScheduler, estimate_device_bytes, estimate_shard_bytes

__all__ = ["ClusterService"]


def _metrics_tracer() -> Tracer:
    """The service's private tracer: metrics, but no event history.

    Spans still get ids and still reach the run's recorder, and
    :meth:`~repro.obs.tracer.Tracer.device_offset` still advances, but
    closed root spans, kernel events and counter samples go to
    zero-length rings.  Nothing reads them from a private tracer, and a
    long-lived service would otherwise keep every request's.
    """
    tracer = Tracer()
    tracer.roots = deque(maxlen=0)
    tracer.kernel_events = deque(maxlen=0)
    tracer.counter_samples = deque(maxlen=0)
    return tracer


class ClusterService:
    """Multi-tenant clustering service with request coalescing.

    Parameters
    ----------
    workers:
        Worker threads draining the queue.  One group executes at a
        time per service (see :meth:`_worker`).
    gpu_spec:
        The modeled card (default: the paper's GTX 1660 Ti).  Its
        usable memory is the scheduler's one-card book; GPU jobs run
        against it.
    fleet:
        Serve against a :class:`~repro.fleet.Fleet` of modeled devices
        instead of one card; the book then has one line per member.
        ``fleet-*`` jobs shard across the fleet (admitted and reserved
        card by card), solo GPU jobs need one admitting card and are
        placed on the one with the most free modeled memory (with one
        group executing at a time, the largest healthy member, lowest
        index first).
    policy:
        Retry/degradation policy for every job (default
        :class:`RetryPolicy`).
    cache_entries:
        Result-cache capacity (0 disables memoization).
    max_queue_depth, max_backlog_seconds:
        Admission-control bounds (see
        :class:`~repro.serve.scheduler.JobScheduler`).
    monitor_dir:
        When set, the service writes live monitoring output there via a
        :class:`~repro.obs.monitor.ServiceMonitor` — one structured
        JSON log record per event (with trace/span ids), metric
        snapshots at most once a second, a Prometheus scrape, and a
        ``health.json`` report on the service SLOs.  ``repro monitor``
        reads this directory.
    recorder, postmortem_dir:
        Attach a :class:`~repro.obs.recorder.FlightRecorder` (default:
        the recorder of the context the service is built in).  Every
        serve event, span, kernel, fault, and resilience action flows
        into its bounded rings (correlated per job), and terminal
        failures — exhausted resilience, unexpected job errors, and a
        ``determinism-violations`` SLO breach — auto-dump a
        ``repro.postmortem/1`` bundle into ``postmortem_dir`` (which,
        given alone, creates a default recorder).
    injector:
        A :class:`~repro.resilience.faults.FaultInjector` installed
        around every job the workers run — fault drills under real
        serving load (``repro serve --fault``).  Default: the injector
        of the context the service is built in.

    Spans and metrics go to the tracer of the context the service is
    built in when it is enabled, else to a private always-on
    :class:`~repro.obs.tracer.Tracer`, so ``serve.*`` metrics are
    always recorded.  The private tracer keeps no span, kernel or
    counter history (see :func:`_metrics_tracer`).
    """

    def __init__(
        self,
        workers: int = 2,
        gpu_spec: GpuSpec | None = None,
        fleet: Fleet | None = None,
        policy: RetryPolicy | None = None,
        cache_entries: int = 64,
        max_queue_depth: int = 64,
        max_backlog_seconds: float = float("inf"),
        monitor_dir: "str | None" = None,
        recorder: "FlightRecorder | None" = None,
        postmortem_dir: "str | None" = None,
        injector: "FaultInjector | None" = None,
    ) -> None:
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        self.gpu_spec = gpu_spec if gpu_spec is not None else GTX_1660_TI
        run = current_run()
        self.obs = run.tracer if run.tracer.enabled else _metrics_tracer()
        self.registry = DatasetRegistry()
        self.cache = ResultCache(cache_entries)
        self.fleet = fleet
        #: The cards jobs run on: the fleet, or the one modeled card.
        self._cards = fleet if fleet is not None else Fleet(
            specs=(self.gpu_spec,)
        )
        self.scheduler = JobScheduler(
            max_queue_depth=max_queue_depth,
            max_backlog_seconds=max_backlog_seconds,
            device_capacities=[
                spec.usable_bytes for spec in self._cards.specs
            ],
        )
        self.log = ServeLog()
        #: Live monitoring sink (None unless ``monitor_dir`` was given).
        #: Shares the tracer's registry so the Prometheus scrape carries
        #: the same ``serve.*`` instruments the service increments.
        self.monitor: ServiceMonitor | None = (
            ServiceMonitor(monitor_dir, metrics=self.obs.metrics)
            if monitor_dir is not None
            else None
        )
        if self.monitor is not None and fleet is not None:
            self.monitor.slo.set_devices(
                [f"dev{index}" for index in range(fleet.num_devices)]
            )
        if recorder is None and postmortem_dir is not None:
            recorder = FlightRecorder(bundle_dir=postmortem_dir)
        elif recorder is not None and postmortem_dir is not None:
            recorder.bundle_dir = Path(postmortem_dir)
        #: Flight recorder fed by every layer of the service (None
        #: disables recording entirely).
        self.recorder = recorder if recorder is not None else run.recorder
        self._slo_dumped = False
        if self.monitor is not None and self.recorder is not None:
            self.monitor.on_unhealthy = self._on_slo_breach
        #: Fault injector installed around every job (fault drills).
        self.injector = injector if injector is not None else run.injector
        self.runner = ResilientRunner(policy)
        #: Aggregated stats of every engine run the service executed
        #: (cache hits and coalesced sharing make this smaller than the
        #: sum over requests — the quantity BENCH_serve.json compares).
        self.executed_stats = RunStats()
        self._epoch = time.perf_counter()
        self._cond = threading.Condition()
        self._closed = False
        self._running = 0
        self._next_job_id = 0
        #: Held by the worker whose group is executing (see _worker).
        self._exec_lock = threading.Lock()
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"serve-worker-{index}", daemon=True
            )
            for index in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def register(self, data: np.ndarray) -> str:
        """Register a dataset; returns its fingerprint."""
        return self.registry.register(data)

    def submit(
        self,
        data: np.ndarray | None = None,
        *,
        fingerprint: str | None = None,
        backend: str = "gpu-fast",
        params: ProclusParams | None = None,
        k: int = 10,
        l: int = 5,
        seed: int = 0,
        priority: int = 1,
    ) -> JobHandle:
        """Submit one clustering request; returns a waitable handle.

        Pass either ``data`` (registered on the fly) or the
        ``fingerprint`` of a previously registered dataset.  Raises
        :class:`~repro.exceptions.ParameterError` for an unknown
        backend or invalid params, before any event, and
        :class:`~repro.exceptions.AdmissionError` when admission
        control refuses the request.
        """
        if self._closed:
            raise ServeError("service is closed")
        if (data is None) == (fingerprint is None):
            raise ServeError("pass exactly one of data or fingerprint")
        resolve_backend(backend)
        if data is not None:
            fingerprint = self.registry.register(data)
        dataset = self.registry.get(fingerprint)
        if params is None:
            params = ProclusParams(k=k, l=l)
        params.validate_against_data(*dataset.shape)
        request = ClusterRequest(
            fingerprint=fingerprint, backend=backend, params=params,
            seed=seed, priority=priority,
        )
        with self._cond:
            job_id = self._next_job_id
            self._next_job_id += 1
            handle = JobHandle(request, job_id)
            handle.submitted_at = self._clock()
            self._event("submit", job_id, request)
            self.obs.metrics.counter("serve.requests").inc()

            cached = self.cache.get(request.cache_key)
            if cached is not None:
                handle.cached = True
                handle._resolve(cached, self._clock())
                self._event("cache_hit", job_id, request)
                self.obs.metrics.counter("serve.cache.hits").inc()
                self._observe_latency(handle)
                return handle
            self.obs.metrics.counter("serve.cache.misses").inc()

            twin = self.scheduler.find_queued(request.cache_key)
            if twin is not None:
                handle.deduped = True
                twin.handles.append(handle)
                self._event(
                    "dedupe", job_id, request,
                    detail=f"attached to job {twin.job_id}",
                )
                self.obs.metrics.counter("serve.deduped").inc()
                return handle

            n, d = dataset.shape
            shard_bytes = None
            if backend.startswith("fleet-"):
                shard_bytes = estimate_shard_bytes(
                    n, d, params, backend, self._fleet_for()
                )
                estimated = max(shard_bytes)
            else:
                estimated = estimate_device_bytes(n, d, params, backend)
            job = Job(
                request=request,
                job_id=job_id,
                estimated_bytes=estimated,
                shard_bytes=shard_bytes,
                handles=[handle],
            )
            try:
                self.scheduler.admit(job)
            except ReproError as error:
                reason = getattr(error, "reason", "")
                self._event("reject", job_id, request, detail=reason)
                self.obs.metrics.counter("serve.rejected").inc()
                if reason:
                    self.obs.metrics.counter(f"serve.rejected.{reason}").inc()
                raise
            self.scheduler.push(job)
            self._event("admit", job_id, request)
            self._cond.notify()
        return handle

    def drain(self, timeout: float | None = None) -> None:
        """Block until the queue is empty and no job is running."""
        with self._cond:
            done = self._cond.wait_for(
                lambda: self.scheduler.depth == 0 and self._running == 0,
                timeout=timeout,
            )
        if not done:
            raise ServeError(f"service did not drain within {timeout}s")

    def close(self, drain: bool = True) -> None:
        """Stop the workers (after finishing queued work by default)."""
        if self._closed:
            return
        if drain:
            self.drain()
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        for thread in self._workers:
            thread.join()
        # Fail whatever was still queued on a non-draining close.
        while True:
            group = self.scheduler.pop_group()
            if not group:
                break
            for job in group:
                error = ServeError("service closed before the job ran")
                for handle in job.handles:
                    handle._fail(error, self._clock())

    def shutdown(self, drain: bool = True) -> dict | None:
        """Graceful stop: close, then flush final monitoring output.

        Returns the final ``repro.health/1`` report when a monitor is
        attached (so even a short-lived service never exits with empty
        monitoring output), else None.
        """
        self.close(drain=drain)
        if self.monitor is None:
            return None
        return self.monitor.flush(self._clock())

    # ------------------------------------------------------------------
    # Health-aware failover
    # ------------------------------------------------------------------
    def quarantine_device(self, index: int, reason: str = "") -> bool:
        """Pull fleet member ``index`` out of serving rotation.

        Its line in the scheduler's book admits nothing: new sharded
        jobs re-shard over the remaining members (the quarantined
        member keeps its index at weight zero, so device numbering is
        stable), and no solo GPU job is admitted onto or placed on it;
        a queued job that no longer fits fails.  Emits a ``device_down``
        service event (which feeds the ``fleet-availability`` and
        ``fleet-mttr`` SLOs).  Returns False when the member was
        already quarantined.  Raises :class:`ServeError` without a
        fleet, for an out-of-range index, or when quarantining would
        leave no member serving.
        """
        self._check_device_index(index)
        # Check and quarantine under one lock, so two concurrent calls
        # cannot each leave the other's member as the last one serving.
        with self._cond:
            quarantined = self.scheduler.quarantined
            if index in quarantined:
                return False
            if degraded_fleet(self.fleet, quarantined | {index}) is None:
                raise ServeError(
                    f"cannot quarantine dev{index}: no fleet member with "
                    f"capacity would remain"
                )
            self.scheduler.set_quarantined(index, True)
        self.obs.metrics.counter("fleet.quarantined").inc()
        self._event("device_down", detail=reason, device=index)
        return True

    def readmit_device(self, index: int) -> bool:
        """Return a quarantined member to serving rotation.

        Restores its admission capacity and emits a
        ``device_recovered`` event (closing the MTTR window the
        ``device_down`` event opened).  Returns False when the member
        was not quarantined.
        """
        self._check_device_index(index)
        if not self.scheduler.set_quarantined(index, False):
            return False
        self.obs.metrics.counter("fleet.readmitted").inc()
        self._event("device_recovered", device=index)
        return True

    @property
    def quarantined_devices(self) -> frozenset[int]:
        """Fleet member indices currently quarantined."""
        return self.scheduler.quarantined

    def _check_device_index(self, index: int) -> None:
        if self.fleet is None:
            raise ServeError("service has no fleet to quarantine from")
        if not 0 <= index < self.fleet.num_devices:
            raise ServeError(
                f"device index {index} out of range for "
                f"{self.fleet.num_devices} fleet members"
            )

    def record_violations(self, count: int = 1) -> None:
        """Report determinism violations found by an external oracle.

        The service cannot detect these itself (they require re-running
        each request solo); the loadgen harness calls this so the
        violation count reaches the SLO tracker before the final flush.
        """
        self.obs.metrics.counter("serve.determinism.violations").inc(count)
        if self.monitor is not None:
            self.monitor.slo.record_violations(count)

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def stats(self) -> dict:
        """Aggregate service statistics (JSON-serializable)."""
        counters = self.obs.metrics.as_dict()["counters"]
        serve_counters = {
            name: value
            for name, value in counters.items()
            if name.startswith(("serve.", "fleet."))
        }
        cards = self.scheduler.cards
        devices = None
        if self.fleet is not None:
            devices = [
                {
                    "spec": spec.name,
                    "capacity_bytes": card.usable_bytes,
                    "peak_reserved_bytes": card.peak_bytes,
                }
                for spec, card in zip(self.fleet.specs, cards)
            ]
        return {
            "fleet": self.fleet.name if self.fleet is not None else None,
            "devices": devices,
            "quarantined": sorted(
                f"dev{index}" for index in self.scheduler.quarantined
            ),
            "queued": self.scheduler.depth,
            "running": self._running,
            "datasets": len(self.registry),
            "cache": self.cache.stats(),
            "counters": serve_counters,
            "executed_modeled_seconds": self.executed_stats.modeled_seconds,
            "peak_reserved_bytes": self.scheduler.peak_reserved_bytes,
            "budget_capacity_bytes": sum(card.usable_bytes for card in cards),
        }

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        # One group executes at a time: the engines make many short
        # NumPy calls, so two executing threads contend for the
        # interpreter lock and each runs slower than one alone.  Taking
        # the execution lock before popping keeps waiting work in the
        # queue, where a later duplicate can still dedupe onto it, a
        # share-key sibling can still join its group, and a more urgent
        # job can still overtake it.  It also keeps the recorder's
        # pinned job context and the injector's launch count per group.
        while True:
            with self._exec_lock:
                with self._cond:
                    self._cond.wait_for(
                        lambda: self._closed or self.scheduler.depth > 0
                    )
                    if self._closed:
                        return
                    group = self.scheduler.pop_group()
                    if not group:
                        continue
                    self._running += len(group)
                try:
                    self._run_group(group)
                finally:
                    with self._cond:
                        self._running -= len(group)
                        self._cond.notify_all()

    def _run_group(self, group: list[Job]) -> None:
        leader = group[0].request
        data = self.registry.get(leader.fingerprint)
        engine_kwargs, booked = None, ()
        try:
            # Inside the try: a group that no longer fits (its card was
            # quarantined after admission) fails its handles, and the
            # worker keeps serving.
            engine_kwargs, booked = self._place_group(group, *data.shape)
            if len(group) > 1:
                self._event(
                    "coalesce", group[0].job_id, leader,
                    detail=f"{len(group)} jobs share one initialization",
                )
                self.obs.metrics.counter("serve.groups").inc()
                self.obs.metrics.counter("serve.coalesced").inc(
                    len(group) - 1
                )
            for job in group:
                self._event("start", job.job_id, job.request)
                for handle in job.handles:
                    handle.status = "running"
                    handle.coalesced = len(group) > 1
            if self.recorder is not None:
                # Pin the request-level replay context (the original
                # integer seed; coalesced members run mid-stream RNG
                # states that are useless for replay-from-bundle).
                self.recorder.set_job(
                    data=data, backend=leader.backend, params=leader.params,
                    seed=leader.seed, policy=self.runner.policy,
                    engine_kwargs=engine_kwargs,
                    fingerprint=leader.fingerprint, pinned=True,
                )
            with use_run(
                tracer=self.obs, recorder=self.recorder,
                injector=self.injector, corr=f"job-{group[0].job_id}",
            ):
                if len(group) == 1:
                    outcomes = [
                        self.runner.fit(
                            data,
                            backend=leader.backend,
                            params=leader.params,
                            seed=leader.seed,
                            engine_kwargs=engine_kwargs,
                        )
                    ]
                else:
                    outcomes = self._run_coalesced(
                        data, group, engine_kwargs
                    )
        except Exception as error:  # noqa: BLE001 - workers must survive
            now = self._clock()
            for job in group:
                self._event(
                    "fail", job.job_id, job.request,
                    detail=f"{type(error).__name__}: {error}",
                )
                self.obs.metrics.counter("serve.failed").inc()
                for handle in job.handles:
                    handle._fail(error, now)
            if (
                self.recorder is not None
                and engine_kwargs is not None
                and not self.recorder.dumped_error(error)
            ):
                # Exhaustion bundles were already dumped by the runner
                # (with the full job context); everything else — FATAL
                # classifications, substrate bugs — is captured here.  A
                # group that was never placed ran nothing to replay.
                self.recorder.record_failure("job-failure", error)
                self.recorder.auto_dump("job-failure", error)
            return
        finally:
            self.scheduler.release(booked)

        for job, outcome in zip(group, outcomes):
            result = outcome.result
            stats = result.stats
            self.executed_stats = self.executed_stats.merge(stats)
            self.scheduler.observe(
                job.request.backend, stats.modeled_seconds
            )
            self.obs.metrics.counter("serve.executed").inc()
            self.obs.metrics.counter("serve.device_seconds").inc(
                stats.modeled_seconds
            )
            comm_seconds = stats.counters.get("fleet.comm_seconds", 0.0)
            if comm_seconds > 0.0:
                self.obs.metrics.counter("fleet.comm_seconds").inc(
                    comm_seconds
                )
            for evicted in self.cache.put(job.cache_key, result):
                self._event(
                    "evict", -1, job.request,
                    detail=f"lru evicted {evicted[0][:12]}...",
                )
                self.obs.metrics.counter("serve.cache.evictions").inc()
            now = self._clock()
            if self.monitor is not None:
                # The runner already counted fleet.recovery.mttr_seconds
                # on the shared registry; only the SLO still needs it.
                for event in outcome.events:
                    if event.kind == "reshard":
                        self.monitor.slo.record_recovery(event.recovery_s, now)
            self._event(
                "complete", job.job_id, job.request,
                detail=f"{stats.modeled_seconds * 1e3:.3f}ms modeled, "
                       f"attempts={outcome.attempts}",
            )
            self.obs.metrics.counter("serve.completed").inc()
            for handle in job.handles:
                handle._resolve(result, now)
                self._observe_latency(handle)

    def _fleet_for(self) -> Fleet:
        """The fleet sharded jobs run on (a one-card fleet without one).

        Quarantined members are zeroed in place, so sharded jobs
        re-shard over the healthy members while device numbering (and
        the per-card book) stay aligned.
        """
        quarantined = self.scheduler.quarantined
        if quarantined:
            return degraded_fleet(self._cards, quarantined) or self._cards
        return self._cards

    def _place_group(
        self, group: list[Job], n: int, d: int
    ) -> "tuple[dict, tuple[int, ...]]":
        """Pick where one group runs and book its modeled memory.

        Returns the engine kwargs and the per-card bytes booked, which
        the caller releases when the group finishes.  A sharded group
        books each shard's footprint on the cards serving now; a solo
        GPU group books its footprint on the card with the most free
        bytes (lowest index first); a CPU group books nothing.  Raises
        :class:`~repro.exceptions.DeviceOutOfMemoryError` when a card
        cannot hold its part.
        """
        backend = group[0].request.backend
        if backend.startswith("fleet-"):
            fleet = self._fleet_for()
            booked = tuple(
                max(parts) for parts in zip(*(
                    estimate_shard_bytes(n, d, job.request.params, backend,
                                         fleet)
                    for job in group
                ))
            )
            self.scheduler.reserve(booked)
            self.obs.metrics.counter("fleet.jobs").inc()
            return {"fleet": fleet}, booked
        if not backend.startswith("gpu"):
            return {}, ()
        index = self.scheduler.place()
        nbytes = max(job.estimated_bytes for job in group)
        booked = tuple(
            nbytes if card == index else 0
            for card in range(self._cards.num_devices)
        )
        self.scheduler.reserve(booked)
        if self.fleet is not None:
            self.obs.metrics.counter(f"fleet.placements.dev{index}").inc()
        return {"gpu_spec": self._cards.specs[index]}, booked

    def _run_coalesced(
        self, data: np.ndarray, group: list[Job], engine_kwargs: dict
    ) -> list:
        """Run a share-key group against one shared initialization.

        Replays the solo initialization protocol once, then restores
        the post-initialization RNG snapshot before every member so
        each result is bit-identical to its solo run (see the module
        docstring).
        """
        leader = group[0].request
        with self.obs.span(
            "coalesced_group", category="serve",
            backend=leader.backend, jobs=len(group),
        ):
            rng = RandomSource(leader.seed)
            with self.obs.span("shared_state", category="serve"):
                shared = build_solo_shared_state(
                    data, leader.params, rng,
                    self.runner.engines_for(leader.backend),
                )
            post_init_state = rng.get_state()
            outcomes = []
            for index, job in enumerate(group):
                rng.set_state(post_init_state)
                outcomes.append(
                    self.runner.fit(
                        data,
                        backend=job.request.backend,
                        params=job.request.params,
                        seed=rng,
                        shared_state=shared,
                        charge_greedy=index == 0,
                        engine_kwargs=engine_kwargs,
                    )
                )
            return outcomes

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _clock(self) -> float:
        return time.perf_counter() - self._epoch

    def _event(
        self, kind: str, job_id: int = -1,
        request: ClusterRequest | None = None, detail: str = "",
        device: int | None = None,
    ) -> None:
        """Build one :class:`ServeEvent` (of a request, or of fleet member
        ``device``) and route it to its span, the log, the monitor and
        the recorder."""
        if device is None:
            attrs = {"job_id": job_id, "backend": request.backend,
                     "k": request.params.k, "l": request.params.l}
            event = ServeEvent(
                ts=self._clock(), kind=kind, fingerprint=request.fingerprint,
                **attrs, queued=self.scheduler.depth, running=self._running,
                detail=detail,
            )
        else:
            tag = f"dev{device}"
            attrs = {"device": tag}
            event = ServeEvent(
                ts=self._clock(), kind=kind, queued=self.scheduler.depth,
                running=self._running,
                detail=f"{tag}: {detail}" if detail else tag,
            )
        with self.obs.span(
            f"serve.{kind}", category="serve", **attrs, detail=detail,
        ) as span:
            event.span_id = span.span_id
        self.log.record(event)
        if self.monitor is not None:
            # The SLO tracker keys availability/MTTR on the device tag.
            self.monitor.on_event(
                event if device is None else {**event.as_dict(), "detail": tag}
            )
        if self.recorder is not None:
            self.recorder.record_serve(
                event.as_dict(),
                f"job-{job_id}" if job_id >= 0 else current_run().corr,
            )

    def _on_slo_breach(self, report: dict) -> None:
        """Monitor callback: last-resort bundle dump when the
        ``determinism-violations`` SLO breaches.

        Fires once, and only when no other trigger already captured a
        bundle — a breach caused by an exhausted job should yield that
        job's forensics, not a second bundle for the symptom.
        """
        if (
            self.recorder is None
            or self.recorder.dump_count > 0
            or self._slo_dumped
        ):
            return
        if not any(
            isinstance(slo, dict)
            and not slo.get("ok", True)
            and slo.get("name") == "determinism-violations"
            for slo in report.get("slos", [])
        ):
            return
        self._slo_dumped = True
        self.recorder.record_failure(
            "slo-breach", detail="failing: determinism-violations"
        )
        self.recorder.auto_dump("slo-breach", health=report)

    def _observe_latency(self, handle: JobHandle) -> None:
        self.obs.metrics.histogram("serve.latency_seconds").observe(
            handle.latency
        )
