"""Priority queue, admission control, and the request coalescer.

Admission decisions are made against the *modeled* device, in the same
units the paper reports:

* **memory** — :func:`estimate_device_bytes` pre-computes the exact
  footprint the GPU engine's up-front allocation
  (:meth:`repro.gpu_impl.accounting.GpuEngineMixin._setup`) will
  request, so a request that could never fit the modeled card
  (Section 5: space becomes the limit at 8M points on the 6 GB
  GTX 1660 Ti) is rejected at submit time instead of failing mid-run.
  ``fleet-*`` jobs carry per-shard estimates
  (:func:`estimate_shard_bytes`) and are admitted componentwise
  against the fleet's per-device capacities, so a job too big for any
  single card still runs when its shards fit the fleet together;
* **backlog** — completed runs feed an exponentially weighted average
  of modeled device seconds per backend, and the queue's summed
  estimate is capped, bounding modeled wait time;
* **queue** — a plain depth bound.

:meth:`JobScheduler.pop_group` implements the coalescer: it pops the
best job and drains every other queued job with the same
:attr:`~repro.serve.request.ClusterRequest.share_key`, so the group
executes once per the multi-parameter driver's sharing strategy while
each member's response stays bit-identical to a solo run.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading

from ..exceptions import AdmissionError, ParameterError
from ..fleet.fleet import Fleet
from ..params import ProclusParams
from .request import Job

__all__ = ["JobScheduler", "estimate_device_bytes", "estimate_shard_bytes"]

_F32 = 4
_I64 = 8
_BOOL = 1


def _variant_shapes(backend, n, d, k, m, w):
    """Variant-specific device arrays as ``(shape, itemsize)`` entries,
    mirroring each engine's ``_variant_device_arrays``."""
    if backend == "gpu":
        # GPU-PROCLUS: Dist rows for the k current medoids only.
        return [((k, n), _F32)]
    if backend == "gpu-fast-star":
        # GPU-FAST*: k-row caches + slot ownership (O(k*n) space).
        return [
            ((k, n), _F32), ((k, d), _F32), ((k,), _F32), ((k,), _F32),
            ((k,), _I64),
        ]
    if backend == "gpu-fast-dist-only":
        return [((m, n), _F32), ((m,), _BOOL)]
    if backend == "gpu-fast-h-only":
        return [((k, n), _F32), ((m, d), _F32), ((m,), _F32), ((m,), _F32)]
    # GPU-FAST: Dist window + H + prev_delta + L_size_cache + DistFound.
    return [
        ((w, n), _F32), ((m, d), _F32), ((m,), _F32), ((m,), _F32),
        ((m,), _BOOL),
    ]


def _device_shapes(n, d, params, backend, dist_chunks):
    """Every up-front device allocation as ``(shape, itemsize)``.

    Mirrors the one-shot allocation of
    :class:`~repro.gpu_impl.accounting.GpuEngineMixin._setup` (data,
    greedy distances, M, L/C worst-case sets, labels, X/Z, deltas, plus
    the variant's cache arrays).
    """
    k = params.k
    s = params.effective_sample_size(n)
    m = params.effective_num_potential(n)
    window = math.ceil(m / dist_chunks)
    common = [
        ((n, d), _F32),  # data
        ((s,), _F32),  # greedy_dist
        ((m,), _F32),  # M
        ((k, n), _F32),  # L (worst-case size n per medoid)
        ((k, n), _F32),  # C
        ((k,), _F32),  # L_sizes
        ((k,), _F32),  # C_sizes
        ((n,), _F32),  # labels
        ((k, d), _F32),  # X
        ((k, d), _F32),  # Z
        ((k,), _F32),  # delta
        ((k, k), _F32),  # medoid_dist
    ]
    return common + _variant_shapes(backend, n, d, k, m, window)


def estimate_device_bytes(
    n: int,
    d: int,
    params: ProclusParams,
    backend: str,
    dist_chunks: int = 1,
    fleet: Fleet | None = None,
) -> int:
    """Modeled device bytes a run will allocate up front.

    Returns 0 for CPU backends, which use no device memory.  For a
    ``fleet-*`` backend this is the *largest single-device* footprint
    of the sharded run (over a one-card fleet when ``fleet`` is
    omitted); use :func:`estimate_shard_bytes` for the per-device
    breakdown.
    """
    if backend.startswith("fleet-"):
        if fleet is None:
            return estimate_device_bytes(
                n, d, params, backend.removeprefix("fleet-"), dist_chunks
            )
        return max(estimate_shard_bytes(n, d, params, backend, fleet,
                                        dist_chunks))
    if not backend.startswith("gpu"):
        return 0
    return sum(
        math.prod(shape) * itemsize
        for shape, itemsize in _device_shapes(n, d, params, backend,
                                              dist_chunks)
    )


def estimate_shard_bytes(
    n: int,
    d: int,
    params: ProclusParams,
    backend: str,
    fleet: Fleet,
    dist_chunks: int = 1,
) -> tuple[int, ...]:
    """Per-device modeled bytes of a fleet-sharded run.

    Mirrors :meth:`repro.fleet.device.FleetDevice.alloc`: every
    allocation splits its first ``n``-sized axis per the fleet's shard
    plan and is replicated on every active shard otherwise, so the
    per-device estimates are exact for the same reason the solo
    estimate is.  Members holding no points (zero weight or zero
    capacity) estimate to 0.
    """
    solo = backend.removeprefix("fleet-")
    if not solo.startswith("gpu"):
        return tuple(0 for _ in fleet.specs)
    shapes = _device_shapes(n, d, params, solo, dist_chunks)
    out = []
    for count in fleet.shard_plan(n).counts:
        if count == 0:
            out.append(0)
            continue
        total = 0
        for shape, itemsize in shapes:
            split = list(shape)
            for axis, size in enumerate(shape):
                if size == n:
                    split[axis] = count
                    break
            total += math.prod(split) * itemsize
        out.append(total)
    return tuple(out)


class JobScheduler:
    """Thread-safe priority queue with admission control and coalescing."""

    #: EWMA smoothing for the per-backend modeled-seconds estimate.
    EWMA_ALPHA = 0.3

    def __init__(
        self,
        max_queue_depth: int = 64,
        max_backlog_seconds: float = math.inf,
        capacity_bytes: int | None = None,
        device_capacities: "tuple[int, ...] | None" = None,
    ) -> None:
        if max_queue_depth < 1:
            raise ParameterError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if not max_backlog_seconds > 0:
            raise ParameterError(
                f"max_backlog_seconds must be > 0, got {max_backlog_seconds}"
            )
        self.max_queue_depth = max_queue_depth
        self.max_backlog_seconds = max_backlog_seconds
        self.capacity_bytes = capacity_bytes
        #: Per-device capacities of the fleet (when serving one); jobs
        #: carrying per-shard estimates are admitted componentwise
        #: against these instead of against ``capacity_bytes``.
        self.device_capacities = device_capacities
        self._lock = threading.Lock()
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._ewma_seconds: dict[str, float] = {}

    def set_device_capacity(self, index: int, capacity_bytes: int) -> None:
        """Adjust one fleet member's admission capacity in place.

        Health-aware serving drives this: a quarantined member's
        capacity drops to 0 (no shard may be admitted onto it) and is
        restored on readmission.  Raises :class:`ParameterError` when
        the scheduler has no per-device capacities or ``index`` is out
        of range.
        """
        with self._lock:
            if self.device_capacities is None:
                raise ParameterError(
                    "scheduler has no per-device capacities to adjust"
                )
            if not 0 <= index < len(self.device_capacities):
                raise ParameterError(
                    f"device index {index} out of range for "
                    f"{len(self.device_capacities)} devices"
                )
            capacities = list(self.device_capacities)
            capacities[index] = max(0, int(capacity_bytes))
            self.device_capacities = tuple(capacities)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, job: Job) -> None:
        """Raise :class:`AdmissionError` when ``job`` must be refused."""
        backend = job.request.backend
        with self._lock:
            if len(self._heap) >= self.max_queue_depth:
                raise AdmissionError(
                    f"queue full ({len(self._heap)} of "
                    f"{self.max_queue_depth} jobs); retry later",
                    reason="queue",
                )
            if (
                job.shard_bytes is not None
                and self.device_capacities is not None
            ):
                # Sharded job on a fleet: each shard must fit its own
                # device.  A job too big for any single card is still
                # admitted when its shards fit the fleet together.
                for index, (need, cap) in enumerate(
                    zip(job.shard_bytes, self.device_capacities)
                ):
                    if need > cap:
                        raise AdmissionError(
                            f"shard {index} needs {need} modeled device "
                            f"bytes but device {index} has {cap}; it can "
                            f"never run",
                            reason="memory",
                        )
            elif (
                self.capacity_bytes is not None
                and job.estimated_bytes > self.capacity_bytes
            ):
                raise AdmissionError(
                    f"request needs {job.estimated_bytes} modeled device "
                    f"bytes but the card has {self.capacity_bytes}; it can "
                    f"never run",
                    reason="memory",
                )
            backlog = self._backlog_seconds_locked()
            estimate = self._ewma_seconds.get(backend, 0.0)
            if backlog + estimate > self.max_backlog_seconds:
                raise AdmissionError(
                    f"modeled backlog {backlog + estimate:.3f}s exceeds the "
                    f"{self.max_backlog_seconds:.3f}s budget; retry later",
                    reason="backlog",
                )

    # ------------------------------------------------------------------
    # Queue
    # ------------------------------------------------------------------
    def push(self, job: Job) -> None:
        """Enqueue an admitted job."""
        with self._lock:
            heapq.heappush(
                self._heap, (job.request.priority, next(self._seq), job)
            )

    def pop_group(self) -> list[Job]:
        """Dequeue the best job plus every queued share-key sibling.

        Returns ``[]`` when the queue is empty.  Group members keep
        their priority/submission order, so the leader (which pays the
        greedy charge) is deterministic.
        """
        with self._lock:
            if not self._heap:
                return []
            priority, seq, leader = heapq.heappop(self._heap)
            group = [(priority, seq, leader)]
            remaining = []
            for entry in self._heap:
                if entry[2].share_key == leader.share_key:
                    group.append(entry)
                else:
                    remaining.append(entry)
            if len(group) > 1:
                heapq.heapify(remaining)
                self._heap = remaining
                group.sort(key=lambda entry: entry[:2])
            return [entry[2] for entry in group]

    def find_queued(self, cache_key: tuple) -> Job | None:
        """A queued job with this cache key, for submit-time dedupe."""
        with self._lock:
            for _, _, job in self._heap:
                if job.cache_key == cache_key:
                    return job
            return None

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._heap)

    # ------------------------------------------------------------------
    # Modeled-backlog accounting
    # ------------------------------------------------------------------
    def observe(self, backend: str, modeled_seconds: float) -> None:
        """Feed one completed run's modeled seconds into the estimator."""
        with self._lock:
            previous = self._ewma_seconds.get(backend)
            if previous is None:
                self._ewma_seconds[backend] = modeled_seconds
            else:
                self._ewma_seconds[backend] = (
                    self.EWMA_ALPHA * modeled_seconds
                    + (1.0 - self.EWMA_ALPHA) * previous
                )

    def estimate_seconds(self, backend: str) -> float:
        """Current modeled-seconds estimate for one run of ``backend``."""
        with self._lock:
            return self._ewma_seconds.get(backend, 0.0)

    def backlog_seconds(self) -> float:
        """Summed modeled-seconds estimate of everything queued."""
        with self._lock:
            return self._backlog_seconds_locked()

    def _backlog_seconds_locked(self) -> float:
        return sum(
            self._ewma_seconds.get(job.request.backend, 0.0)
            for _, _, job in self._heap
        )
