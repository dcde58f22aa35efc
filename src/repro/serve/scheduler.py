"""Priority queue, admission control, the request coalescer, and the
per-card book of modeled device memory.

Admission decisions are made against the *modeled* device, in the same
units the paper reports:

* **memory** — :func:`estimate_device_bytes` sums the GPU engine's
  own up-front allocation list
  (:meth:`repro.gpu_impl.accounting.GpuEngineMixin.device_arrays`, the
  list its ``_setup`` allocates from), so the estimate is exact and a
  request that no admitting card can hold (Section 5: space becomes
  the limit at 8M points on the 6 GB GTX 1660 Ti) is rejected at
  submit time instead of failing mid-run.  ``fleet-*`` jobs carry
  per-shard estimates (:func:`estimate_shard_bytes`) and are admitted
  card by card, so a job too big for any single card still runs when
  its shards fit the fleet together; a solo job needs one admitting
  card that holds it;
* **backlog** — completed runs feed an exponentially weighted average
  of modeled device seconds per backend, and the queue's summed
  estimate is capped, bounding modeled wait time;
* **queue** — a plain depth bound.

The scheduler's per-card book (:class:`Card`, one line per modeled
card, a single line on a solo service) is the one record of device
memory: admission, placement (:meth:`JobScheduler.place`), the
non-blocking :meth:`~JobScheduler.reserve` and
:meth:`~JobScheduler.release`, quarantine, and the service's
``stats()`` all read it.

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.api import BACKENDS
from ..exceptions import AdmissionError, DeviceOutOfMemoryError, ParameterError
from ..fleet.fleet import Fleet
from ..fleet.partition import shard_shape
from ..gpu_impl.accounting import GpuEngineMixin
from ..params import ProclusParams
from .request import Job

__all__ = [
    "Card",
    "JobScheduler",
    "estimate_device_bytes",
    "estimate_shard_bytes",
]

def _device_arrays(n, d, params, backend, dist_chunks):
    """The engine's own up-front allocation list; empty on the CPU."""
    engine = BACKENDS.get(backend)
    if engine is None or not issubclass(engine, GpuEngineMixin):
        return []
    return engine.device_arrays(
        n, d, params, params.effective_num_potential(n), dist_chunks
    )


def _nbytes(shape, dtype) -> int:
    return math.prod(shape) * np.dtype(dtype).itemsize


def estimate_device_bytes(
    n: int,
    d: int,
    params: ProclusParams,
    backend: str,
    dist_chunks: int = 1,
) -> int:
    """Modeled device bytes a run will allocate up front.

    Returns 0 for CPU backends, which use no device memory.  For a
    ``fleet-*`` backend this is the footprint of the whole run on one
    card; :func:`estimate_shard_bytes` gives the per-device breakdown.
    """
    return sum(
        _nbytes(shape, dtype)
        for _, shape, dtype in _device_arrays(n, d, params, backend,
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

    Every allocation is split per the fleet's shard plan with
    :func:`~repro.fleet.partition.shard_shape`, as
    :meth:`repro.fleet.device.FleetDevice.alloc` splits it, so the
    per-device estimates are exact for the same reason the solo
    estimate is.  Members holding no points (zero weight or zero
    capacity) estimate to 0.
    """
    arrays = _device_arrays(n, d, params, backend, dist_chunks)
    return tuple(
        sum(_nbytes(shard_shape(shape, n, count), dtype)
            for _, shape, dtype in arrays) if count else 0
        for count in fleet.shard_plan(n).counts
    )


@dataclass(slots=True)
class Card:
    """One modeled card's line in the scheduler's book."""

    usable_bytes: int
    quarantined: bool = False
    reserved_bytes: int = 0
    peak_bytes: int = 0

    @property
    def capacity_bytes(self) -> int:
        """Admitting capacity: the usable bytes, 0 while quarantined."""
        return 0 if self.quarantined else self.usable_bytes

    @property
    def free_bytes(self) -> int:
        return max(0, self.capacity_bytes - self.reserved_bytes)


class JobScheduler:
    """Thread-safe priority queue with admission control, coalescing,
    and the per-card book of modeled device memory.

    ``device_capacities`` lists each card's usable bytes (negative
    values book as 0: such a card admits nothing).  With no cards, only
    jobs that need no device memory are admitted.
    """

    #: EWMA smoothing for the per-backend modeled-seconds estimate.
    EWMA_ALPHA = 0.3

    def __init__(
        self,
        max_queue_depth: int = 64,
        max_backlog_seconds: float = math.inf,
        device_capacities: Sequence[int] = (),
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
        #: The book: one line per card, in device order.
        self.cards = [
            Card(max(0, int(usable))) for usable in device_capacities
        ]
        #: Peak of the bytes reserved on all cards together.
        self.peak_reserved_bytes = 0
        self._lock = threading.Lock()
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._ewma_seconds: dict[str, float] = {}

    # ------------------------------------------------------------------
    # The per-card book
    # ------------------------------------------------------------------
    @property
    def device_capacities(self) -> tuple[int, ...]:
        """Each card's admitting capacity (0 while quarantined)."""
        with self._lock:
            return tuple(card.capacity_bytes for card in self.cards)

    @property
    def quarantined(self) -> frozenset[int]:
        """Indices of the quarantined cards."""
        with self._lock:
            return frozenset(
                index for index, card in enumerate(self.cards)
                if card.quarantined
            )

    def set_quarantined(self, index: int, quarantined: bool) -> bool:
        """Take card ``index`` out of rotation, or return it.

        A quarantined card admits, places and reserves nothing.
        Returns False when the card already was in that state.
        """
        with self._lock:
            card = self.cards[index]
            if card.quarantined == quarantined:
                return False
            card.quarantined = quarantined
            return True

    def place(self) -> int:
        """The card with the most free bytes, lowest index first."""
        with self._lock:
            free = [card.free_bytes for card in self.cards]
        return free.index(max(free))

    def reserve(self, needs: Sequence[int]) -> None:
        """Book ``needs[i]`` bytes on card ``i``: all of them or none.

        Never waits: one group executes at a time, so the previous
        group has released its bytes.  Raises
        :class:`~repro.exceptions.DeviceOutOfMemoryError` when a card
        cannot hold its part, e.g. because it was quarantined after the
        job was admitted.
        """
        with self._lock:
            for card, need in zip(self.cards, needs):
                if need > card.free_bytes:
                    raise DeviceOutOfMemoryError(
                        need, card.free_bytes, card.capacity_bytes
                    )
            for card, need in zip(self.cards, needs):
                card.reserved_bytes += need
                card.peak_bytes = max(card.peak_bytes, card.reserved_bytes)
            self.peak_reserved_bytes = max(
                self.peak_reserved_bytes,
                sum(card.reserved_bytes for card in self.cards),
            )

    def release(self, needs: Sequence[int]) -> None:
        """Release a booking made with :meth:`reserve`."""
        with self._lock:
            for card, need in zip(self.cards, needs):
                card.reserved_bytes -= need

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
            capacities = [card.capacity_bytes for card in self.cards]
            if job.shard_bytes is not None:
                # Each shard must fit its own card: a job too big for
                # any single card is still admitted when its shards fit
                # the fleet together.
                for index, (need, cap) in enumerate(
                    zip(job.shard_bytes, capacities)
                ):
                    if need > cap:
                        raise AdmissionError(
                            f"shard {index} needs {need} modeled device "
                            f"bytes but device {index} admits {cap}",
                            reason="memory",
                        )
            elif job.estimated_bytes > max(capacities, default=0):
                raise AdmissionError(
                    f"request needs {job.estimated_bytes} modeled device "
                    f"bytes but the largest admitting card has "
                    f"{max(capacities, default=0)}",
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
