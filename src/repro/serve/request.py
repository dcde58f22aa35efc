"""Requests, jobs, and the handles clients wait on.

The two keys defined here encode the serving layer's sharing rules:

* :attr:`ClusterRequest.share_key` — requests with equal share keys can
  execute as one coalesced group.  The key covers everything the
  initialization phase depends on — dataset fingerprint, backend, seed,
  and ``(k, A, B)`` (which size the sample and the greedy pick) — so
  group members draw the identical sample and medoid set ``M``
  (:func:`repro.core.multiparam.build_solo_shared_state`) and each
  member's result equals its solo run's.
* :attr:`ClusterRequest.cache_key` — requests with equal cache keys
  produce the identical :class:`~repro.result.ProclusResult`, so the
  second one can be answered from the result cache (or attached to the
  first while it is still queued).  The key adds the remaining
  parameters (``l``, ``minDev``, patience, ...) that change the
  iterative phase.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..exceptions import ParameterError, ServeError
from ..params import ProclusParams

__all__ = ["ClusterRequest", "Job", "JobHandle"]


@dataclass(frozen=True, slots=True)
class ClusterRequest:
    """One clustering request against a registered dataset."""

    fingerprint: str
    backend: str
    params: ProclusParams
    seed: int = 0
    #: Lower values run earlier; ties run in submission order.
    priority: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.fingerprint, str) or not self.fingerprint:
            raise ParameterError("fingerprint must be a non-empty string")
        if not isinstance(self.params, ProclusParams):
            raise ParameterError(
                f"params must be a ProclusParams, "
                f"got {type(self.params).__name__}"
            )

    @property
    def share_key(self) -> tuple:
        """Requests with equal share keys may coalesce into one group."""
        p = self.params
        return (self.fingerprint, self.backend, self.seed, p.k, p.a, p.b)

    @property
    def cache_key(self) -> tuple:
        """Requests with equal cache keys produce the identical result."""
        p = self.params
        return (
            self.fingerprint, self.backend, self.seed,
            p.k, p.l, p.a, p.b, p.min_deviation, p.patience,
            p.max_iterations, p.bad_medoid_rule,
        )


class JobHandle:
    """Client-side handle on a submitted request.

    ``status`` moves ``queued -> running -> done | failed``; handles
    resolved from the result cache go straight to ``done`` with
    ``cached=True``.  :meth:`result` blocks until resolution.
    """

    def __init__(self, request: ClusterRequest, job_id: int) -> None:
        self.request = request
        self.job_id = job_id
        self.status = "queued"
        self.cached = False  #: answered from the result cache
        self.coalesced = False  #: executed as part of a shared group
        self.deduped = False  #: attached to an identical queued job
        self.submitted_at = 0.0  #: service clock at submit
        self.finished_at = 0.0  #: service clock at resolution
        self._event = threading.Event()
        self._result = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        """Whether the job has resolved (successfully or not)."""
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        """Block until resolved; returns the :class:`ProclusResult`.

        Raises the job's error if it failed, or :class:`ServeError`
        when ``timeout`` seconds pass without resolution.
        """
        if not self._event.wait(timeout):
            raise ServeError(
                f"job {self.job_id} did not finish within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._result

    @property
    def latency(self) -> float:
        """Submit-to-resolution seconds on the service clock."""
        return max(0.0, self.finished_at - self.submitted_at)

    def _resolve(self, result, finished_at: float) -> None:
        self._result = result
        self.status = "done"
        self.finished_at = finished_at
        self._event.set()

    def _fail(self, error: BaseException, finished_at: float) -> None:
        self._error = error
        self.status = "failed"
        self.finished_at = finished_at
        self._event.set()


@dataclass(slots=True)
class Job:
    """A queued unit of work: one request plus every handle waiting on it.

    Deduplicated submissions (same :attr:`ClusterRequest.cache_key`
    while the first is still queued) attach additional handles instead
    of creating new jobs.
    """

    request: ClusterRequest
    job_id: int
    estimated_bytes: int = 0
    #: Per-card footprint of a ``fleet-*`` job (None for solo jobs);
    #: admission checks it card by card against the scheduler's book.
    shard_bytes: "tuple[int, ...] | None" = None
    handles: list[JobHandle] = field(default_factory=list)

    @property
    def share_key(self) -> tuple:
        return self.request.share_key

    @property
    def cache_key(self) -> tuple:
        return self.request.cache_key
