"""repro.serve: a multi-tenant clustering service over the engines.

The paper's multi-parameter driver (Section 3.1) shows that concurrent
PROCLUS runs on the same dataset share most of their expensive work —
the sample ``Data'``, the greedy medoid pick, the data upload, and the
FAST caches.  This package turns that observation into an in-process
serving layer:

* :class:`~repro.serve.registry.DatasetRegistry` — fingerprints
  uploaded datasets (:func:`repro.data.fingerprint.dataset_fingerprint`)
  so requests can reference data by content instead of re-uploading it;
* :class:`~repro.serve.scheduler.JobScheduler` — priority queue with
  admission control (queue depth, modeled-backlog, device-memory
  feasibility) and the per-card book of modeled device memory that
  admits, places and reserves every job;
* the request **coalescer** — concurrently queued requests agreeing on
  ``(fingerprint, backend, seed, k, A, B)`` execute as one group
  (``ClusterService._run_coalesced`` over
  :func:`~repro.core.multiparam.build_solo_shared_state`), sharing
  initialization and caches while every response stays bit-identical
  to a direct solo run (the determinism contract the differential
  tests assert);
* :class:`~repro.serve.cache.ResultCache` — memoizes full results per
  ``(fingerprint, backend, seed, params)`` with LRU eviction;
* :class:`~repro.serve.service.ClusterService` — worker threads tying
  it together, running every job under the resilience policies on the
  card (or fleet) the scheduler's book placed it on;
* :func:`~repro.serve.loadgen.run_loadgen` — seeded synthetic request
  mixes producing the ``BENCH_serve.json`` report.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "request": ("ClusterRequest", "JobHandle"),
    "service": ("ClusterService",),
    "registry": ("DatasetRegistry",),
    "scheduler": (
        "JobScheduler", "estimate_device_bytes", "estimate_shard_bytes",
    ),
    "cache": ("ResultCache",),
    "events": ("ServeEvent", "ServeLog"),
    "spool": ("read_response", "serve_spool", "write_request"),
    "loadgen": ("run_loadgen",),
})
