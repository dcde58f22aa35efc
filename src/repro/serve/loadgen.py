"""Seeded synthetic load generator and the ``BENCH_serve.json`` report.

The generator replays a deterministic request mix — small pools of
datasets, seeds, and (k, l) settings, so repeats and share-key
collisions actually occur — through a :class:`ClusterService`, then:

1. computes the **naive baseline**: every request executed as an
   independent solo run (the reference results double as the
   determinism oracle);
2. checks the **determinism contract**: each served response must be
   bit-identical (labels, medoids, subspaces, costs, iteration counts)
   to its solo reference;
3. reports the **savings**: modeled device seconds and work counters of
   what the service actually executed versus the naive sum.

The report's ``ok`` field (no determinism violations *and* a strict
modeled-seconds reduction) drives the CLI exit code, so the CI
serve-smoke job fails on any contract violation.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from ..core.api import proclus, resolve_backend
from ..data import generate_subspace_data, minmax_normalize
from ..exceptions import ParameterError
from ..hardware.specs import GTX_1660_TI, GpuSpec
from ..obs.export import report_envelope
from ..params import ProclusParams
from ..result import ProclusResult, RunStats, bit_identical
from .service import ClusterService

__all__ = ["SERVE_BENCH_SCHEMA", "run_loadgen"]

#: Schema identifier of the loadgen report (bump on breaking changes).
SERVE_BENCH_SCHEMA = "repro.serve_bench/1"


def run_loadgen(
    num_requests: int = 24,
    *,
    seed: int = 0,
    workers: int = 2,
    backends: Sequence[str] = ("gpu-fast",),
    num_datasets: int = 2,
    n: int = 600,
    d: int = 8,
    clusters: int = 4,
    subspace_dims: int = 4,
    seeds: Sequence[int] = (0, 1),
    ks: Sequence[int] = (4,),
    ls: Sequence[int] = (3, 4, 5),
    a: int = 30,
    b: int = 5,
    cache_entries: int = 64,
    gpu_spec: GpuSpec | None = None,
    monitor_dir: str | None = None,
    postmortem_dir: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Replay a seeded request mix; returns the serve-bench report.

    With ``monitor_dir`` the service writes live monitoring output
    there (structured event log, Prometheus scrape, ``health.json``)
    and the report gains a ``health`` section — the final SLO summary
    flushed at shutdown, *after* the determinism oracle has reported
    its violations, so ``repro monitor --once`` on that directory sees
    every declared objective evaluated against this run.

    With ``postmortem_dir`` the service runs under a
    :class:`~repro.obs.FlightRecorder`; if the determinism oracle finds
    a violation, the first violating request's context (data, params,
    seed, the solo reference's result digest) is pinned and a
    ``determinism-violation`` postmortem bundle is dumped there — the
    report's ``postmortem_bundle`` field carries its path, and ``repro
    postmortem <bundle> --replay`` re-runs the solo bits against the
    recorded digest.
    """
    if num_requests < 1:
        raise ParameterError(
            f"num_requests must be >= 1, got {num_requests}"
        )
    for backend in backends:
        resolve_backend(backend)
    spec = gpu_spec if gpu_spec is not None else GTX_1660_TI
    say = progress if progress is not None else (lambda message: None)

    say(f"generating {num_datasets} datasets (n={n}, d={d})")
    datasets = [
        minmax_normalize(
            generate_subspace_data(
                n=n, d=d, n_clusters=clusters,
                subspace_dims=subspace_dims, seed=100 + index,
            ).data
        )
        for index in range(num_datasets)
    ]

    # Deterministic request mix: small pools so repeats and share-key
    # collisions are frequent (that is the point of a serving layer).
    mix_rng = np.random.default_rng(seed)
    requests = []
    for _ in range(num_requests):
        requests.append(
            {
                "dataset": int(mix_rng.integers(len(datasets))),
                "backend": backends[int(mix_rng.integers(len(backends)))],
                "seed": int(seeds[int(mix_rng.integers(len(seeds)))]),
                "k": int(ks[int(mix_rng.integers(len(ks)))]),
                "l": int(ls[int(mix_rng.integers(len(ls)))]),
            }
        )

    say(f"serving {num_requests} requests with {workers} workers")
    wall_start = time.perf_counter()
    service = ClusterService(
        workers=workers, gpu_spec=spec, cache_entries=cache_entries,
        max_queue_depth=max(64, num_requests),
        monitor_dir=monitor_dir,
        postmortem_dir=postmortem_dir,
    )
    # Not a `with` block: the determinism oracle below must report its
    # violations to the service *before* shutdown flushes the final
    # monitoring snapshot, or the SLO summary would never see them.
    handles = []
    for spec_dict in requests:
        params = ProclusParams(
            k=spec_dict["k"], l=spec_dict["l"], a=a, b=b
        )
        handles.append(
            service.submit(
                data=datasets[spec_dict["dataset"]],
                backend=spec_dict["backend"],
                params=params,
                seed=spec_dict["seed"],
            )
        )
    served = [handle.result(timeout=600) for handle in handles]
    service.drain()
    wall_seconds = time.perf_counter() - wall_start

    # Naive baseline + determinism oracle: one solo run per unique
    # request signature, on the same modeled card.
    say("running solo references for the determinism check")
    references: dict[tuple, ProclusResult] = {}
    for handle in handles:
        key = handle.request.cache_key
        if key in references:
            continue
        request = handle.request
        engine_kwargs = (
            {"gpu_spec": spec} if request.backend.startswith("gpu") else {}
        )
        references[key] = proclus(
            service.registry.get(request.fingerprint),
            backend=request.backend,
            params=request.params,
            seed=request.seed,
            **engine_kwargs,
        )

    violations = []
    naive_stats = RunStats()
    for index, (handle, result) in enumerate(zip(handles, served)):
        reference = references[handle.request.cache_key]
        naive_stats = naive_stats.merge(reference.stats)
        if not bit_identical(result, reference):
            violations.append(
                {
                    "request": index,
                    "backend": handle.request.backend,
                    "seed": handle.request.seed,
                    "k": handle.request.params.k,
                    "l": handle.request.params.l,
                    "cached": handle.cached,
                    "coalesced": handle.coalesced,
                }
            )

    bundle_path = None
    if violations:
        recorder = service.recorder
        if recorder is not None:
            # Pin the first violating request as the replay context: the
            # solo reference's digest is the recorded truth the replay
            # must reproduce from the bundle alone.
            from ..obs.postmortem import result_digest

            first = violations[0]
            handle = handles[first["request"]]
            request = handle.request
            recorder.set_job(
                data=service.registry.get(request.fingerprint),
                backend=request.backend,
                params=request.params,
                seed=request.seed,
                policy=service.runner.policy,
                engine_kwargs=(
                    {"gpu_spec": spec}
                    if request.backend.startswith("gpu")
                    else {}
                ),
                fingerprint=request.fingerprint,
                pinned=True,
            )
            recorder.set_reference_digest(
                result_digest(references[request.cache_key])
            )
            recorder.record_failure(
                "determinism-violation",
                detail=(
                    f"{len(violations)} of {num_requests} served responses "
                    f"diverged from their solo references; first: request "
                    f"#{first['request']} ({first['backend']}, "
                    f"seed={first['seed']}, k={first['k']}, l={first['l']})"
                ),
            )
            bundle_path = recorder.auto_dump("determinism-violation")
        service.record_violations(len(violations))
    health = service.shutdown()

    served_stats = service.executed_stats
    latencies = np.array([handle.latency for handle in handles])
    saved = naive_stats.modeled_seconds - served_stats.modeled_seconds
    ok = not violations and saved > 0.0
    say(
        f"naive {naive_stats.modeled_seconds * 1e3:.3f}ms modeled vs "
        f"served {served_stats.modeled_seconds * 1e3:.3f}ms; "
        f"{len(violations)} determinism violations"
    )

    report = {
        **report_envelope(SERVE_BENCH_SCHEMA),
        "timestamp": time.time(),
        "ok": ok,
        "config": {
            "num_requests": num_requests,
            "seed": seed,
            "workers": workers,
            "backends": list(backends),
            "num_datasets": num_datasets,
            "n": n,
            "d": d,
            "clusters": clusters,
            "seeds": list(seeds),
            "ks": list(ks),
            "ls": list(ls),
            "a": a,
            "b": b,
            "cache_entries": cache_entries,
            "gpu": spec.name,
        },
        "requests": num_requests,
        "unique_settings": len(references),
        "determinism": {
            "checked": num_requests,
            "violations": violations,
        },
        "totals": {
            "naive_modeled_seconds": naive_stats.modeled_seconds,
            "served_modeled_seconds": served_stats.modeled_seconds,
            "saved_modeled_seconds": saved,
            "speedup": (
                naive_stats.modeled_seconds / served_stats.modeled_seconds
                if served_stats.modeled_seconds > 0
                else float("inf")
            ),
            "naive_counters": dict(naive_stats.counters),
            "served_counters": dict(served_stats.counters),
        },
        "latency_seconds": {
            "p50": float(np.percentile(latencies, 50)),
            "p95": float(np.percentile(latencies, 95)),
            "max": float(latencies.max()),
        },
        "wall_seconds": wall_seconds,
        "serve": service.stats(),
        "events": service.log.as_dicts(),
    }
    if health is not None:
        report["health"] = health
    if bundle_path is not None:
        report["postmortem_bundle"] = str(bundle_path)
    return report
