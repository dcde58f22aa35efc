"""Workload definitions, seeded inputs and the output oracle.

Every input is a function of the workload name and the ``--seed``
argument only, so two runs with the same seed see identical inputs.
The program under test receives nothing but those inputs, through its
public API (``repro.proclus``, ``repro.fleet.default_fleet``,
``repro.ClusterService``).

Fit workloads run "ops" numbered ``0, 1, 2, ...``; op ``-1`` is the
warm-up fit that set-up runs.  Op ``i`` clusters dataset ``i % 4`` with
its own engine seed, so no two ops share a ``(dataset, seed)`` pair.
"""

from __future__ import annotations

import os
import sys
import time
import zlib
from dataclasses import dataclass

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` (and nowhere else)."""
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    return repro


#: Iterations of the calibration loop, and the seconds it takes on the
#: reference machine (one core of a shared 2.1 GHz x86 host).
CALIBRATION_LOOP = 50_000
REFERENCE_CALIBRATION_S = 0.004


def calibration() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The host's speed drifts by 15 % and more between runs as other
    tenants load it.  Timings are scaled by ``REFERENCE_CALIBRATION_S``
    over the calibration taken next to them, which reports them in
    seconds on the reference machine and cancels most of that drift.
    """
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return time.perf_counter() - started


#: Clusters and average subspace size of every fit op.
K, L = 10, 5
#: Datasets per fit workload; ops cycle through them.
DATASETS = 4
#: Every fit runs exactly this many iterations (patience = max
#: iterations), so per-fit work does not swing with the data-dependent
#: stopping point and a run's figures are comparable across seeds.
ITERATIONS = 12


@dataclass(frozen=True)
class FitSpec:
    """A closed loop of ``proclus()`` fits, one caller."""

    name: str
    backends: tuple[str, ...]  #: rotated op by op
    n: int
    d: int
    devices: int  #: fleet size for ``fleet-*`` backends, else 0
    #: Ops every run times at least; ``modeled_s`` averages exactly
    #: these, so it repeats bit for bit for a given seed.
    min_ops: int


@dataclass(frozen=True)
class ServeSpec:
    """Open-loop then closed-loop traffic into one ``ClusterService``."""

    name: str
    n: int
    d: int
    datasets: int
    backends: tuple[str, ...]
    seeds: int  #: engine seeds in the request pool
    ks: tuple[int, ...]
    ls: tuple[int, ...]
    rate: float  #: offered open-loop rate, requests per second
    workers: int  #: service worker threads
    callers: int  #: closed-loop callers, each waiting for its reply
    open_share: float  #: share of ``--seconds`` spent in the open loop
    iterations: int  #: fixed iteration budget of every request


WORKLOADS = {
    spec.name: spec
    for spec in (
        FitSpec("fit-small", ("gpu", "gpu-fast", "gpu-fast-star"),
                n=4096, d=15, devices=0, min_ops=24),
        FitSpec("fit-large", ("gpu-fast",), n=32768, d=30, devices=0,
                min_ops=8),
        FitSpec("fleet-d4", ("fleet-gpu-fast",), n=8192, d=15, devices=4,
                min_ops=12),
        ServeSpec("serve-mix", n=3000, d=15, datasets=4,
                  backends=("gpu", "gpu-fast"), seeds=6, ks=(6, 8),
                  ls=(3, 4, 5), rate=8.0, workers=2, callers=2,
                  open_share=0.85, iterations=6),
    )
}


def rng_for(workload: str, seed: int, *salt: int) -> np.random.Generator:
    """Independent generator per (workload, seed, purpose)."""
    return np.random.default_rng([zlib.crc32(workload.encode()), seed, *salt])


def make_datasets(workload: str, seed: int, count: int, n: int, d: int):
    """``count`` min-max normalized ``generate_subspace_data`` sets."""
    from repro.data import generate_subspace_data, minmax_normalize

    return [
        minmax_normalize(
            generate_subspace_data(n=n, d=d, seed=rng_for(workload, seed, 0, j)).data
        )
        for j in range(count)
    ]


def engine_seed(seed: int, op: int) -> int:
    """Engine seed of fit op ``op`` (``-1`` is the warm-up)."""
    return int(np.random.SeedSequence([seed, op + 1]).generate_state(1)[0])


class FitInputs:
    """The op sequence of one fit workload run."""

    def __init__(self, repro, spec: FitSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.datasets = make_datasets(spec.name, seed, DATASETS, spec.n, spec.d)
        self.params = repro.ProclusParams(
            k=K, l=L, patience=ITERATIONS, max_iterations=ITERATIONS
        )
        self.fleet = None
        if spec.devices:
            from repro.fleet import default_fleet

            self.fleet = default_fleet(spec.devices)
        self._repro = repro
        self._references: dict[int, object] = {}

    def call(self, op: int, backend: str | None = None):
        """Run op ``op`` (optionally on another backend); returns the result."""
        spec = self.spec
        backend = backend or spec.backends[op % len(spec.backends)]
        kwargs = {"fleet": self.fleet} if backend.startswith("fleet-") else {}
        return self._repro.proclus(
            self.datasets[op % DATASETS], params=self.params, backend=backend,
            seed=engine_seed(self.seed, op), **kwargs,
        )

    def reference(self, op: int):
        """The sequential FAST-PROCLUS result for op ``op`` (memoized)."""
        if op not in self._references:
            self._references[op] = self.call(op, backend="fast")
        return self._references[op]


@dataclass(frozen=True)
class Request:
    dataset: int
    backend: str
    seed: int
    k: int
    l: int


#: Exact repeats of earlier sweeps in every block of fresh sweeps.
REPEATS = 2
#: Most ``l`` values in one sweep.  A sweep is served as one coalesced
#: group whose members all answer when the last one ends, so longer
#: sweeps make a heavier, less steady latency tail.
MAX_SWEEP = 2


def sweep_stream(spec: ServeSpec, seed: int, purpose: int):
    """Endless seeded sequence of request sweeps drawn from the pool.

    A sweep is one (dataset, backend, seed, k) with one or two of its
    ``l`` values, as a user tuning ``l`` sends them at once; its members
    share a coalescing key.  Every block of
    sweeps covers each (backend, k) pair and each sweep length once and
    repeats :data:`REPEATS` earlier sweeps exactly (cache hits, dedupes),
    in seeded order; fresh sweeps take the (dataset, seed) pairs of their
    (backend, k) without replacement.  So the mix of request costs, and
    the share of repeats, is the same for every seed.
    """
    pool_seeds = [
        int(s) for s in np.random.SeedSequence([seed, 7]).generate_state(spec.seeds)
    ]
    rng = rng_for(spec.name, seed, 1, purpose)
    kinds = [(backend, k) for backend in spec.backends for k in spec.ks]
    lengths = range(1, MAX_SWEEP + 1)
    pairs = [(dataset, engine) for dataset in range(spec.datasets)
             for engine in pool_seeds]
    unused = {kind: [pairs[i] for i in rng.permutation(len(pairs))] for kind in kinds}
    history: list[list[Request]] = []
    while True:
        block = [(kind, length) for kind in kinds for length in lengths]
        block = [block[i] for i in rng.permutation(len(block))]
        # A repeat goes after a fresh sweep, so it always has one to copy.
        for slot in sorted(rng.choice(len(block), REPEATS, replace=False),
                           reverse=True):
            block.insert(int(slot) + 1, None)
        for entry in block:
            if entry is None:
                sweep = history[int(rng.integers(len(history)))]
            else:
                (backend, k), length = entry
                if not unused[(backend, k)]:
                    unused[(backend, k)] = [pairs[i] for i in rng.permutation(len(pairs))]
                dataset, engine = unused[(backend, k)].pop()
                sweep = [
                    Request(dataset, backend, engine, k, int(l))
                    for l in rng.permutation(spec.ls)[:length]
                ]
                history.append(sweep)
            yield sweep


def warmup_request(spec: ServeSpec, seed: int) -> Request:
    """A request outside the pool (its seed is not a pool seed)."""
    engine = int(np.random.SeedSequence([seed, 8]).generate_state(1)[0])
    return Request(0, spec.backends[-1], engine, spec.ks[0], spec.ls[0])


class ServeInputs:
    """Datasets, request streams and solo references of ``serve-mix``."""

    def __init__(self, repro, spec: ServeSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.datasets = make_datasets(
            spec.name, seed, spec.datasets, spec.n, spec.d
        )
        self._repro = repro
        self._references: dict[Request, object] = {}

    def params(self, request: Request):
        budget = self.spec.iterations
        return self._repro.ProclusParams(
            k=request.k, l=request.l, patience=budget, max_iterations=budget
        )

    def submit(self, service, request: Request):
        """Submit ``request`` with its ``data=`` array, as clients do."""
        return service.submit(
            data=self.datasets[request.dataset], backend=request.backend,
            params=self.params(request), seed=request.seed,
        )

    def reference(self, request: Request):
        """A solo ``proclus()`` of the request on the service's card."""
        if request not in self._references:
            from repro.hardware.specs import GTX_1660_TI

            self._references[request] = self._repro.proclus(
                self.datasets[request.dataset], params=self.params(request),
                backend=request.backend, seed=request.seed,
                gpu_spec=GTX_1660_TI,
            )
        return self._references[request]

    @property
    def unique_references(self) -> int:
        return len(self._references)


#: Seconds a client waits for any one served reply before giving up.
REPLY_TIMEOUT_S = 60.0


def new_service(repro, spec: ServeSpec):
    return repro.ClusterService(workers=spec.workers)


class System:
    """What set-up builds: inputs, the service (serve only), warm-up."""

    def __init__(self, repro, spec, seed: int) -> None:
        started = time.perf_counter()
        if isinstance(spec, FitSpec):
            self.inputs = FitInputs(repro, spec, seed)
        else:
            self.inputs = ServeInputs(repro, spec, seed)
        #: Input generation time, which set-up time excludes.
        self.generation_s = time.perf_counter() - started
        self.service = None
        started = time.perf_counter()
        if isinstance(spec, FitSpec):
            self.warmup = self.inputs.call(-1)
        else:
            self.service = new_service(repro, spec)
            self.warmup = self.warm(self.service)
        #: Wall seconds of the warm-up op (service build included).
        self.warmup_s = time.perf_counter() - started

    def warm(self, service):
        """Serve the warm-up request on ``service``; returns its result."""
        request = warmup_request(self.inputs.spec, self.inputs.seed)
        return self.inputs.submit(service, request).result(REPLY_TIMEOUT_S)


def same_clustering(a, b) -> bool:
    """Labels, medoids, dimensions, costs and iterations all equal."""
    return (
        np.array_equal(a.labels, b.labels)
        and np.array_equal(a.medoids, b.medoids)
        and a.dimensions == b.dimensions
        and a.cost == b.cost
        and a.refined_cost == b.refined_cost
        and a.iterations == b.iterations
    )


def same_bits(a, b) -> bool:
    """Same clustering plus identical modeled seconds and work counters."""
    return (
        same_clustering(a, b)
        and a.stats.modeled_seconds == b.stats.modeled_seconds
        and a.stats.counters == b.stats.counters
    )


def exact_digest(result) -> dict:
    """The figures that must repeat exactly for a given seed."""
    return {
        "modeled_seconds": result.stats.modeled_seconds,
        "counters": dict(sorted(result.stats.counters.items())),
        "iterations": result.iterations,
        "cost": result.cost,
    }
