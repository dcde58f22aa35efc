"""Serve admission's device-memory estimates equal the measured peaks.

``estimate_device_bytes`` must predict a solo GPU run's peak device
footprint exactly, and ``estimate_shard_bytes`` each fleet member's
peak, for every GPU backend, with and without a windowed ``Dist``
cache, and for ``n`` on both sides of the ``A*k`` sample cap.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.api import BACKENDS
from repro.data.normalize import minmax_normalize
from repro.data.synthetic import generate_subspace_data
from repro.fleet import Fleet, default_fleet, mixed_fleet
from repro.hardware.specs import GTX_1660_TI
from repro.params import ProclusParams
from repro.serve import estimate_device_bytes, estimate_shard_bytes

SOLO = ("gpu", "gpu-fast", "gpu-fast-star", "gpu-fast-dist-only",
        "gpu-fast-h-only")
SHARDED = ("fleet-gpu", "fleet-gpu-fast", "fleet-gpu-fast-star")
PARAMS = ProclusParams(k=4, l=3)  # A*k = 400 sampled points
D = 8

FLEETS = {
    "default3": default_fleet(3),
    "mixed": mixed_fleet(1, 1),
    "zero-member": Fleet(specs=(
        GTX_1660_TI,
        replace(GTX_1660_TI, memory_bytes=GTX_1660_TI.reserved_bytes),
        GTX_1660_TI,
    )),
}


def dataset(n: int):
    generated = generate_subspace_data(n=n, d=D, n_clusters=4, seed=3)
    return minmax_normalize(generated.data)


@pytest.mark.parametrize("n", [300, 600])
@pytest.mark.parametrize("dist_chunks", [1, 3])
@pytest.mark.parametrize("backend", SOLO)
def test_solo_estimate_is_the_measured_peak(backend, dist_chunks, n):
    engine = BACKENDS[backend](params=PARAMS, seed=0, dist_chunks=dist_chunks)
    result = engine.fit(dataset(n))
    assert estimate_device_bytes(
        n, D, PARAMS, backend, dist_chunks=dist_chunks
    ) == result.stats.peak_device_bytes


@pytest.mark.parametrize("n", [300, 600])
@pytest.mark.parametrize("fleet", sorted(FLEETS))
@pytest.mark.parametrize("backend", SHARDED)
def test_shard_estimates_are_the_measured_peaks(backend, fleet, n):
    engine = BACKENDS[backend](params=PARAMS, seed=0, fleet=FLEETS[fleet])
    engine.fit(dataset(n))
    measured = tuple(
        0 if shard is None else shard.peak_bytes
        for shard in engine.device.shards
    )
    assert estimate_shard_bytes(
        n, D, PARAMS, backend, FLEETS[fleet]
    ) == measured
