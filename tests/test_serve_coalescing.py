"""Differential suite: coalesced serving is bit-identical to solo runs.

The serving layer's central contract (the paper's multi-parameter
sharing, Section 3.1, applied to concurrent requests): requests that
agree on ``(dataset, backend, seed, k, A, B)`` execute as one group —
sharing the sample, the greedy medoid pick, and the FAST caches — yet
every response must be **bit-identical** to running that request alone.
Checked here end-to-end through the threaded service, across the three
GPU variants of the paper.
"""

from __future__ import annotations

import pytest

from repro import proclus
from repro.params import ProclusParams
from repro.result import bit_identical
from repro.serve import ClusterService

GPU_VARIANTS = ("gpu", "gpu-fast", "gpu-fast-star")


@pytest.fixture(scope="module")
def base_params():
    return ProclusParams(k=4, l=3, a=30, b=5)


class TestServiceLevel:
    @pytest.mark.parametrize("backend", GPU_VARIANTS)
    def test_concurrent_requests_bit_identical(
        self, small_dataset, tiny_dataset, base_params, backend
    ):
        data, _ = small_dataset
        blocker_data, _ = tiny_dataset
        ls = (3, 4, 5)
        with ClusterService(workers=1, cache_entries=0) as service:
            # The blocker occupies the single worker so the sibling
            # requests queue up and are dequeued as one coalesced group.
            blocker = service.submit(
                data=blocker_data, backend=backend,
                params=ProclusParams(k=3, l=3, a=20, b=4), seed=9,
            )
            handles = [
                service.submit(
                    data=data, backend=backend,
                    params=base_params.with_(l=l), seed=0,
                )
                for l in ls
            ]
            results = [handle.result(timeout=120) for handle in handles]
            blocker.result(timeout=120)
            coalesced = service.obs.metrics.as_dict()["counters"].get(
                "serve.coalesced", 0
            )
        # At least two siblings must have shared one dispatch (all three
        # when no sibling slipped in before the blocker started).
        assert coalesced >= 1
        assert sum(handle.coalesced for handle in handles) >= 2
        for l, result in zip(ls, results):
            solo = proclus(
                data, backend=backend,
                params=base_params.with_(l=l), seed=0,
            )
            assert bit_identical(result, solo), (backend, l)

    def test_mixed_share_keys_still_all_identical(
        self, small_dataset, base_params
    ):
        data, _ = small_dataset
        specs = [
            ("gpu-fast", 0, 3), ("gpu-fast", 0, 4),  # one share group
            ("gpu-fast", 1, 3),                      # different seed
            ("gpu", 0, 3),                           # different backend
        ]
        with ClusterService(workers=2, cache_entries=0) as service:
            handles = [
                service.submit(
                    data=data, backend=backend,
                    params=base_params.with_(l=l), seed=seed,
                )
                for backend, seed, l in specs
            ]
            results = [handle.result(timeout=120) for handle in handles]
        for (backend, seed, l), result in zip(specs, results):
            solo = proclus(
                data, backend=backend,
                params=base_params.with_(l=l), seed=seed,
            )
            assert bit_identical(result, solo), (backend, seed, l)
