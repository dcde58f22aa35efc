"""Pin: every way of running a (k, l) study gives the plain study's output.

A plain study, a ``resilience=True`` study, a checkpointed study and a
``resume=True`` rerun of that checkpointed study must agree setting by
setting — clustering, work counters, modeled seconds and per-phase
seconds — and in their totals.  For the GPU backends a study killed
part-way (every launch failing from two thirds of the study on, no
retries, no degradation) and then resumed from its checkpoint must
agree with the plain study too.
"""

from __future__ import annotations

import pytest

from repro import ParameterGrid, ProclusParams, run_parameter_study
from repro.data.normalize import minmax_normalize
from repro.data.synthetic import generate_subspace_data
from repro.exceptions import ResilienceExhaustedError
from repro.obs import use_run
from repro.resilience import (
    FaultInjector,
    RetryPolicy,
    StudyCheckpoint,
)
from repro.result import bit_identical

BACKENDS = ("fast", "gpu", "gpu-fast", "fleet-gpu-fast")
GPU_BACKENDS = ("gpu", "gpu-fast", "fleet-gpu-fast")
LEVELS = (0, 1, 2, 3)

GRID = ParameterGrid(ks=(5, 4), ls=(3, 2), base=ProclusParams(a=20, b=4))


@pytest.fixture(scope="module")
def data():
    dataset = generate_subspace_data(
        n=1500, d=8, n_clusters=5, subspace_dims=4, seed=9
    )
    return minmax_normalize(dataset.data)


def study(data, backend, level, **kwargs):
    return run_parameter_study(
        data, grid=GRID, backend=backend, level=level, seed=0, **kwargs
    )


def assert_same_study(study, reference):
    assert list(study.results) == list(reference.results)
    for key, expected in reference.results.items():
        got = study.results[key]
        assert bit_identical(got, expected), key
        assert got.stats.counters == expected.stats.counters, key
        assert got.stats.modeled_seconds == expected.stats.modeled_seconds, key
        assert got.stats.phase_seconds == expected.stats.phase_seconds, key
    assert (
        study.total_stats.modeled_seconds
        == reference.total_stats.modeled_seconds
    )
    assert study.total_stats.counters == reference.total_stats.counters


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_every_driver_route_matches_plain(data, backend, level, tmp_path):
    plain = study(data, backend, level)
    assert_same_study(study(data, backend, level, resilience=True), plain)
    directory = tmp_path / "ckpt"
    assert_same_study(study(data, backend, level, checkpoint_dir=directory),
                      plain)
    assert_same_study(
        study(data, backend, level, checkpoint_dir=directory, resume=True),
        plain,
    )


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("backend", GPU_BACKENDS)
def test_killed_and_resumed_study_matches_plain(data, backend, level,
                                                tmp_path):
    probe = FaultInjector(["launch#999999999"])
    with use_run(injector=probe):
        plain = study(data, backend, level)
    kill_at = probe._matches[0] * 2 // 3
    directory = tmp_path / "ckpt"
    injector = FaultInjector([f"transient#{kill_at}+*"])
    policy = RetryPolicy(max_retries=0, allow_degraded=False)
    with use_run(injector=injector), pytest.raises(ResilienceExhaustedError):
        study(data, backend, level, checkpoint_dir=directory,
              resilience=policy)
    done = StudyCheckpoint(directory).load_manifest()["completed"]
    assert 0 < len(done) < len(GRID), "kill point missed"
    resumed = study(data, backend, level, checkpoint_dir=directory,
                    resume=True)
    assert_same_study(resumed, plain)
