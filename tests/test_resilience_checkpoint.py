"""Tests for checkpoint/resume: study-level and engine-level."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import (
    BACKENDS,
    ParameterGrid,
    ProclusParams,
    load_engine_state,
    proclus,
    run_parameter_study,
    save_engine_state,
)
from repro.exceptions import CheckpointError, TransientDeviceError
from repro.obs import use_run
from repro.resilience import (
    FaultInjector,
    RetryPolicy,
    StudyCheckpoint,
    data_fingerprint,
)

from tests.test_resilience_runner import assert_identical


@pytest.fixture
def study_grid(small_params):
    return ParameterGrid(ks=(5, 4), ls=(4, 3), base=small_params.with_(k=5))


def assert_studies_identical(a, b):
    assert set(a.results) == set(b.results)
    for key in a.results:
        assert_identical(a.results[key], b.results[key])


class TestDataFingerprint:
    def test_stable_and_sensitive(self, small_dataset):
        data, _ = small_dataset
        assert data_fingerprint(data) == data_fingerprint(data.copy())
        modified = data.copy()
        modified[0, 0] += 1e-6
        assert data_fingerprint(data) != data_fingerprint(modified)


class TestStudyCheckpoint:
    def test_checkpointed_study_equals_plain(self, small_dataset, study_grid,
                                             tmp_path):
        data, _ = small_dataset
        plain = run_parameter_study(
            data, grid=study_grid, backend="gpu-fast", level=3, seed=0
        )
        checkpointed = run_parameter_study(
            data, grid=study_grid, backend="gpu-fast", level=3, seed=0,
            checkpoint_dir=tmp_path / "ckpt",
        )
        assert_studies_identical(plain, checkpointed)
        checkpoint = StudyCheckpoint(tmp_path / "ckpt")
        assert checkpoint.exists()
        manifest = checkpoint.load_manifest()
        assert len(manifest["completed"]) == len(study_grid)

    def test_kill_and_resume_is_identical(self, small_dataset, study_grid,
                                          tmp_path):
        data, _ = small_dataset
        reference = run_parameter_study(
            data, grid=study_grid, backend="gpu-fast", level=3, seed=0
        )
        # Kill the study partway: from two thirds of the study's
        # launches on, every operation fails and degradation is
        # disallowed, so the driver raises after a few settings have
        # been checkpointed.
        probe = FaultInjector(["launch#999999999"])
        with use_run(injector=probe):
            run_parameter_study(
                data, grid=study_grid, backend="gpu-fast", level=3, seed=0
            )
        kill_at = probe._matches[0] * 2 // 3
        directory = tmp_path / "ckpt"
        injector = FaultInjector([f"transient#{kill_at}+*"])
        policy = RetryPolicy(max_retries=0, allow_degraded=False)
        from repro.exceptions import ResilienceExhaustedError

        with use_run(injector=injector):
            with pytest.raises(ResilienceExhaustedError):
                run_parameter_study(
                    data, grid=study_grid, backend="gpu-fast", level=3,
                    seed=0, checkpoint_dir=directory, resilience=policy,
                )
        checkpoint = StudyCheckpoint(directory)
        done = checkpoint.load_manifest()["completed"]
        assert 0 < len(done) < len(study_grid), "kill point missed"

        resumed = run_parameter_study(
            data, grid=study_grid, backend="gpu-fast", level=3, seed=0,
            checkpoint_dir=directory, resume=True,
        )
        assert_studies_identical(resumed, reference)
        assert any(event.kind == "resume" for event in resumed.events)
        # The settings persisted before the kill are bit-identical to
        # the ones a fresh checkpointed run would save.
        for (k, l) in map(tuple, done):
            saved = checkpoint.load_setting(k, l)
            assert_identical(saved, reference.results[(k, l)])

    def test_resume_of_complete_study_runs_nothing(self, small_dataset,
                                                   study_grid, tmp_path):
        data, _ = small_dataset
        first = run_parameter_study(
            data, grid=study_grid, backend="gpu-fast", level=3, seed=0,
            checkpoint_dir=tmp_path / "ckpt",
        )
        again = run_parameter_study(
            data, grid=study_grid, backend="gpu-fast", level=3, seed=0,
            checkpoint_dir=tmp_path / "ckpt", resume=True,
        )
        assert_studies_identical(first, again)

    def test_resume_rejects_different_data(self, small_dataset, study_grid,
                                           tmp_path):
        data, _ = small_dataset
        run_parameter_study(
            data, grid=study_grid, backend="gpu-fast", level=3, seed=0,
            checkpoint_dir=tmp_path / "ckpt",
        )
        other = data.copy()
        other[0, 0] = 0.123
        with pytest.raises(CheckpointError, match="fingerprint"):
            run_parameter_study(
                other, grid=study_grid, backend="gpu-fast", level=3, seed=0,
                checkpoint_dir=tmp_path / "ckpt", resume=True,
            )

    def test_resume_rejects_different_grid_backend_level(
        self, small_dataset, study_grid, tmp_path
    ):
        data, _ = small_dataset
        run_parameter_study(
            data, grid=study_grid, backend="gpu-fast", level=3, seed=0,
            checkpoint_dir=tmp_path / "ckpt",
        )
        other_grid = ParameterGrid(ks=(5,), ls=(4, 3), base=study_grid.base)
        with pytest.raises(CheckpointError, match="grid"):
            run_parameter_study(
                data, grid=other_grid, backend="gpu-fast", level=3, seed=0,
                checkpoint_dir=tmp_path / "ckpt", resume=True,
            )
        with pytest.raises(CheckpointError, match="backend"):
            run_parameter_study(
                data, grid=study_grid, backend="gpu", level=3, seed=0,
                checkpoint_dir=tmp_path / "ckpt", resume=True,
            )
        with pytest.raises(CheckpointError, match="level"):
            run_parameter_study(
                data, grid=study_grid, backend="gpu-fast", level=2, seed=0,
                checkpoint_dir=tmp_path / "ckpt", resume=True,
            )

    def test_corrupt_manifest_rejected(self, tmp_path):
        checkpoint = StudyCheckpoint(tmp_path)
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            checkpoint.load_manifest()
        checkpoint.manifest_path.write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            checkpoint.load_manifest()
        checkpoint.manifest_path.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(CheckpointError, match="schema"):
            checkpoint.load_manifest()

    def test_missing_setting_file_rejected(self, tmp_path):
        checkpoint = StudyCheckpoint(tmp_path)
        with pytest.raises(CheckpointError, match="missing"):
            checkpoint.load_setting(4, 3)


class TestEngineCheckpoint:
    def _kill_point(self, data, params):
        """Two thirds of the launches a full gpu-fast run issues."""
        probe = FaultInjector(["launch#999999999"])
        with use_run(injector=probe):
            proclus(data, backend="gpu-fast", params=params, seed=0)
        return probe._matches[0] * 2 // 3

    def test_killed_run_resumes_bit_identically(self, small_dataset,
                                                small_params, tmp_path):
        data, _ = small_dataset
        reference = proclus(data, backend="gpu-fast", params=small_params, seed=0)
        path = tmp_path / "engine.npz"
        injector = FaultInjector([f"transient#{self._kill_point(data, small_params)}+*"])
        engine = BACKENDS["gpu-fast"](
            params=small_params, seed=0,
            checkpoint_every=1, checkpoint_path=path,
        )
        with use_run(injector=injector):
            with pytest.raises(TransientDeviceError):
                engine.fit(data)
        assert path.exists()

        resumed = BACKENDS["gpu-fast"](
            params=small_params, seed=0, resume_from=path
        ).fit(data)
        assert_identical(resumed, reference)
        assert resumed.iterations == reference.iterations

    @pytest.mark.parametrize("resume_backend",
                             ["gpu-fast", "gpu", "gpu-fast-star", "fast",
                              "proclus"])
    def test_checkpoints_are_backend_agnostic(self, resume_backend,
                                              small_dataset, small_params,
                                              tmp_path):
        """A checkpoint written by gpu-fast resumes on any backend with
        the identical final clustering (FAST caches are rebuilt, not
        stored, so the snapshot carries no backend state)."""
        data, _ = small_dataset
        reference = proclus(data, backend="gpu-fast", params=small_params, seed=0)
        path = tmp_path / "engine.npz"
        injector = FaultInjector([f"transient#{self._kill_point(data, small_params)}+*"])
        with use_run(injector=injector):
            with pytest.raises(TransientDeviceError):
                BACKENDS["gpu-fast"](
                    params=small_params, seed=0,
                    checkpoint_every=1, checkpoint_path=path,
                ).fit(data)
        resumed = BACKENDS[resume_backend](
            params=small_params, seed=0, resume_from=path
        ).fit(data)
        assert_identical(resumed, reference)

    def test_state_round_trip(self, small_dataset, small_params, tmp_path):
        data, _ = small_dataset
        path = tmp_path / "engine.npz"
        kill = self._kill_point(data, small_params)
        with use_run(injector=FaultInjector([f"transient#{kill}+*"])):
            with pytest.raises(TransientDeviceError):
                BACKENDS["gpu-fast"](
                    params=small_params, seed=0,
                    checkpoint_every=1, checkpoint_path=path,
                ).fit(data)
        state = load_engine_state(path)
        copied = tmp_path / "copy.npz"
        save_engine_state(state, copied)
        again = load_engine_state(copied)
        assert state.n == again.n and state.d == again.d
        assert state.k == again.k and state.l == again.l
        assert state.total == again.total and state.stale == again.stale
        assert state.cost_best == again.cost_best
        assert np.array_equal(state.medoid_ids, again.medoid_ids)
        assert np.array_equal(state.mcur, again.mcur)
        assert np.array_equal(state.mbest, again.mbest)
        assert np.array_equal(state.labels_best, again.labels_best)
        assert np.array_equal(state.sizes_best, again.sizes_best)
        assert state.rng_state == again.rng_state

    def test_load_errors_are_typed(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_engine_state(tmp_path / "missing.npz")
        bogus = tmp_path / "bogus.npz"
        bogus.write_bytes(b"not a zip archive")
        with pytest.raises(CheckpointError):
            load_engine_state(bogus)

    def test_resume_rejects_mismatched_shape_and_params(
        self, small_dataset, small_params, tmp_path
    ):
        data, _ = small_dataset
        path = tmp_path / "engine.npz"
        BACKENDS["gpu-fast"](
            params=small_params, seed=0,
            checkpoint_every=1, checkpoint_path=path,
        ).fit(data)
        with pytest.raises(CheckpointError, match="dataset"):
            BACKENDS["gpu-fast"](
                params=small_params, seed=0, resume_from=path
            ).fit(data[:-10])
        with pytest.raises(CheckpointError, match="k="):
            BACKENDS["gpu-fast"](
                params=small_params.with_(k=3), seed=0, resume_from=path
            ).fit(data)

    def test_checkpoint_every_validation(self, small_params):
        from repro.exceptions import ParameterError

        with pytest.raises(ParameterError, match="checkpoint_path"):
            BACKENDS["gpu-fast"](params=small_params, checkpoint_every=1)
        with pytest.raises(ParameterError):
            BACKENDS["gpu-fast"](params=small_params, checkpoint_every=-1)
        with pytest.raises(ParameterError):
            BACKENDS["gpu-fast"](params=small_params, checkpoint_every=True)


class TestCorruptionHardening:
    """Corrupt/truncated checkpoint artifacts raise CheckpointError
    naming the file — never a raw JSONDecodeError/KeyError/BadZipFile."""

    @pytest.fixture
    def written_checkpoint(self, small_dataset, study_grid, tmp_path):
        data, _ = small_dataset
        run_parameter_study(
            data, grid=study_grid, backend="gpu-fast", level=3, seed=0,
            checkpoint_dir=tmp_path / "ckpt",
        )
        return data, StudyCheckpoint(tmp_path / "ckpt")

    def test_incomplete_manifest_refuses_resume(self, written_checkpoint,
                                                study_grid):
        data, checkpoint = written_checkpoint
        manifest = checkpoint.load_manifest()
        del manifest["grid"]
        checkpoint.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="incomplete"):
            checkpoint.validate_resume(data, study_grid, "gpu-fast", 3)

    def test_truncated_shared_state(self, written_checkpoint):
        _, checkpoint = written_checkpoint
        assert checkpoint.shared_path.exists()
        blob = checkpoint.shared_path.read_bytes()
        checkpoint.shared_path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="shared-state snapshot"):
            checkpoint.load_shared()

    def test_shared_state_missing_arrays(self, written_checkpoint):
        import numpy as np

        _, checkpoint = written_checkpoint
        np.savez(checkpoint.shared_path, other=np.arange(3))
        with pytest.raises(CheckpointError, match="unreadable or incomplete"):
            checkpoint.load_shared()

    def test_corrupt_setting_file(self, written_checkpoint, study_grid):
        _, checkpoint = written_checkpoint
        k, l = study_grid.ks[0], study_grid.ls[0]
        checkpoint.setting_path(k, l).write_bytes(b"\x00garbage\x00")
        with pytest.raises(CheckpointError, match="corrupt"):
            checkpoint.load_setting(k, l)

    def test_truncated_engine_checkpoint(self, small_dataset, small_params,
                                         tmp_path):
        data, _ = small_dataset
        path = tmp_path / "engine.npz"
        BACKENDS["gpu-fast"](
            params=small_params, seed=0,
            checkpoint_every=1, checkpoint_path=path,
        ).fit(data)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="readable"):
            load_engine_state(path)

    def test_engine_checkpoint_missing_arrays(self, tmp_path):
        path = tmp_path / "engine.npz"
        meta = json.dumps({"schema": "repro.engine_state/1"})
        np.savez(path, meta=np.array(meta))
        with pytest.raises(CheckpointError, match="readable"):
            load_engine_state(path)

    def test_engine_checkpoint_malformed_metadata(self, tmp_path):
        path = tmp_path / "engine.npz"
        meta = json.dumps({"schema": "repro.engine_state/1", "n": 10})
        arrays = {
            name: np.arange(4)
            for name in (
                "medoid_ids", "mcur", "mbest", "labels_best", "sizes_best",
            )
        }
        np.savez(path, meta=np.array(meta), **arrays)
        with pytest.raises(
            CheckpointError, match="incomplete or malformed"
        ) as info:
            load_engine_state(path)
        assert str(path) in str(info.value)
