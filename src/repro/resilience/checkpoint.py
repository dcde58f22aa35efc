"""Study checkpoint/resume: survive a killed ``run_parameter_study``.

A :class:`StudyCheckpoint` is a directory:

.. code-block:: text

    <dir>/
        manifest.json          # schema, grid, seed, progress, RNG state
        shared_state.npz       # sample, medoids, FAST cache (levels >= 1)
        setting_k12_l7.npz     # one save_result() file per completed
        setting_k12_l5.npz     # (k, l) setting
        ...

The manifest is written *after* the setting's result file via an
atomic ``os.replace``, so a kill at any point leaves the manifest
referencing only complete files.  :meth:`StudyCheckpoint.resume`, which
the study loop (:func:`repro.core.multiparam.run_study`) calls, validates
the data fingerprint, grid, backend, and reuse level against the
manifest (raising :class:`~repro.exceptions.CheckpointError` on
mismatch), reloads the completed settings, and restores the master RNG
— including its spawn counter, so later settings draw the same
per-setting seeds — the shared study state, and the warm-start medoids;
the loop continues from the first incomplete setting.  The resumed
study's saved results are identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from ..core.serialization import load_result, save_result
from ..core.state import MedoidCache, SharedStudyState
from ..data.fingerprint import dataset_fingerprint
from ..exceptions import CheckpointError, DataValidationError
from ..obs.tracer import current_run
from ..params import ParameterGrid
from ..result import ProclusResult
from ..rng import RandomSource
from .runner import ResilienceEvent, ResilientOutcome

__all__ = ["StudyCheckpoint", "data_fingerprint"]

SCHEMA = "repro.study_checkpoint/1"

#: Kept as this module's historical name for the shared helper; the
#: serve registry and the checkpoint validation hash datasets the same
#: way (memory-order invariant, dtype robust — see
#: :mod:`repro.data.fingerprint`).
data_fingerprint = dataset_fingerprint


class StudyCheckpoint:
    """Progress of one parameter study persisted to a directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    @property
    def shared_path(self) -> Path:
        return self.directory / "shared_state.npz"

    def setting_path(self, k: int, l: int) -> Path:
        return self.directory / f"setting_k{k}_l{l}.npz"

    def exists(self) -> bool:
        """Whether a manifest is present (i.e. a study to resume)."""
        return self.manifest_path.exists()

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def begin(
        self,
        data: np.ndarray,
        grid: ParameterGrid,
        backend: str,
        level: int,
        seed: Any,
    ) -> None:
        """Start a fresh checkpoint (clears any previous progress)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        self._manifest = {
            "schema": SCHEMA,
            "backend": backend,
            "level": int(level),
            "seed": seed if isinstance(seed, (int, type(None))) else None,
            "grid": {
                "ks": list(grid.ks),
                "ls": list(grid.ls),
                "base": asdict(grid.base),
            },
            "data_fingerprint": data_fingerprint(data),
            "completed": [],
            "rng_state": None,
            "previous_best": None,
        }
        self._write_manifest()

    def record_setting(
        self,
        k: int,
        l: int,
        outcome: ResilientOutcome,
        master: RandomSource,
        previous_best: np.ndarray | None,
        shared: SharedStudyState | None,
    ) -> ResilienceEvent:
        """Persist one completed setting + the state to continue after it.

        Write order matters for crash consistency: the result file and
        shared-state snapshot land first, the manifest (which is what a
        resume trusts) is atomically replaced last.  Returns the
        ``checkpoint`` event naming the setting file.
        """
        obs = current_run().tracer
        with obs.span("checkpoint", category="resilience", k=k, l=l):
            path = save_result(outcome.result, self.setting_path(k, l))
            if shared is not None:
                self._save_shared(shared)
            manifest = self._manifest
            manifest["completed"].append([int(k), int(l)])
            manifest["rng_state"] = master.get_state()
            manifest["previous_best"] = (
                None if previous_best is None
                else [int(p) for p in previous_best]
            )
            self._write_manifest()
        if obs.enabled:
            obs.metrics.counter("resilience.checkpoints").inc()
        return ResilienceEvent(
            kind="checkpoint",
            rung=outcome.rung,
            attempt=outcome.attempts,
            detail=str(path),
        )

    def _write_manifest(self) -> None:
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(self._manifest, indent=1))
        os.replace(tmp, self.manifest_path)

    def _save_shared(self, shared: SharedStudyState) -> None:
        cache = shared.cache
        # numpy appends ".npz" when the name lacks it, so the temp file
        # must already end in ".npz" for the atomic rename to find it.
        tmp = self.shared_path.with_name("shared_state.tmp.npz")
        np.savez_compressed(
            tmp,
            sample_indices=shared.sample_indices,
            medoid_ids=shared.medoid_ids,
            dist=cache.dist,
            dist_found=cache.dist_found,
            h=cache.h,
            prev_delta=cache.prev_delta,
            size_l=cache.size_l,
            data_uploaded=np.array(shared.data_uploaded),
        )
        os.replace(tmp, self.shared_path)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load_manifest(self) -> dict[str, Any]:
        """Read and schema-check the manifest."""
        if not self.manifest_path.exists():
            raise CheckpointError(
                f"no checkpoint manifest at {self.manifest_path}"
            )
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint manifest {self.manifest_path}: {exc}"
            ) from exc
        if manifest.get("schema") != SCHEMA:
            raise CheckpointError(
                f"{self.manifest_path} has schema "
                f"{manifest.get('schema')!r}, expected {SCHEMA!r}"
            )
        self._manifest = manifest
        return manifest

    def validate_resume(
        self,
        data: np.ndarray,
        grid: ParameterGrid,
        backend: str,
        level: int,
    ) -> dict[str, Any]:
        """Check that the checkpoint belongs to this exact study."""
        manifest = self.load_manifest()
        try:
            fingerprint = manifest["data_fingerprint"]
            recorded = manifest["grid"]
            recorded_ks = recorded["ks"]
            recorded_ls = recorded["ls"]
            recorded_base = recorded["base"]
            recorded_backend = manifest["backend"]
            recorded_level = manifest["level"]
        except (KeyError, TypeError) as exc:
            # A truncated-but-valid-JSON manifest must not surface as a
            # raw KeyError.
            raise CheckpointError(
                f"checkpoint manifest {self.manifest_path} is incomplete "
                f"(missing {exc}); refusing to resume"
            ) from exc
        if fingerprint != data_fingerprint(data):
            raise CheckpointError(
                "checkpoint was written for a different dataset "
                "(fingerprint mismatch); refusing to resume"
            )
        if (
            list(grid.ks) != recorded_ks
            or list(grid.ls) != recorded_ls
            or asdict(grid.base) != recorded_base
        ):
            raise CheckpointError(
                "checkpoint was written for a different parameter grid; "
                "refusing to resume"
            )
        if recorded_backend != backend or recorded_level != int(level):
            raise CheckpointError(
                f"checkpoint was written for backend="
                f"{recorded_backend!r} level={recorded_level}, "
                f"got backend={backend!r} level={int(level)}"
            )
        return manifest

    def resume(
        self,
        data: np.ndarray,
        grid: ParameterGrid,
        backend: str,
        level: int,
        master: RandomSource,
        events: list,
    ) -> tuple[
        dict[tuple[int, int], ProclusResult],
        RandomSource,
        np.ndarray | None,
        SharedStudyState | None,
    ]:
        """Reload an interrupted study so the driver can continue it.

        Returns the completed results by ``(k, l)``, the master RNG
        (``master`` itself when no setting had completed), the
        warm-start medoids and the shared study state.  Appends a
        ``resume`` event to ``events``.
        """
        manifest = self.validate_resume(data, grid, backend, level)
        completed = {
            (int(k), int(l)): self.load_setting(k, l)
            for k, l in manifest["completed"]
        }
        if manifest["rng_state"] is not None:
            master = RandomSource.from_state(manifest["rng_state"])
        previous_best = manifest["previous_best"]
        if previous_best is not None:
            previous_best = np.asarray(previous_best, dtype=np.int64)
        shared = self.load_shared()
        events.append(
            ResilienceEvent(
                kind="resume",
                rung=backend,
                attempt=0,
                detail=f"{len(completed)} completed settings loaded from "
                       f"{self.directory}",
            )
        )
        obs = current_run().tracer
        with obs.span(
            "resume", category="resilience",
            completed=len(completed), directory=str(self.directory),
        ):
            pass
        if obs.enabled:
            obs.metrics.counter("resilience.resumes").inc()
        return completed, master, previous_best, shared

    def load_setting(self, k: int, l: int) -> ProclusResult:
        """Load one completed setting's result.

        Missing or corrupt setting files surface as
        :class:`~repro.exceptions.CheckpointError` naming the file.
        """
        path = self.setting_path(k, l)
        if not path.exists():
            raise CheckpointError(
                f"manifest lists setting (k={k}, l={l}) as completed but "
                f"{path} is missing"
            )
        try:
            return load_result(path)
        except DataValidationError as exc:
            raise CheckpointError(
                f"setting file {path} is corrupt: {exc}"
            ) from exc

    def load_shared(self) -> SharedStudyState | None:
        """Restore the shared study state snapshot (None when absent).

        A corrupt or truncated snapshot raises
        :class:`~repro.exceptions.CheckpointError` naming the file —
        never a raw zipfile/KeyError.
        """
        if not self.shared_path.exists():
            return None
        try:
            with np.load(self.shared_path, allow_pickle=False) as archive:
                cache = MedoidCache(
                    dist=archive["dist"].copy(),
                    dist_found=archive["dist_found"].copy(),
                    h=archive["h"].copy(),
                    prev_delta=archive["prev_delta"].copy(),
                    size_l=archive["size_l"].copy(),
                )
                return SharedStudyState(
                    sample_indices=archive["sample_indices"].copy(),
                    medoid_ids=archive["medoid_ids"].copy(),
                    cache=cache,
                    data_uploaded=bool(archive["data_uploaded"]),
                )
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise CheckpointError(
                f"shared-state snapshot {self.shared_path} is unreadable "
                f"or incomplete: {exc!r}"
            ) from exc
