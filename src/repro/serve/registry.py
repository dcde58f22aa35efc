"""Content-addressed dataset registry.

Clients upload a dataset once and reference it afterwards by its
fingerprint (:func:`repro.data.fingerprint.dataset_fingerprint`), the
way the paper's multi-parameter experiments keep one dataset resident
on the device across many (k, l) settings.  Registration is idempotent
— re-uploading bytes that hash to a known fingerprint is free — and
the registry stores the *validated canonical* array (float32, C
order), so every job on a fingerprint sees the identical bytes
regardless of the dtype or memory order the client uploaded.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.base import validate_data
from ..data.fingerprint import dataset_fingerprint
from ..exceptions import ServeError

__all__ = ["DatasetRegistry"]


class DatasetRegistry:
    """Thread-safe fingerprint -> canonical dataset store."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._datasets: dict[str, np.ndarray] = {}

    def register(self, data: np.ndarray) -> str:
        """Validate, fingerprint, and store ``data``; returns the fingerprint.

        Raises :class:`~repro.exceptions.DataValidationError` for
        malformed input (the same contract as every engine).
        """
        canonical = validate_data(data)
        fingerprint = dataset_fingerprint(canonical)
        with self._lock:
            if fingerprint not in self._datasets:
                canonical = canonical.copy()
                canonical.setflags(write=False)
                self._datasets[fingerprint] = canonical
        return fingerprint

    def get(self, fingerprint: str) -> np.ndarray:
        """The canonical array for ``fingerprint`` (read-only view).

        Raises :class:`~repro.exceptions.ServeError` for unknown
        fingerprints.
        """
        with self._lock:
            try:
                return self._datasets[fingerprint]
            except KeyError:
                raise ServeError(
                    f"unknown dataset fingerprint {fingerprint[:12]!r}...; "
                    f"register the dataset first"
                ) from None

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._datasets

    def __len__(self) -> int:
        with self._lock:
            return len(self._datasets)

    def total_bytes(self) -> int:
        """Host bytes held by the registry."""
        with self._lock:
            return sum(array.nbytes for array in self._datasets.values())
