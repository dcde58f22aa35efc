"""Scikit-learn-style estimator interface.

Downstream code that speaks the fit/predict idiom can use
:class:`PROCLUS` instead of the functional API::

    from repro.estimator import PROCLUS

    model = PROCLUS(n_clusters=10, n_dimensions=5, backend="gpu-fast")
    labels = model.fit_predict(X)          # X is min-max normalized for you
    model.cluster_subspaces_               # the D_i per cluster
    model.predict(X_new)                   # place new points

The estimator follows the sklearn conventions that make sense here:
constructor stores hyperparameters only, ``fit`` computes and exposes
trailing-underscore attributes, ``get_params``/``set_params`` support
grid-search-style tooling.  (There is no scikit-learn dependency — the
protocol is implemented directly.)
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .core.api import proclus, resolve_backend
from .core.predict import assign_new_points
from .data.normalize import minmax_normalize
from .exceptions import ParameterError
from .params import ProclusParams
from .result import ProclusResult

__all__ = ["PROCLUS"]


class PROCLUS:
    """Projected clustering estimator (PROCLUS family).

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    n_dimensions:
        Average subspace dimensionality ``l`` (>= 2).
    backend:
        Algorithm variant, see :data:`repro.BACKENDS`.
    n_runs:
        Restarts with distinct seeds; the lowest-cost clustering wins
        (PROCLUS is a randomized search — the paper's protocol).
    random_state:
        Base seed; run ``r`` uses ``random_state + r``.
    normalize:
        Min-max normalize inputs (fit range is reused by ``predict``).
    a, b, min_deviation, patience:
        The remaining PROCLUS parameters (paper defaults).
    """

    def __init__(
        self,
        n_clusters: int = 10,
        n_dimensions: int = 5,
        backend: str = "gpu-fast",
        n_runs: int = 1,
        random_state: int = 0,
        normalize: bool = True,
        a: int = 100,
        b: int = 10,
        min_deviation: float = 0.7,
        patience: int = 5,
    ) -> None:
        self.n_clusters = n_clusters
        self.n_dimensions = n_dimensions
        self.backend = backend
        self.n_runs = n_runs
        self.random_state = random_state
        self.normalize = normalize
        self.a = a
        self.b = b
        self.min_deviation = min_deviation
        self.patience = patience

    # ------------------------------------------------------------------
    # sklearn-protocol plumbing
    # ------------------------------------------------------------------
    _PARAM_NAMES = (
        "n_clusters", "n_dimensions", "backend", "n_runs", "random_state",
        "normalize", "a", "b", "min_deviation", "patience",
    )

    def get_params(self, deep: bool = True) -> dict[str, Any]:
        """Hyperparameters as a dict (sklearn convention)."""
        return {name: getattr(self, name) for name in self._PARAM_NAMES}

    def set_params(self, **params: Any) -> "PROCLUS":
        """Update hyperparameters; unknown names raise."""
        for name, value in params.items():
            if name not in self._PARAM_NAMES:
                raise ParameterError(
                    f"unknown parameter {name!r}; valid: {self._PARAM_NAMES}"
                )
            setattr(self, name, value)
        return self

    def _make_params(self) -> ProclusParams:
        return ProclusParams(
            k=self.n_clusters,
            l=self.n_dimensions,
            a=self.a,
            b=self.b,
            min_deviation=self.min_deviation,
            patience=self.patience,
        )

    def _prepare(self, x: np.ndarray, fit: bool) -> np.ndarray:
        x = np.asarray(x)
        if not self.normalize:
            return x
        if fit:
            x = np.ascontiguousarray(x, dtype=np.float32)
            self._mins_ = x.min(axis=0)
            spans = x.max(axis=0) - self._mins_
            spans[spans == 0] = 1.0
            self._spans_ = spans
            return minmax_normalize(x)
        scaled = (x.astype(np.float32) - self._mins_) / self._spans_
        return np.clip(scaled, 0.0, 1.0).astype(np.float32)

    # ------------------------------------------------------------------
    # Estimator API
    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray) -> "PROCLUS":
        """Cluster ``x``; exposes ``labels_`` and friends."""
        resolve_backend(self.backend)
        if self.n_runs < 1:
            raise ParameterError(f"n_runs must be >= 1, got {self.n_runs}")
        data = self._prepare(x, fit=True)
        params = self._make_params()
        best: ProclusResult | None = None
        for run in range(self.n_runs):
            result = proclus(
                data,
                backend=self.backend,
                params=params,
                seed=self.random_state + run,
            )
            if best is None or result.cost < best.cost:
                best = result
        assert best is not None
        self._train_data_ = data
        self.result_ = best
        self.labels_ = best.labels
        self.medoid_indices_ = best.medoids
        self.cluster_subspaces_ = best.dimensions
        self.cost_ = best.cost
        self.n_iter_ = best.iterations
        self.n_outliers_ = best.n_outliers
        return self

    def fit_predict(self, x: np.ndarray) -> np.ndarray:
        """Fit and return the training labels."""
        return self.fit(x).labels_

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Assign new points to the fitted clusters (outlier rule applies)."""
        self._check_fitted()
        data = self._prepare(x, fit=False)
        return assign_new_points(self.result_, self._train_data_, data)

    def _check_fitted(self) -> None:
        if not hasattr(self, "result_"):
            raise ParameterError("estimator is not fitted; call fit() first")

    def __repr__(self) -> str:
        args = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._PARAM_NAMES
        )
        return f"PROCLUS({args})"
