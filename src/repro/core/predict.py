"""Assign new points to an existing PROCLUS clustering.

A downstream user who clustered a reference dataset wants to place new
observations into the found structure without re-clustering.  PROCLUS
makes this natural: each cluster is (medoid, subspace), so a new point
goes to the medoid with the smallest Manhattan segmental distance in
that medoid's subspace, and it is an outlier under the same sphere rule
the refinement phase uses (Section 2.1).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DataValidationError
from ..result import OUTLIER_LABEL, ProclusResult
from .base import validate_data
from .phases import assign_points, find_outliers

__all__ = ["assign_new_points"]


def assign_new_points(
    result: ProclusResult,
    train_data: np.ndarray,
    new_points: np.ndarray,
    detect_outliers: bool = True,
) -> np.ndarray:
    """Label ``new_points`` using a fitted clustering.

    Parameters
    ----------
    result:
        The clustering to extend (defines medoids and subspaces).
    train_data:
        The dataset ``result`` was fitted on — the medoid coordinates
        live here.  Must be the same (already normalized) array.
    new_points:
        ``(m, d)`` new observations in the *same normalized feature
        space* as ``train_data``.
    detect_outliers:
        Apply the refinement phase's sphere rule; points outside every
        medoid's sphere get :data:`~repro.result.OUTLIER_LABEL`.

    Returns
    -------
    numpy.ndarray
        ``(m,)`` labels in ``0..k-1`` (or ``-1`` for outliers).
    """
    train_data = validate_data(train_data)
    new_points = validate_data(new_points)
    if new_points.shape[1] != train_data.shape[1]:
        raise DataValidationError(
            f"new points have {new_points.shape[1]} dimensions, "
            f"training data has {train_data.shape[1]}"
        )
    if result.medoids.max() >= train_data.shape[0]:
        raise DataValidationError(
            "result does not belong to this training data "
            "(medoid index out of range)"
        )
    medoid_points = train_data[result.medoids]
    labels, seg = assign_points(new_points, medoid_points, result.dimensions)
    if detect_outliers and result.k > 1:
        outliers = find_outliers(seg, medoid_points, result.dimensions)
        labels[outliers] = OUTLIER_LABEL
    return labels
