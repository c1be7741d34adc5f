"""Scene-flow and ego-motion evaluation metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import FlowField, RigidTransform

__all__ = [
    "FlowMetrics",
    "EgoMetrics",
    "flow_metrics",
    "ego_metrics",
]


@dataclass(frozen=True)
class FlowMetrics:
    """End-point-error statistics and threshold ratios for a flow field.

    epe3d_* are meters; acc3ds counts points with error < 0.05 m or relative
    error < 0.05, acc3dr the same at 0.10, and outliers counts error > 0.30 m
    or relative error > 0.10.
    """

    epe3d_mean: float
    epe3d_median: float
    acc3ds: float
    acc3dr: float
    outliers: float


@dataclass(frozen=True)
class EgoMetrics:
    """Rotation error in degrees (geodesic angle) and translation error in meters."""

    rre: float
    rte: float


def flow_metrics(pred: FlowField, gt: FlowField) -> FlowMetrics:
    """Compare a predicted flow field against ground truth, point by point.

    The relative error of a point with zero ground-truth flow is treated as
    infinite, so such points qualify for the accuracy ratios only through the
    absolute thresholds.
    """
    if len(pred) != len(gt):
        raise ValueError("flow fields differ in length")
    if len(pred) == 0:
        raise ValueError("flow fields are empty")
    err = np.linalg.norm(pred.vectors - gt.vectors, axis=1)
    gt_norm = np.linalg.norm(gt.vectors, axis=1)
    rel = np.where(gt_norm > 0, err / np.where(gt_norm > 0, gt_norm, 1.0), np.inf)
    return FlowMetrics(
        epe3d_mean=float(err.mean()),
        epe3d_median=float(np.median(err)),
        acc3ds=float(np.mean((err < 0.05) | (rel < 0.05))),
        acc3dr=float(np.mean((err < 0.10) | (rel < 0.10))),
        outliers=float(np.mean((err > 0.30) | (rel > 0.10))),
    )


def ego_metrics(est: RigidTransform, gt: RigidTransform) -> EgoMetrics:
    """Geodesic rotation angle (degrees) and Euclidean translation gap (meters)."""
    cos_angle = (np.trace(gt.rotation.T @ est.rotation) - 1.0) / 2.0
    rre = float(np.degrees(np.arccos(np.clip(cos_angle, -1.0, 1.0))))
    rte = float(np.linalg.norm(gt.translation - est.translation))
    return EgoMetrics(rre=rre, rte=rte)

