"""The scene-flow objective terms as evaluatable (gradient-free) functionals.

The paper trains on these terms; this package trains nothing, so they serve
as diagnostics and correctness oracles for tests and demos: a mask
cross-entropy, an ego-motion discrepancy, a per-cluster rigidity residual,
and a two-way Chamfer distance. The paper's slack-mass regularizer has no
term here: the mass each source point keeps off slack is the `weights` that
`transport.pruned_soft_correspondences` returns. The package root
re-exports the terms; no other module imports this one.
"""

from __future__ import annotations

import numpy as np

from .cluster import ClusterLabeling
from .geom import FlowField, PointCloud, RigidTransform
from .rigidfit import fit_cluster_transform

__all__ = [
    "bce_mask_loss",
    "ego_translation_loss",
    "rigidity_loss",
    "chamfer_loss",
]

# Probabilities are clamped away from {0, 1} so the log terms stay finite.
_PROB_EPS = 1e-7


def bce_mask_loss(pred_fg_prob: np.ndarray, gt_fg: np.ndarray) -> float:
    """Mean binary cross-entropy of predicted foreground probabilities.

    Probabilities are clamped to [1e-7, 1 - 1e-7]. This is the one-cloud
    term; callers average it over both clouds of a pair.
    """
    pred = np.asarray(pred_fg_prob, dtype=np.float64)
    gt = np.asarray(gt_fg, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError("prediction and ground truth lengths differ")
    p = np.clip(pred, _PROB_EPS, 1.0 - _PROB_EPS)
    return float(-np.mean(gt * np.log(p) + (1.0 - gt) * np.log(1.0 - p)))


def ego_translation_loss(
    bg_points: PointCloud, t_est: RigidTransform, t_gt: RigidTransform
) -> float:
    """Mean l1 gap between points moved by the estimated vs. true ego-motion."""
    if len(bg_points) == 0:
        raise ValueError("background cloud is empty")
    diff = t_gt.apply(bg_points.points) - t_est.apply(bg_points.points)
    return float(np.abs(diff).sum(axis=1).mean())


def rigidity_loss(clusters: ClusterLabeling, points: PointCloud, flow: FlowField) -> float:
    """How far each cluster's flow strays from its own best rigid fit.

    For every retained cluster, fits a rigid transform to the cluster's flow
    and averages the per-point l1 residual against the flowed positions; the
    result is the mean over clusters. Clusters with fewer than 3 points
    cannot be fit and are excluded from the average.

    Raises:
        ValueError: when no cluster has at least 3 points.
    """
    if len(points) != len(clusters.labels) or len(flow) != len(points):
        raise ValueError("labels, points, and flow must be index-aligned")
    per_cluster = []
    for k in range(clusters.n_clusters):
        index = np.flatnonzero(clusters.labels == k)
        if len(index) < 3:
            continue
        sub = points.select(index)
        sub_flow = FlowField(flow.vectors[index])
        t = fit_cluster_transform(sub, sub_flow)
        residual = t.apply(sub.points) - (sub.points + sub_flow.vectors)
        per_cluster.append(np.abs(residual).sum(axis=1).mean())
    if not per_cluster:
        raise ValueError("no cluster with at least 3 points")
    return float(np.mean(per_cluster))


def chamfer_loss(fg_x_warped: PointCloud, fg_y: PointCloud) -> float:
    """Two-way Chamfer distance between the warped source FG and the target FG.

    Sum over warped source points of the distance to the nearest target plus
    the symmetric sum over target points (the raw-sum convention).
    """
    if len(fg_x_warped) == 0 or len(fg_y) == 0:
        raise ValueError("empty foreground")
    d_xy, _ = fg_y.kdtree.query(fg_x_warped.points, k=1)
    d_yx, _ = fg_x_warped.kdtree.query(fg_y.points, k=1)
    return float(d_xy.sum() + d_yx.sum())

