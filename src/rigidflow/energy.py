"""The scene-flow objective terms as evaluatable (gradient-free) functionals.

These are diagnostics and correctness oracles: a mask cross-entropy, an
ego-motion discrepancy, a slack-mass regularizer, a per-cluster rigidity
residual, and a two-way Chamfer distance, plus the weighted assembly of all
of them into one breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import ClusterLabeling
from .geom import FlowField, PointCloud, RigidTransform
from .rigidfit import fit_cluster_transform
from .transport import AssignmentMatrix

__all__ = [
    "EnergyBreakdown",
    "bce_mask_loss",
    "ego_translation_loss",
    "inlier_loss",
    "rigidity_loss",
    "chamfer_loss",
    "total_energy",
    "DEFAULT_LAMBDA_INLIER",
    "DEFAULT_LAMBDA_CD",
]

DEFAULT_LAMBDA_INLIER = 0.005
DEFAULT_LAMBDA_CD = 0.5

# Probabilities are clamped away from {0, 1} so the log terms stay finite.
_PROB_EPS = 1e-7


@dataclass(frozen=True)
class EnergyBreakdown:
    """All objective terms plus their weighted combinations.

    Invariants: l_ego = l_trans + lambda_inlier * l_inlier,
    l_fg = l_rigid + lambda_cd * l_cd, total = l_bg + l_ego + l_fg.
    """

    l_bg: float
    l_trans: float
    l_inlier: float
    l_ego: float
    l_rigid: float
    l_cd: float
    l_fg: float
    total: float
    lambda_inlier: float = DEFAULT_LAMBDA_INLIER
    lambda_cd: float = DEFAULT_LAMBDA_CD

    @classmethod
    def from_terms(
        cls,
        l_bg: float,
        l_trans: float,
        l_inlier: float,
        l_rigid: float,
        l_cd: float,
        lambda_inlier: float = DEFAULT_LAMBDA_INLIER,
        lambda_cd: float = DEFAULT_LAMBDA_CD,
    ) -> "EnergyBreakdown":
        """Assemble the weighted sums from the five raw terms."""
        l_ego = l_trans + lambda_inlier * l_inlier
        l_fg = l_rigid + lambda_cd * l_cd
        return cls(
            l_bg=float(l_bg),
            l_trans=float(l_trans),
            l_inlier=float(l_inlier),
            l_ego=float(l_ego),
            l_rigid=float(l_rigid),
            l_cd=float(l_cd),
            l_fg=float(l_fg),
            total=float(l_bg + l_ego + l_fg),
            lambda_inlier=float(lambda_inlier),
            lambda_cd=float(lambda_cd),
        )


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


def inlier_loss(a: AssignmentMatrix) -> float:
    """Mass lost to slack: mean per-row plus mean per-column real deficit."""
    real = a.real
    row_term = (1.0 - real.sum(axis=1)).mean()
    col_term = (1.0 - real.sum(axis=0)).mean()
    return float(row_term + col_term)


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


def chamfer_loss(fg_x_warped: PointCloud, fg_y: PointCloud, normalized: bool = False) -> float:
    """Two-way Chamfer distance between the warped source FG and the target FG.

    Sum over warped source points of the distance to the nearest target plus
    the symmetric sum over target points (the raw-sum convention);
    `normalized=True` uses per-side means instead.
    """
    if len(fg_x_warped) == 0 or len(fg_y) == 0:
        raise ValueError("empty foreground")
    d_xy, _ = fg_y.kdtree.query(fg_x_warped.points, k=1)
    d_yx, _ = fg_x_warped.kdtree.query(fg_y.points, k=1)
    if normalized:
        return float(d_xy.mean() + d_yx.mean())
    return float(d_xy.sum() + d_yx.sum())


def total_energy(
    pred_fg_x: np.ndarray,
    gt_fg_x: np.ndarray,
    pred_fg_y: np.ndarray,
    gt_fg_y: np.ndarray,
    bg_points: PointCloud,
    ego_est: RigidTransform,
    ego_gt: RigidTransform,
    assignment: AssignmentMatrix,
    clusters: ClusterLabeling,
    fg_points: PointCloud,
    fg_flow: FlowField,
    fg_y: PointCloud,
    lambda_inlier: float = DEFAULT_LAMBDA_INLIER,
    lambda_cd: float = DEFAULT_LAMBDA_CD,
    normalized_chamfer: bool = False,
) -> EnergyBreakdown:
    """Evaluate every term of the objective on one frame pair.

    The mask term is the average of the two per-cloud cross-entropies. The
    foreground terms are evaluated on `fg_points` (source FG) with its flow
    `fg_flow` against `fg_y` (target FG); scenes without usable foreground
    (no fittable cluster, or an empty FG side) contribute zero for the
    corresponding term rather than erroring, so the breakdown stays defined
    for static scenes.
    """
    l_bg = 0.5 * (bce_mask_loss(pred_fg_x, gt_fg_x) + bce_mask_loss(pred_fg_y, gt_fg_y))
    l_trans = ego_translation_loss(bg_points, ego_est, ego_gt)
    l_inlier = inlier_loss(assignment)
    fittable = any(
        np.count_nonzero(clusters.labels == k) >= 3 for k in range(clusters.n_clusters)
    )
    l_rigid = rigidity_loss(clusters, fg_points, fg_flow) if fittable else 0.0
    if len(fg_points) > 0 and len(fg_y) > 0:
        warped = PointCloud(points=fg_points.points + fg_flow.vectors)
        l_cd = chamfer_loss(warped, fg_y, normalized=normalized_chamfer)
    else:
        l_cd = 0.0
    return EnergyBreakdown.from_terms(
        l_bg, l_trans, l_inlier, l_rigid, l_cd, lambda_inlier, lambda_cd
    )
