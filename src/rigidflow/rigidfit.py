"""Closed-form weighted rigid alignment and its two consumers.

`weighted_kabsch` solves argmin_{R,t} sum_l w_l ||R x_l + t - q_l||^2 via a
weighted covariance and an SVD with a determinant correction that rules out
reflections. `estimate_ego_motion` is the pipeline's one ego-motion step: it
samples the background rows of both clouds and feeds the fit the soft
correspondences of the slack Sinkhorn transport. `fit_cluster_transform`
feeds it a cluster's flow vectors with uniform weights. `refine` reuses the
unchecked solve `_kabsch` inside its ICP loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import FlowField, PointCloud, RigidTransform
from .transport import pruned_soft_correspondences

__all__ = [
    "WeightedCorrespondenceSet",
    "weighted_kabsch",
    "estimate_ego_motion",
    "fit_cluster_transform",
]

# Second singular value below this fraction of the largest means the
# correspondence geometry does not constrain a unique rotation.
_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class WeightedCorrespondenceSet:
    """Index-aligned source/target point pairs with nonnegative weights."""

    source: PointCloud
    target: PointCloud
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if len(self.source) != len(self.target):
            raise ValueError("source and target must have equal point counts")
        if w.shape != (len(self.source),):
            raise ValueError("weights must be one scalar per correspondence")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.source)


def weighted_kabsch(c: WeightedCorrespondenceSet) -> RigidTransform:
    """Optimal weighted least-squares rigid alignment of source onto target.

    Computes weighted centroids, the 3x3 weighted covariance S = X~^T W Q~,
    its SVD S = U Sigma V^T, and returns R = V diag(1, 1, det(V U^T)) U^T with
    t = q_bar - R x_bar. The determinant factor flips the smallest singular
    direction whenever the unconstrained optimum would be a reflection, so
    det(R) = +1 always.

    Raises:
        ValueError: "zero total weight" when weights sum to zero, or
            "degenerate correspondence geometry" when fewer than 3 pairs carry
            positive weight or rank(S) < 2 (e.g. collinear source points).
    """
    w = c.weights
    if w.sum() <= 0:
        raise ValueError("zero total weight")
    if np.count_nonzero(w > 0) < 3:
        raise ValueError("degenerate correspondence geometry")
    return _kabsch(c.source.points, c.target.points, w)


def _kabsch(src: np.ndarray, tgt: np.ndarray, w: np.ndarray) -> RigidTransform:
    """The `weighted_kabsch` solve on (L, 3) arrays whose weights were checked.

    Raises:
        ValueError: "degenerate correspondence geometry" when rank(S) < 2.
    """
    total = w.sum()
    x_bar = (w @ src) / total
    q_bar = (w @ tgt) / total
    s = (src - x_bar).T @ ((tgt - q_bar) * w[:, None])
    u, sig, vt = np.linalg.svd(s)
    if sig[1] <= _RANK_RTOL * sig[0]:
        raise ValueError("degenerate correspondence geometry")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = (vt.T * np.array([1.0, 1.0, d])) @ u.T
    translation = q_bar - rotation @ x_bar
    return RigidTransform(rotation, translation)


def estimate_ego_motion(
    x: PointCloud,
    y: PointCloud,
    bg_mask_x: np.ndarray,
    bg_mask_y: np.ndarray,
    *,
    tau: float,
    n_sample: int,
    slack_d0: float | None,
    iterations: int,
    rng: np.random.Generator,
) -> RigidTransform:
    """Rigid motion mapping the background of `x` onto the background of `y`.

    Draws up to `n_sample` rows per side without replacement from the rows
    that `bg_mask_x` / `bg_mask_y` select (all of them when fewer exist), x
    first, and gathers only the drawn rows' points and features, so the
    whole background is never copied. It matches them by the soft
    assignment at temperature `tau` with slack at exp(-slack_d0 / tau)
    (`slack_d0=None` means 2 tau, i.e. slack competes like a match at
    distance 2 tau) and `iterations` Sinkhorn sweeps, and fits a weighted
    Kabsch on the soft correspondences, weighting each row by the mass it
    kept from slack. The transport runs on the pruned sparse plan of
    `pruned_soft_correspondences`, which agrees with the dense matching to
    rounding but holds only the entries within float64 reach of their row's
    best match.

    Raises:
        ValueError: if either cloud lacks features, either mask selects fewer
            than 3 rows, or the transport or the fit degenerates.
    """
    if x.features is None or y.features is None:
        raise ValueError("both clouds need feature attributes")
    rows_x, rows_y = np.flatnonzero(bg_mask_x), np.flatnonzero(bg_mask_y)
    if len(rows_x) < 3 or len(rows_y) < 3:
        raise ValueError("need at least 3 background points per cloud")
    samples = []
    for pc, rows in ((x, rows_x), (y, rows_y)):
        picked = rows[rng.choice(len(rows), size=min(n_sample, len(rows)), replace=False)]
        samples.append(PointCloud(pc.points[picked], features=pc.features[picked]))
    sample_x, sample_y = samples
    if slack_d0 is None:
        slack_d0 = 2.0 * tau
    matched, weights = pruned_soft_correspondences(
        sample_x, sample_y, tau, slack_logit=-slack_d0 / tau, iterations=iterations
    )
    return weighted_kabsch(
        WeightedCorrespondenceSet(source=sample_x, target=matched, weights=weights)
    )


def fit_cluster_transform(points: PointCloud, flow: FlowField) -> RigidTransform:
    """Rigid transform best explaining `flow` on a cluster (unweighted fit)."""
    if len(flow) != len(points):
        raise ValueError("flow length does not match point count")
    target = PointCloud(points=points.points + flow.vectors)
    return weighted_kabsch(
        WeightedCorrespondenceSet(source=points, target=target, weights=np.ones(len(points)))
    )
