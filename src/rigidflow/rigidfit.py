"""Closed-form weighted rigid alignment and its two consumers.

`weighted_kabsch` solves argmin_{R,t} sum_l w_l ||R x_l + t - q_l||^2 via a
weighted covariance and an SVD with a determinant correction that rules out
reflections. `estimate_ego_motion` feeds it soft correspondences from the
slack Sinkhorn transport; `fit_cluster_transform` feeds it a cluster's flow
vectors with uniform weights.
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
    bg_x: PointCloud,
    bg_y: PointCloud,
    tau: float = 0.1,
    n_sample: int = 1024,
    slack_d0: float | None = None,
    iterations: int = 3,
    rng: np.random.Generator | None = None,
) -> RigidTransform:
    """Rigid motion mapping the source background onto the target background.

    Samples up to `n_sample` points per side without replacement (all points
    when fewer exist), matches them by the soft assignment at temperature
    `tau` with slack at exp(-slack_d0 / tau) (slack_d0 defaults to 2 tau, i.e.
    slack competes like a match at distance 2 tau) and `iterations` Sinkhorn
    sweeps, and fits a weighted Kabsch on the soft correspondences, weighting
    each row by the mass it kept from slack. The transport runs on the pruned
    sparse plan of `pruned_soft_correspondences`, which agrees with the dense
    `soft_assignment` to rounding but holds only the entries within float64
    reach of their row's best match.
    """
    if bg_x.features is None or bg_y.features is None:
        raise ValueError("both clouds need feature attributes")
    if rng is None:
        rng = np.random.default_rng(0)
    if slack_d0 is None:
        slack_d0 = 2.0 * tau
    sample_x, sample_y = _draw_ego_samples(
        bg_x, bg_y, np.arange(len(bg_x)), np.arange(len(bg_y)), n_sample, rng
    )
    # Release the full clouds before the transport runs; they are freed here
    # when the caller passed them as temporaries.
    del bg_x, bg_y
    return _fit_ego(sample_x, sample_y, tau, slack_d0, iterations)


def _draw_ego_samples(
    x: PointCloud,
    y: PointCloud,
    rows_x: np.ndarray,
    rows_y: np.ndarray,
    n_sample: int,
    rng: np.random.Generator,
) -> tuple[PointCloud, PointCloud]:
    """`estimate_ego_motion`'s samples of the rows `rows_x` of `x` and `rows_y`
    of `y`: up to `n_sample` a side without replacement, x drawn first. Only
    the points and features the fit reads are gathered, and only for the
    sampled rows, so a caller holding whole clouds passes row indices rather
    than copies of the selections."""
    if len(rows_x) < 3 or len(rows_y) < 3:
        raise ValueError("need at least 3 background points per cloud")
    samples = []
    for pc, rows in ((x, rows_x), (y, rows_y)):
        picked = rows[rng.choice(len(rows), size=min(n_sample, len(rows)), replace=False)]
        samples.append(PointCloud(pc.points[picked], features=pc.features[picked]))
    return samples[0], samples[1]


def _fit_ego(
    sample_x: PointCloud, sample_y: PointCloud, tau: float, slack_d0: float, iterations: int
) -> RigidTransform:
    """`estimate_ego_motion` on drawn samples: the slack transport, then the
    weighted Kabsch fit on its soft correspondences."""
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
