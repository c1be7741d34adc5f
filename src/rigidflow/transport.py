"""Slack-augmented soft assignment between two feature sets.

One kernel serves both consumers: `soft_assignment` builds the row-normalized
matching exp(-||f_i - g_j|| / tau), optionally against a slack row/column and
refined by Sinkhorn sweeps, and `soft_correspondences` reads off barycentric
matches. The ego-motion uses slack and 3 sweeps; the flow head uses no slack
and a single row sweep (a plain softmax). The slack row/column absorbs the
mass of points that have no real counterpart (occlusion, sampling holes) so
outliers are down-weighted rather than force-matched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import PointCloud

__all__ = [
    "AssignmentMatrix",
    "soft_assignment",
    "sinkhorn",
    "soft_correspondences",
]


@dataclass(frozen=True)
class AssignmentMatrix:
    """(N+1) x (M+1) nonnegative matrix whose last row/column are slack.

    After `sinkhorn`, every real row sums to 1 over all M+1 columns and every
    real column sums to 1 over all N+1 rows (to the tolerance the affinity
    conditioning allows); the slack row and column themselves are never
    normalized.
    """

    values: np.ndarray
    n_rows: int
    n_cols: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.n_rows + 1, self.n_cols + 1):
            raise ValueError(
                f"values must have shape ({self.n_rows + 1}, {self.n_cols + 1}), got {v.shape}"
            )
        if np.any(v < 0):
            raise ValueError("assignment entries must be nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def real(self) -> np.ndarray:
        """The (N, M) block excluding slack."""
        return self.values[: self.n_rows, : self.n_cols]


def _sweep(v: np.ndarray, n: int, m: int, iterations: int) -> None:
    """Normalize the real rows, then the real columns, of `v` in place.

    Repeats `iterations` times; `iterations=0` runs a single row sweep. Sums
    run over the slack row/column too, which are never scaled themselves.

    Raises:
        ValueError: "degenerate affinity" when a real row or column has no mass.
    """
    blocks = ((v[:n], 1), (v[:, :m], 0)) if iterations else ((v[:n], 1),)
    for _ in range(max(iterations, 1)):
        for block, axis in blocks:
            sums = block.sum(axis=axis, keepdims=True)
            if not np.all(sums > 0):
                raise ValueError("degenerate affinity")
            block /= sums


def soft_assignment(
    features_x: np.ndarray,
    features_y: np.ndarray,
    tau: float,
    slack_logit: float | None = None,
    iterations: int = 3,
) -> AssignmentMatrix:
    """Soft matching of `features_x` (N, D) to `features_y` (M, D).

    Entry (i, j) starts from the logit -||f_i - g_j|| / tau, and every slack
    entry from `slack_logit` (without one, slack carries zero mass). Each real
    row is shifted by its largest logit, slack included, before a single
    exponentiation, so no row underflows to zero however far apart the
    features are; the first row sweep cancels the shift exactly. Then
    `iterations` Sinkhorn sweeps run as in `sinkhorn`; `iterations=0` is one
    row sweep, i.e. a row softmax. Larger tau softens the contrast between the
    best and the remaining candidates.

    The distances come from one BLAS matrix product (Gram expansion). For
    unit-norm features they agree with the directly computed Euclidean
    distance within 1e-7 absolute, the worst case being near-duplicate
    features, where cancellation leaves about sqrt(machine epsilon); generic
    pairs agree to about 1e-15. The result is bit-reproducible only for a
    fixed BLAS build and thread count, since both change the summation order
    of the product.

    Raises:
        ValueError: if tau <= 0 ("nonpositive temperature"), iterations < 0,
            feature dimensions disagree, or a real column ends up with no mass
            ("degenerate affinity").
    """
    if tau <= 0:
        raise ValueError("nonpositive temperature")
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    fx = np.asarray(features_x, dtype=np.float64)
    fy = np.asarray(features_y, dtype=np.float64)
    if fx.ndim != 2 or fy.ndim != 2 or fx.shape[1] != fy.shape[1]:
        raise ValueError("feature matrices must be (N, D) and (M, D) with equal D")
    n, m = len(fx), len(fy)
    # ||f||^2 + ||g||^2 - 2 f.g, written by one BLAS product straight into the
    # real block (no N x M temporary), clamped at 0 before the square root.
    v = np.empty((n + 1, m + 1))
    real = v[:n, :m]
    np.matmul(-2.0 * fx, fy.T, out=real)
    real += np.einsum("ij,ij->i", fx, fx)[:, None]
    real += np.einsum("ij,ij->i", fy, fy)
    np.maximum(real, 0.0, out=real)
    np.sqrt(real, out=real)
    real /= -tau
    v[n] = v[:, m] = -np.inf if slack_logit is None else slack_logit
    v[:n] -= v[:n].max(axis=1, keepdims=True)
    np.exp(v, out=v)
    _sweep(v, n, m, iterations)
    return AssignmentMatrix(values=v, n_rows=n, n_cols=m)


def sinkhorn(a: AssignmentMatrix, iterations: int = 3) -> AssignmentMatrix:
    """Alternating row/column normalization with slack left unnormalized.

    Each iteration divides every real row by its sum over all M+1 columns,
    then every real column by its sum over all N+1 rows. The slack row and
    column participate in those sums but are never themselves scaled to 1, so
    they can absorb outlier mass.

    Raises:
        ValueError: if iterations < 1, or a real row/column sums to zero
            ("degenerate affinity").
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    v = a.values.copy()
    _sweep(v, a.n_rows, a.n_cols, iterations)
    return AssignmentMatrix(values=v, n_rows=a.n_rows, n_cols=a.n_cols)


def soft_correspondences(
    a: AssignmentMatrix,
    target: PointCloud,
    source: PointCloud | None = None,
) -> tuple[PointCloud, np.ndarray]:
    """Per-row barycentric match point in `target` plus its confidence weight.

    Row i yields the point sum_j a_ij y_j / sum_j a_ij over real columns only,
    and the weight sum_j a_ij (the mass not lost to slack, in [0, 1] after
    `sinkhorn`). A row whose real entries are all zero gets weight 0 and, when
    `source` is given, its own source point as a stand-in match, which keeps it
    inert under weighted fitting.
    """
    if len(target) != a.n_cols:
        raise ValueError("target size does not match assignment columns")
    if source is not None and len(source) != a.n_rows:
        raise ValueError("source size does not match assignment rows")
    real = a.real
    weights = real.sum(axis=1)
    dead = weights == 0
    denom = np.where(dead, 1.0, weights)
    points = (real @ target.points) / denom[:, None]
    if np.any(dead):
        points[dead] = source.points[dead] if source is not None else 0.0
    return PointCloud(points=points), weights
