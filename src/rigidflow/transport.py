"""Slack-augmented soft assignment between two feature sets.

One kernel serves both consumers: `soft_assignment` builds the row-normalized
matching exp(-||f_i - g_j|| / tau), optionally against a slack row/column and
refined by Sinkhorn sweeps, and `soft_correspondences` reads off barycentric
matches. The ego-motion uses slack and 3 sweeps; the flow head uses no slack
and a single row sweep (a plain softmax), which `flowhead.soft_flow` streams
block by block without holding the matrix. The slack row/column absorbs the
mass of points that have no real counterpart (occlusion, sampling holes) so
outliers are down-weighted rather than force-matched.

The matrix is filled `_BLOCK_ROWS` rows at a time, so the elementwise passes
after each block's matrix product run in cache. The sweeps run in scaling
form (Cuturi 2013): they update one row-scale and one column-scale vector
with read-only matrix-vector products, and the matrix is scaled once at the
end.
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

# Rows per block of the logit fill: 64 rows of ~2000 float64 columns is about
# 1 MB, small enough for the passes after the block's product to stay in L2.
_BLOCK_ROWS = 64


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
        if v.min() < 0:
            raise ValueError("assignment entries must be nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def real(self) -> np.ndarray:
        """The (N, M) block excluding slack."""
        return self.values[: self.n_rows, : self.n_cols]


def _logit_operands(
    features_x: np.ndarray, features_y: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Operands A (N, D+2) and B (D+2, M) with (A @ B)_ij = ||f_i - g_j||^2 / tau^2.

    A_i = [f_i, ||f_i||^2 / tau^2, 1] and B_j = [-2 g_j / tau^2, 1, ||g_j||^2 / tau^2],
    so one BLAS product gives the Gram expansion with the norms folded in.

    Raises:
        ValueError: if tau <= 0 ("nonpositive temperature") or the feature
            dimensions disagree.
    """
    if tau <= 0:
        raise ValueError("nonpositive temperature")
    fx = np.asarray(features_x, dtype=np.float64)
    fy = np.asarray(features_y, dtype=np.float64)
    if fx.ndim != 2 or fy.ndim != 2 or fx.shape[1] != fy.shape[1]:
        raise ValueError("feature matrices must be (N, D) and (M, D) with equal D")
    d = fx.shape[1]
    inv_tau2 = 1.0 / (tau * tau)
    a = np.empty((len(fx), d + 2))
    a[:, :d] = fx
    a[:, d] = np.einsum("ij,ij->i", fx, fx) * inv_tau2
    a[:, d + 1] = 1.0
    b = np.empty((d + 2, len(fy)))
    np.multiply(fy.T, -2.0 * inv_tau2, out=b[:d])
    b[d] = 1.0
    b[d + 1] = np.einsum("ij,ij->i", fy, fy) * inv_tau2
    return a, b


def _exp_logits(
    block: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    slack_logit: float | None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """exp(L - max L) for the rows of `a`, written into `out` (default: `block`).

    L_ij = -||f_i - g_j|| / tau over the M real columns, with `slack_logit` as
    one more column (zero mass without one); each row's max includes the
    slack, so every row keeps an entry of exactly 1 and none underflows whole.
    `block` is a contiguous (len(a), M) scratch array, small enough to stay in
    cache, that holds the intermediate passes. Returns the slack column.
    """
    np.matmul(a, b, out=block)
    np.maximum(block, 0.0, out=block)  # cancellation can leave tiny negatives
    np.sqrt(block, out=block)  # -L
    lowest = block.min(axis=1, initial=np.inf)
    if slack_logit is None:
        slack = np.zeros(len(block))
    else:
        np.minimum(lowest, -slack_logit, out=lowest)
        slack = np.exp(lowest + slack_logit)
    np.subtract(lowest[:, None], block, out=block)
    np.exp(block, out=block if out is None else out)
    return slack


def _reciprocal(sums: np.ndarray, out: np.ndarray) -> None:
    """out = 1 / sums, refusing sums with no mass or too little to invert."""
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(1.0, sums, out=out)
    if not np.all((out > 0) & (out < np.inf)):
        raise ValueError("degenerate affinity")


def _sweep(v: np.ndarray, n: int, m: int, iterations: int) -> None:
    """Normalize the real rows, then the real columns, of `v` in place.

    Repeats `iterations` times; `iterations=0` runs a single row sweep. Sums
    run over the slack row/column too, which are never scaled themselves.
    The sweeps keep a row scale r and a column scale c (1 on the slack row and
    column), each updated by one matrix-vector product with `v` left as is;
    `v` becomes diag(r) v diag(c) once at the end.

    Raises:
        ValueError: "degenerate affinity" when a real row or column has no mass,
            or too little for its scale to be a finite double.
    """
    r = np.ones(n + 1)
    c = np.ones(m + 1)
    for _ in range(max(iterations, 1)):
        _reciprocal(v[:n] @ c, r[:n])
        if iterations:
            _reciprocal(r @ v[:, :m], c[:m])
    v *= r[:, None]
    if iterations:
        v *= c


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

    The rows are filled `_BLOCK_ROWS` at a time, each from one BLAS product of
    the features augmented with their squared norms (the Gram expansion of
    the squared distance), and the sweeps run in scaling form, so besides
    the returned matrix no N x M array is allocated. For unit-norm features
    the distances agree with the directly computed Euclidean distance within
    1e-7 absolute, the worst case being near-duplicate features, where
    cancellation leaves about sqrt(machine epsilon); generic pairs agree to
    about 1e-15. The result is bit-reproducible only for a fixed BLAS build
    and thread count, since both change the summation order of the products.

    Raises:
        ValueError: if tau <= 0 ("nonpositive temperature"), iterations < 0,
            feature dimensions disagree, or a real row or column ends up with
            no mass ("degenerate affinity").
    """
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    a, b = _logit_operands(features_x, features_y, tau)
    n, m = len(a), b.shape[1]
    v = np.empty((n + 1, m + 1))
    block = np.empty((min(n, _BLOCK_ROWS), m))
    for i in range(0, n, _BLOCK_ROWS):
        k = min(n - i, _BLOCK_ROWS)
        v[i : i + k, m] = _exp_logits(block[:k], a[i : i + k], b, slack_logit, out=v[i : i + k, :m])
    v[n] = 0.0 if slack_logit is None else np.exp(slack_logit)
    _sweep(v, n, m, iterations)
    return AssignmentMatrix(values=v, n_rows=n, n_cols=m)


def sinkhorn(a: AssignmentMatrix, iterations: int = 3) -> AssignmentMatrix:
    """Alternating row/column normalization with slack left unnormalized.

    Each iteration divides every real row by its sum over all M+1 columns,
    then every real column by its sum over all N+1 rows. The slack row and
    column participate in those sums but are never themselves scaled to 1, so
    they can absorb outlier mass.

    Raises:
        ValueError: if iterations < 1, or a real row/column sums to zero or
            to too little for its scale to be a finite double ("degenerate
            affinity").
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

    Both reads come from one product of the real rows with [y | 1] (a zero
    row for the slack column), so the matrix is read once.
    """
    if len(target) != a.n_cols:
        raise ValueError("target size does not match assignment columns")
    if source is not None and len(source) != a.n_rows:
        raise ValueError("source size does not match assignment rows")
    targets = np.zeros((a.n_cols + 1, 4))
    targets[: a.n_cols, :3] = target.points
    targets[: a.n_cols, 3] = 1.0
    acc = a.values[: a.n_rows] @ targets
    weights = acc[:, 3].copy()
    dead = weights == 0
    denom = np.where(dead, 1.0, weights)
    points = acc[:, :3] / denom[:, None]
    if np.any(dead):
        points[dead] = source.points[dead] if source is not None else 0.0
    return PointCloud(points=points), weights
