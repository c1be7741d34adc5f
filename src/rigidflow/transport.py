"""Slack-augmented soft matching between two feature sets, and the soft
flow that runs the same kernel without slack.

Pair (i, j) is weighed by exp(-||f_i - g_j|| / tau). A slack row and column
absorb the mass of points that have no real counterpart (occlusion,
sampling holes) so outliers are down-weighted rather than force-matched,
and Sinkhorn sweeps (`sinkhorn`) alternate row and column normalization
with the slack left unnormalized. Each source point's match is the
barycentre of its row's real entries, weighted by the mass the row keeps
off slack.

Each consumer runs this matching once, in the form its temperature suits:

- The ego-motion (slack, 3 sweeps, tau_ego = 0.005) calls
  `pruned_soft_correspondences`. At that temperature only about 0.4-2% of
  the entries of a 1024 x 1024 plan lie within float64 reach of their row's
  best match, so it keeps those in a sparse plan and never holds the dense
  (N+1) x (M+1) matrix, with a proven bound on what the dropped entries move.
- The flow head (no slack, one row sweep, i.e. a plain softmax, tau_flow =
  0.05) has every entry within reach: unit features put a row's logits
  within 2 / tau_flow = 40 nats of each other, and the reach of a 2000 x
  2000 plan is about 59. So `soft_flow` streams the dense rows block by
  block without holding the matrix.

`AssignmentMatrix` and `sinkhorn` are the dense form of the sweeps; with
`_logit_operands` they build the dense matching the tests check both forms
against. Both forms fill their logits `_BLOCK_ROWS` rows at a time, so the
elementwise passes after each block's matrix product run in cache, and the
sweeps run in scaling form (Cuturi 2013): they update one row-scale and one
column-scale vector with read-only matrix-vector products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .geom import FlowField, PointCloud

__all__ = [
    "AssignmentMatrix",
    "sinkhorn",
    "pruned_soft_correspondences",
    "soft_flow",
]

# Rows per block of the logit fill: 64 rows of ~2000 float64 columns is about
# 1 MB, small enough for the passes after the block's product to stay in L2.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class AssignmentMatrix:
    """(N+1) x (M+1) finite nonnegative matrix whose last row/column are slack.

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
        if not np.isfinite(v).all():
            raise ValueError("assignment entries must be finite")
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
    For unit-norm features the distances agree with the directly computed
    Euclidean distance within 1e-7 absolute, the worst case being
    near-duplicate features, where cancellation leaves about sqrt(machine
    epsilon); generic pairs agree to about 1e-15. Products are
    bit-reproducible only for a fixed BLAS build and thread count, since both
    change their summation order.

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


def _exp_logits(block: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """exp(L - max L) in place for the rows of `a`, L_ij = -||f_i - g_j|| / tau.

    `block` is a contiguous (len(a), M) scratch array, small enough to stay in
    cache; every row keeps an entry of exactly 1, so none underflows whole.
    """
    np.matmul(a, b, out=block)
    np.maximum(block, 0.0, out=block)  # cancellation can leave tiny negatives
    np.sqrt(block, out=block)  # -L
    lowest = block.min(axis=1, initial=np.inf)
    np.subtract(lowest[:, None], block, out=block)
    np.exp(block, out=block)


def _reciprocal(sums: np.ndarray, out: np.ndarray) -> None:
    """out = 1 / sums, refusing sums with no mass or too little to invert."""
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(1.0, sums, out=out)
    if not np.all((out > 0) & (out < np.inf)):
        raise ValueError("degenerate affinity")


def _scale(row_sums, col_sums, r: np.ndarray, c: np.ndarray, iterations: int) -> None:
    """Sinkhorn sweeps in scaling form: r = 1 / row_sums(), then c = 1 / col_sums().

    `r` and `c` are the scales of the real rows and columns, written in place
    (they start at 1); `row_sums` reads the current `c` and `col_sums` the
    current `r`, each summing over the slack row/column too, whose own scale
    stays 1. Repeats `iterations` times; `iterations=0` runs a single row
    sweep and leaves `c` at 1.

    Raises:
        ValueError: "degenerate affinity" when a real row or column has no mass,
            or too little for its scale to be a finite double.
    """
    for _ in range(max(iterations, 1)):
        _reciprocal(row_sums(), r)
        if iterations:
            _reciprocal(col_sums(), c)


def sinkhorn(a: AssignmentMatrix, iterations: int = 3) -> AssignmentMatrix:
    """Alternating row/column normalization with slack left unnormalized.

    Each iteration divides every real row by its sum over all M+1 columns,
    then every real column by its sum over all N+1 rows. The slack row and
    column participate in those sums but are never themselves scaled to 1, so
    they can absorb outlier mass. The sweeps run in scaling form on the
    unchanged input, and the result is diag(r) v diag(c) formed once.

    Raises:
        ValueError: if iterations < 1, or a real row/column sums to zero or
            to too little for its scale to be a finite double ("degenerate
            affinity").
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    n, m = a.n_rows, a.n_cols
    v = a.values.copy()
    r = np.ones(n + 1)
    c = np.ones(m + 1)
    _scale(lambda: v[:n] @ c, lambda: r @ v[:, :m], r[:n], c[:m], iterations)
    v *= r[:, None]
    v *= c
    return AssignmentMatrix(values=v, n_rows=n, n_cols=m)


def pruned_soft_correspondences(
    source: PointCloud,
    target: PointCloud,
    tau: float,
    slack_logit: float,
    iterations: int = 3,
) -> tuple[PointCloud, np.ndarray]:
    """Soft matches of `source` in `target` by their features, on a pruned plan.

    Entry (i, j) starts from the logit -||f_i - g_j|| / tau, and every slack
    entry from `slack_logit`. Each real row is shifted by its largest logit,
    slack included, before a single exponentiation, so no row underflows to
    zero however far apart the features are; the first row sweep cancels the
    shift exactly. Then `iterations` Sinkhorn sweeps run as in `sinkhorn`;
    `iterations=0` is one row sweep. Row i's match is sum_j P_ij y_j /
    sum_j P_ij over the real columns, and its weight sum_j P_ij is the mass
    not lost to slack, in [0, 1].

    The plan P keeps entry (i, j) of the N x M real block only when its logit
    lies within

        K = 64 ln 2 + ln((N + 1)(M + 1)) + 2 max(0, -slack_logit)

    nats of row i's largest real logit, so every row keeps its maximum. The
    test runs on the squared distances of each `_BLOCK_ROWS`-row block, so
    square roots and exponentials run on kept entries only; the sweeps run on
    the kept entries as a CSR matrix P, and the match points and weights are
    read as r * (P @ (c * [y | 1])). No N x M float64 array is allocated.

    Why nothing a float64 sum can register is lost: in the unshifted kernel
    exp(L) (every real L <= 0), each row sum holds the slack column's
    exp(slack_logit) and each column sum the slack row's, so both scale vectors
    stay at or below exp(max(0, -slack_logit)), and column scales differ by
    at most a factor (N + 1) exp(2 max(0, -slack_logit)). A dropped entry is
    at most exp(-K) times its row's kept maximum, so the dropped entries move
    any row sum, column sum or kept mass (weight) by less than 2^-64 of it in
    every sweep, and a match point by less than 2^-64 times the diameter of
    the target. A row whose kept mass is exactly 0 gets weight 0 and its own
    source point as a stand-in match, which keeps it inert under weighted
    fitting.

    Raises:
        ValueError: if tau <= 0 ("nonpositive temperature"), iterations < 0,
            either cloud lacks features, their dimensions disagree, or a real
            row or column ends up with no mass ("degenerate affinity").
    """
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    if source.features is None or target.features is None:
        raise ValueError("both clouds need feature attributes")
    a, b = _logit_operands(source.features, target.features, tau)
    n, m = len(a), b.shape[1]
    reach = 64 * np.log(2.0) + np.log((n + 1) * (m + 1)) + 2 * max(0.0, -slack_logit)
    block = np.empty((min(n, _BLOCK_ROWS), m))
    keep = np.empty(block.shape, dtype=bool)
    lowest = np.empty(n)  # -(largest real logit) of each row
    counts = np.empty(n, dtype=np.intp)
    cols, squares = [np.empty(0, dtype=np.intp)], [np.empty(0)]  # seeded for n = 0
    for i in range(0, n, _BLOCK_ROWS):
        k = min(n - i, _BLOCK_ROWS)
        np.matmul(a[i : i + k], b, out=block[:k])  # squared logits
        # a NaN row keeps no entry, but its NaN slack entry fails the sweep
        # with "degenerate affinity", as in the dense form
        smallest = block[:k].min(axis=1, initial=np.inf)
        np.sqrt(np.maximum(smallest, 0.0), out=lowest[i : i + k])
        limit = (lowest[i : i + k] + reach) ** 2
        np.less_equal(block[:k], limit[:, None], out=keep[:k])
        flat = np.flatnonzero(keep[:k])
        rows, j = np.divmod(flat, m)
        cols.append(j)
        squares.append(block[:k].ravel()[flat])
        counts[i : i + k] = np.bincount(rows, minlength=k)
    # the dense row shift: each row's largest logit, slack included
    shift = np.minimum(lowest, -slack_logit)
    values = np.concatenate(squares)
    np.maximum(values, 0.0, out=values)  # cancellation can leave tiny negatives
    np.sqrt(values, out=values)
    np.subtract(np.repeat(shift, counts), values, out=values)
    np.exp(values, out=values)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    plan = csr_array((values, np.concatenate(cols), indptr), shape=(n, m))
    slack = np.exp(shift + slack_logit)
    corner = np.exp(slack_logit)
    r = np.ones(n)
    c = np.ones(m)
    _scale(lambda: plan @ c + slack, lambda: plan.T @ r + corner, r, c, iterations)
    targets = np.ones((m, 4))
    targets[:, :3] = target.points
    acc = plan @ (targets * c[:, None])
    acc *= r[:, None]
    weights = acc[:, 3].copy()
    dead = weights == 0
    points = acc[:, :3] / np.where(dead, 1.0, weights)[:, None]
    points[dead] = source.points[dead]
    return PointCloud(points=points), weights


def soft_flow(x: PointCloud, y: PointCloud, tau_flow: float) -> FlowField:
    """Soft-correspondence flow: row-softmax of -||f_i - g_j|| / tau over targets.

    Each source point is matched to a softmax-weighted combination of target
    points in feature space, and its flow is the displacement to that
    combination: flow_i = sum_j softmax_j(-||f_i - g_j|| / tau) y_j - x_i.
    Small tau approaches hard nearest-feature matching; large tau blends
    targets. The weights are those of the slack-free matching with a single
    row sweep, but each block of rows of exp(L - max L) is reduced against
    [y | 1] as soon as it is filled, and matched point i is the first three
    entries of its row over the fourth; no N x M array is allocated. No
    learned refinement runs on top of this.

    Raises:
        ValueError: if tau_flow <= 0, either cloud lacks features, their
            feature dimensions differ, or `y` is empty ("degenerate affinity").
    """
    if x.features is None or y.features is None:
        raise ValueError("both clouds need feature attributes")
    a, b = _logit_operands(x.features, y.features, tau_flow)
    n, m = len(a), b.shape[1]
    targets = np.ones((m, 4))
    targets[:, :3] = y.points
    block = np.empty((min(n, _BLOCK_ROWS), m))
    acc = np.empty((n, 4))
    for i in range(0, n, _BLOCK_ROWS):
        rows = block[: min(n - i, _BLOCK_ROWS)]
        _exp_logits(rows, a[i : i + _BLOCK_ROWS], b)
        np.matmul(rows, targets, out=acc[i : i + _BLOCK_ROWS])
    mass = acc[:, 3:]
    if not np.all(mass > 0):
        raise ValueError("degenerate affinity")
    return FlowField(acc[:, :3] / mass - x.points)
