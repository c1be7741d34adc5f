"""Initial flow from feature-space soft correspondences.

Each source point is matched to a softmax-weighted combination of target
points in feature space; its flow is the displacement to that combination.
The softmax is streamed in row blocks, so the N x M weight matrix is never
held. No learned refinement runs on top of this.
"""

from __future__ import annotations

import numpy as np

from .geom import FlowField, PointCloud
from .transport import _BLOCK_ROWS, _exp_logits, _logit_operands

__all__ = ["FlowField", "soft_flow"]


def soft_flow(x: PointCloud, y: PointCloud, tau_flow: float) -> FlowField:
    """Soft-correspondence flow: row-softmax of -||f_i - g_j|| / tau over targets.

    flow_i = sum_j softmax_j(-||f_i - g_j|| / tau) y_j - x_i. Small tau
    approaches hard nearest-feature matching; large tau blends targets. The
    weights are those of `soft_assignment` without slack and with a single
    row sweep, but each block of rows of exp(L - max L) is reduced against
    [y | 1] as soon as it is filled, and matched point i is the first three
    entries of its row over the fourth; no N x M array is allocated.

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
        _exp_logits(rows, a[i : i + _BLOCK_ROWS], b, None)
        np.matmul(rows, targets, out=acc[i : i + _BLOCK_ROWS])
    mass = acc[:, 3:]
    if not np.all(mass > 0):
        raise ValueError("degenerate affinity")
    return FlowField(acc[:, :3] / mass - x.points)

