"""Test-time ICP refinement of the ego-motion and per-object transforms.

`refine_segment` registers one rigid segment onto a target cloud: the
source background onto the target background for the ego-motion, and each
fitted cluster onto the whole target foreground. The pipeline calls it from
each branch and reassembles the flow itself, so this module knows nothing of
the scene decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import PointCloud, RigidTransform, compose
from .rigidfit import _kabsch

__all__ = [
    "IcpConfig",
    "IcpResult",
    "icp_refine",
    "refine_segment",
]


@dataclass(frozen=True)
class IcpConfig:
    """Gating distance, iteration cap, and relative-RMSE stopping threshold."""

    max_correspondence_distance: float
    max_iterations: int = 300
    convergence_epsilon: float = 1e-6

    def __post_init__(self):
        if not self.max_correspondence_distance > 0:  # NaN is not positive either
            raise ValueError("max_correspondence_distance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.convergence_epsilon > 0:
            raise ValueError("convergence_epsilon must be positive")


@dataclass(frozen=True)
class IcpResult:
    """Outcome of one point-to-point ICP run.

    `rmse` is the matched-inlier RMSE of the returned transform (inf when no
    pair ever fell inside the gate, in which case `no_overlap` is set and the
    initial transform is returned unchanged). `rmse_history` records the
    evaluated RMSE per iteration; it is non-increasing by construction.
    """

    transform: RigidTransform
    rmse: float
    iterations: int
    no_overlap: bool
    rmse_history: tuple


def icp_refine(
    source: PointCloud,
    target: PointCloud,
    initial: RigidTransform,
    cfg: IcpConfig,
) -> IcpResult:
    """Point-to-point ICP from `initial`, gated to the configured distance.

    Per iteration: move the source by the current estimate, match every moved
    point to its nearest target within the gate, evaluate the matched RMSE,
    then solve a uniform-weight rigid fit on the matched pairs and compose it
    onto the estimate. Stops at the iteration cap, when the relative RMSE
    change drops below `convergence_epsilon`, or when the RMSE would increase
    (the gate admits new, farther pairs as alignment improves, so an increase
    is possible; the best transform seen is what is returned). The returned
    transform's matched RMSE is therefore never worse than the initial one.

    Matches come from `target.kdtree`, so runs against the same target cloud
    share one tree.
    """
    if len(source) == 0 or len(target) == 0:
        raise ValueError("source and target must be nonempty")
    tree = target.kdtree
    gate = cfg.max_correspondence_distance
    src = source.points

    current = initial
    best_transform, best_rmse = initial, np.inf
    history: list[float] = []
    prev = None
    for _ in range(cfg.max_iterations):
        moved = current.apply(src)
        dist, idx = tree.query(moved, k=1, distance_upper_bound=gate)
        matched = np.isfinite(dist)
        n_matched = int(matched.sum())
        if n_matched == 0:
            if not history:
                return IcpResult(initial, np.inf, 0, True, ())
            break
        rmse = float(np.sqrt(np.mean(dist[matched] ** 2)))
        if prev is not None and rmse > prev:
            break  # keep the best already recorded
        history.append(rmse)
        if rmse < best_rmse:
            best_transform, best_rmse = current, rmse
        if rmse == 0.0:
            break
        if prev is not None and abs(prev - rmse) <= cfg.convergence_epsilon * prev:
            break
        prev = rmse
        if n_matched < 3:
            break
        try:
            delta = _kabsch(moved[matched], target.points[idx[matched]], np.ones(n_matched))
        except ValueError:
            break  # degenerate match geometry: keep the best so far
        current = compose(delta, current)
    return IcpResult(best_transform, best_rmse, len(history), False, tuple(history))


def refine_segment(
    source: PointCloud, target: PointCloud, initial: RigidTransform, cfg: IcpConfig
) -> tuple[RigidTransform, bool]:
    """ICP of one segment's source points onto its target cloud from `initial`.

    Returns the refined transform and whether it was refined; `initial` comes
    back unrefined when there are fewer than 3 source points, no target
    points, or no gated overlap.
    """
    if len(source) >= 3 and len(target) > 0:
        result = icp_refine(source, target, initial, cfg)
        if not result.no_overlap:
            return result.transform, True
    return initial, False
