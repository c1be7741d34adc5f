"""Density-based decomposition of foreground points into candidate rigid bodies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .geom import PointCloud

__all__ = ["ClusterLabeling", "dbscan"]


@dataclass(frozen=True)
class ClusterLabeling:
    """Per-point integer labels: -1 for noise, 0..K-1 for retained clusters."""

    labels: np.ndarray
    cluster_sizes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "cluster_sizes", np.asarray(self.cluster_sizes, dtype=np.int64))

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_sizes)

    def __len__(self) -> int:
        return len(self.labels)


def dbscan(
    points: PointCloud,
    eps: float,
    min_samples: int,
    min_cluster_size: int = 1,
) -> ClusterLabeling:
    """Deterministic DBSCAN over 3D coordinates with a size filter.

    A point is core when its eps-ball (itself included) holds at least
    `min_samples` points. Clusters are the eps-connected components of core
    points; non-core points within eps of a core join the cluster of their
    lowest-indexed core neighbor, which removes the classical order
    dependence of border assignment. Clusters smaller than
    `min_cluster_size` are relabeled to noise (-1), and surviving clusters
    are renumbered 0..K-1 in order of their first core point.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_samples < 1:
        raise ValueError("min_samples must be at least 1")
    n = len(points)
    if n == 0:
        return ClusterLabeling(labels=np.empty(0, dtype=np.int64), cluster_sizes=np.empty(0, dtype=np.int64))

    pairs = cKDTree(points.points).query_pairs(eps, output_type="ndarray")
    core = np.bincount(pairs.ravel(), minlength=n) + 1 >= min_samples
    labels = np.full(n, -1, dtype=np.int64)

    # Clusters: connected components of the core-core eps-graph over the
    # cores in index order. connected_components numbers the components in
    # order of their lowest node, i.e. of their first core point.
    core_idx = np.flatnonzero(core)
    rank = np.cumsum(core) - 1
    edges = pairs[core[pairs[:, 0]] & core[pairs[:, 1]]]
    graph = coo_matrix(
        (np.ones(len(edges), dtype=np.int8), (rank[edges[:, 0]], rank[edges[:, 1]])),
        shape=(len(core_idx), len(core_idx)),
    )
    next_id, component = connected_components(graph, directed=False)
    labels[core_idx] = component

    # Border points join the cluster of their lowest-indexed core neighbor.
    # Each border-core pair has exactly one core end.
    mixed = pairs[core[pairs[:, 0]] != core[pairs[:, 1]]]
    is_core = core[mixed]
    lowest = np.full(n, n)
    np.minimum.at(lowest, mixed[~is_core], mixed[is_core])
    claimed = lowest < n
    labels[claimed] = labels[lowest[claimed]]

    if next_id == 0:
        return ClusterLabeling(labels=labels, cluster_sizes=np.empty(0, dtype=np.int64))

    sizes = np.bincount(labels[labels >= 0], minlength=next_id)
    keep = sizes >= min_cluster_size
    remap = np.full(next_id, -1, dtype=np.int64)
    remap[keep] = np.arange(int(keep.sum()))
    relabeled = np.where(labels >= 0, remap[labels], -1)
    return ClusterLabeling(labels=relabeled, cluster_sizes=sizes[keep])
