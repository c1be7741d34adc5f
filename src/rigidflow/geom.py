"""Core containers and geometry: point clouds, rigid transforms, voxel grids.

Everything here is a pure function of its inputs. Containers are frozen
dataclasses wrapping numpy arrays; callers must not mutate the arrays after
construction. That is what lets a `PointCloud` cache its KD-tree
(`PointCloud.kdtree`, built on first use): `select`, `dataclasses.replace`
and `apply_transform` return new clouds, so a cached tree is never stale.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

__all__ = [
    "PointCloud",
    "RigidTransform",
    "VoxelGrid",
    "FlowField",
    "apply_transform",
    "compose",
    "invert",
    "voxelize",
    "transfer_flow_to_points",
    "rotation_about_axis",
]


@dataclass(frozen=True)
class PointCloud:
    """N points in 3D (meters) with optional parallel per-point attributes.

    Attributes:
        points: (N, 3) float64 coordinates, all finite.
        features: optional (N, D) float64 descriptor per point, all finite.
        fg_prob: optional (N,) float64 foreground probability in [0, 1].
        cluster_id: optional (N,) int64 label, -1 meaning unassigned.
        flow: optional (N, 3) float64 displacement per point, all finite.

    Raises:
        ValueError: on a wrong shape, a non-finite coordinate, feature or flow
            value, or an fg_prob outside [0, 1]; the message names the
            attribute.
    """

    points: np.ndarray
    features: np.ndarray | None = None
    fg_prob: np.ndarray | None = None
    cluster_id: np.ndarray | None = None
    flow: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite coordinates")
        object.__setattr__(self, "points", pts)
        n = len(pts)
        if self.features is not None:
            f = np.asarray(self.features, dtype=np.float64)
            if f.ndim != 2 or f.shape[0] != n:
                raise ValueError(f"features must have shape ({n}, D), got {f.shape}")
            if not np.all(np.isfinite(f)):
                raise ValueError("features contain non-finite values")
            object.__setattr__(self, "features", f)
        if self.fg_prob is not None:
            p = np.asarray(self.fg_prob, dtype=np.float64)
            if p.shape != (n,):
                raise ValueError(f"fg_prob must have shape ({n},), got {p.shape}")
            if not np.all(np.isfinite(p)):
                raise ValueError("fg_prob contains non-finite values")
            if np.any((p < 0) | (p > 1)):
                raise ValueError("fg_prob values must lie in [0, 1]")
            object.__setattr__(self, "fg_prob", p)
        if self.cluster_id is not None:
            c = np.asarray(self.cluster_id, dtype=np.int64)
            if c.shape != (n,):
                raise ValueError(f"cluster_id must have shape ({n},), got {c.shape}")
            object.__setattr__(self, "cluster_id", c)
        if self.flow is not None:
            v = np.asarray(self.flow, dtype=np.float64)
            if v.shape != (n, 3):
                raise ValueError(f"flow must have shape ({n}, 3), got {v.shape}")
            if not np.all(np.isfinite(v)):
                raise ValueError("flow contains non-finite values")
            object.__setattr__(self, "flow", v)

    def __len__(self) -> int:
        return len(self.points)

    @functools.cached_property
    def kdtree(self) -> cKDTree:
        """KD-tree over `points`, built on first access and kept for the cloud's life."""
        return cKDTree(self.points)

    def select(self, index) -> "PointCloud":
        """Return the sub-cloud at `index` (any numpy row index), attributes included."""
        pick = lambda a: None if a is None else a[index]
        return PointCloud(
            points=self.points[index],
            features=pick(self.features),
            fg_prob=pick(self.fg_prob),
            cluster_id=pick(self.cluster_id),
            flow=pick(self.flow),
        )


@dataclass(frozen=True)
class RigidTransform:
    """Rotation + translation (an SE(3) element) acting as p -> R p + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        # On Python floats: the six distinct entries of R^T R - I, then the
        # cofactor determinant. A NaN entry fails the first check.
        (a, b, c), (d, e, f), (g, h, i) = r.tolist()
        gram = (
            a * a + d * d + g * g - 1.0,
            b * b + e * e + h * h - 1.0,
            c * c + f * f + i * i - 1.0,
            a * b + d * e + g * h,
            a * c + d * f + g * i,
            b * c + e * f + h * i,
        )
        if not all(abs(v) <= 1e-9 for v in gram):
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0) > 1e-9:
            raise ValueError("rotation determinant is not +1 within 1e-9")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "RigidTransform":
        """Build from a 4x4 (or 3x4) homogeneous matrix."""
        m = np.asarray(m, dtype=np.float64)
        return cls(m[:3, :3], m[:3, 3])

    def matrix(self) -> np.ndarray:
        """The 4x4 homogeneous matrix."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform an (N, 3) array (or a single 3-vector)."""
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation


@dataclass(frozen=True)
class FlowField:
    """Per-point 3D displacement vectors, one per source point."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"flow vectors must have shape (N, 3), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("flow vectors contain non-finite values")
        object.__setattr__(self, "vectors", v)

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class VoxelGrid:
    """Uniform-grid downsampling of a cloud.

    `voxel_centers` holds one point per occupied (retained) cell, placed at
    the centroid of the contributing points, with averaged attributes.
    `point_to_voxel[i]` is the voxel index of original point i, or -1 if the
    point's cell was dropped by the `max_voxels` cap.
    """

    voxel_size: float
    voxel_centers: PointCloud
    point_to_voxel: np.ndarray

    def __len__(self) -> int:
        return len(self.voxel_centers)


def apply_transform(t: RigidTransform, pc: PointCloud) -> PointCloud:
    """Rigidly move a cloud; attributes (including flow) carry over unchanged.

    Flow vectors are deliberately not rotated: they remain expressed in the
    original frame.
    """
    return dataclasses.replace(pc, points=t.apply(pc.points))


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """The transform equivalent to applying b first, then a."""
    return RigidTransform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def invert(t: RigidTransform) -> RigidTransform:
    rt = t.rotation.T
    return RigidTransform(rt, -rt @ t.translation)


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix for a rotation of `angle` radians about `axis`."""
    u = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(u)
    if norm == 0:
        raise ValueError("rotation axis must be nonzero")
    u = u / norm
    k = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def voxelize(
    pc: PointCloud,
    voxel_size: float,
    max_voxels: int | None = None,
    rng: np.random.Generator | None = None,
) -> VoxelGrid:
    """Bucket points into a uniform grid and average each occupied cell.

    Cell coordinates are floor(p / voxel_size) per axis. The representative
    of a cell is the centroid of its points; `features`, `fg_prob` and `flow`
    attributes are averaged alongside, while `cluster_id` is dropped (labels
    cannot be meaningfully averaged). If more than `max_voxels` cells are
    occupied, a uniform random subset of cells is kept (seeded via `rng`).

    Each attribute is averaged by one sparse product with a cells x points
    0/1 matrix whose rows list their points in ascending point order, so
    every cell sums its points from 0.0 in point order (as a per-column
    `bincount` would), then divides by its count.

    Raises:
        ValueError: on an empty input cloud or nonpositive voxel size.
    """
    if voxel_size <= 0:
        raise ValueError("voxel_size must be positive")
    if len(pc) == 0:
        raise ValueError("empty cloud")

    # Cells in lexicographic key order (x, then y, then z), as np.unique(axis=0)
    # would give them; the three keys are not packed into one int64, which
    # could overflow.
    keys = np.floor(pc.points / voxel_size).astype(np.int64)
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    new_cell = np.concatenate(([True], np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)))
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(new_cell) - 1
    n_cells = int(new_cell.sum())

    if max_voxels is not None and n_cells > max_voxels:
        if rng is None:
            rng = np.random.default_rng(0)
        keep = np.sort(rng.choice(n_cells, size=max_voxels, replace=False))
        remap = np.full(n_cells, -1, dtype=np.int64)
        remap[keep] = np.arange(max_voxels)
        inverse = remap[inverse]
        n_cells = max_voxels

    # Row c of `agg` lists cell c's points in ascending point order: lexsort
    # is stable, and the cap's remap keeps cell order.
    retained = inverse >= 0
    members = order[retained[order]]
    counts = np.bincount(inverse[retained], minlength=n_cells)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    agg = sparse.csr_array((np.ones(len(members)), members, indptr), shape=(n_cells, len(pc)))
    counts = counts.astype(np.float64)

    def cell_mean(values: np.ndarray) -> np.ndarray:
        return (agg @ values) / counts.reshape((-1,) + (1,) * (values.ndim - 1))

    centers = PointCloud(
        points=cell_mean(pc.points),
        features=None if pc.features is None else cell_mean(pc.features),
        fg_prob=None if pc.fg_prob is None else cell_mean(pc.fg_prob),
        flow=None if pc.flow is None else cell_mean(pc.flow),
    )
    return VoxelGrid(voxel_size=float(voxel_size), voxel_centers=centers, point_to_voxel=inverse)


def transfer_flow_to_points(
    grid: VoxelGrid,
    voxel_flow: FlowField,
    original: PointCloud,
    k: int = 3,
) -> FlowField:
    """Inverse-distance interpolation of per-voxel flow onto original points.

    Each point receives sum_j v_j / d_j over its k nearest voxel centers,
    normalized by sum_j 1 / d_j (Euclidean distances). A point coinciding
    with a voxel center takes that voxel's flow exactly. When the grid has
    fewer than k voxels, all of them are used.

    When `original` has as many points as the voxelized cloud, a point whose
    coordinates equal its own voxel's center (`grid.point_to_voxel`) takes
    that voxel's flow by lookup; a point alone in its cell always does. Only
    the other points (in multi-point cells, dropped by the `max_voxels` cap,
    or of another cloud) are queried, on the centers' cached KD-tree.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    centers = grid.voxel_centers.points
    if len(voxel_flow) != len(centers):
        raise ValueError("voxel_flow length does not match voxel count")
    points = original.points
    out = np.empty((len(original), 3))

    # A point equal to its own voxel's center, as every point alone in its
    # cell is, takes that voxel's flow without a query.
    rest = np.ones(len(original), dtype=bool)
    own = grid.point_to_voxel
    if len(own) == len(original):
        kept = np.flatnonzero(own >= 0)
        hit = kept[np.all(centers[own[kept]] == points[kept], axis=1)]
        out[hit] = voxel_flow.vectors[own[hit]]
        rest[hit] = False
    rest = np.flatnonzero(rest)
    if len(rest) == 0:
        return FlowField(out)

    k_eff = min(k, len(centers))
    dist, idx = grid.voxel_centers.kdtree.query(points[rest], k=k_eff)
    dist = dist.reshape(len(rest), k_eff)
    idx = idx.reshape(len(rest), k_eff)

    flows = voxel_flow.vectors[idx]  # (n, k, 3)
    exact = dist[:, 0] == 0.0
    safe = np.where(dist == 0.0, 1.0, dist)  # exact rows are overwritten below
    w = 1.0 / safe
    interp = (w[:, :, None] * flows).sum(axis=1) / w.sum(axis=1)[:, None]
    interp[exact] = voxel_flow.vectors[idx[exact, 0]]
    out[rest] = interp
    return FlowField(out)
