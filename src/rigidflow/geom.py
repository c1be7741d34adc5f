"""Core containers and geometry: point clouds, rigid transforms, voxel grids.

Everything here is a pure function of its inputs. Containers are frozen
dataclasses wrapping numpy arrays; callers must not mutate the arrays after
construction. That is what lets a `PointCloud` cache its KD-tree
(`PointCloud.kdtree`, built on first use): `select`, `dataclasses.replace`
and `apply_transform` return new clouds, so a cached tree is never stale.

The set of optional per-point attributes lives here, in `PointCloud`'s
fields and the `POINT_ATTRIBUTES` table; `select`, `voxelize` and the RGF
reader and writer in `io` iterate that table.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

__all__ = [
    "POINT_ATTRIBUTES",
    "PointCloud",
    "RigidTransform",
    "VoxelGrid",
    "FlowField",
    "apply_transform",
    "compose",
    "invert",
    "voxelize",
    "rotation_about_axis",
]


# PointCloud's optional attributes in field order: name -> (dtype, shape of
# one point's value), where None is a width D that each cloud chooses.
POINT_ATTRIBUTES = {
    "features": (np.dtype(np.float64), (None,)),
    "fg_prob": (np.dtype(np.float64), ()),
    "cluster_id": (np.dtype(np.int64), ()),
    "flow": (np.dtype(np.float64), (3,)),
}


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
        for name, (dtype, shape) in POINT_ATTRIBUTES.items():
            value = getattr(self, name)
            if value is None:
                continue
            a = np.asarray(value, dtype=dtype)
            want = (n, *shape)
            if a.ndim != len(want) or any(w not in (None, got) for w, got in zip(want, a.shape)):
                dims = ", ".join("D" if w is None else str(w) for w in want) + "," * (not shape)
                raise ValueError(f"{name} must have shape ({dims}), got {a.shape}")
            if a.dtype.kind == "f" and not np.all(np.isfinite(a)):
                verb = "contain" if name.endswith("s") else "contains"  # "features" is plural
                raise ValueError(f"{name} {verb} non-finite values")
            object.__setattr__(self, name, a)
        if self.fg_prob is not None and np.any((self.fg_prob < 0) | (self.fg_prob > 1)):
            raise ValueError("fg_prob values must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def kdtree(self) -> cKDTree:
        """KD-tree over `points`, built on first access and kept for the cloud's life."""
        # Cached without a lock (functools.cached_property holds one lock for
        # the whole class before Python 3.12, so one cloud's build would stall
        # another's on a second thread). Threads racing on one cloud each build
        # the same tree, and one of the equal trees is kept.
        tree = self.__dict__.get("_kdtree")
        if tree is None:
            tree = self.__dict__["_kdtree"] = cKDTree(self.points)
        return tree

    def select(self, index) -> "PointCloud":
        """Return the sub-cloud at `index` (any numpy row index), attributes included."""
        attrs = {name: getattr(self, name) for name in POINT_ATTRIBUTES}
        picked = {name: a[index] for name, a in attrs.items() if a is not None}
        return PointCloud(self.points[index], **picked)


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
    of a cell is the centroid of its points; float attributes (`features`,
    `fg_prob`, `flow`) are averaged alongside, while integer ones
    (`cluster_id`) are dropped (labels cannot be meaningfully averaged). If
    more than `max_voxels` cells are occupied, a uniform random subset of
    cells is kept (seeded via `rng`).

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

    averaged = {
        name: cell_mean(a)
        for name, (dtype, _) in POINT_ATTRIBUTES.items()
        if dtype.kind == "f" and (a := getattr(pc, name)) is not None
    }
    centers = PointCloud(cell_mean(pc.points), **averaged)
    return VoxelGrid(voxel_size=float(voxel_size), voxel_centers=centers, point_to_voxel=inverse)

