"""Seeded synthetic scene generator with exact ground truth.

Builds a two-frame scene from simple geometry: a ground plane plus walls for
the static background and box-surface objects for the moving foreground.
Frame Y is the segment-wise rigid transform of frame X, optionally with
additive Gaussian noise and random dropout. All ground-truth fields (flow,
transforms, masks, labels, correspondences) are exact by construction, which
makes these scenes usable as verification oracles for the full pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .cluster import ClusterLabeling
from .geom import FlowField, PointCloud, RigidTransform, rotation_about_axis

__all__ = ["SceneSpec", "SyntheticScene", "generate_scene", "random_transform"]


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a generated scene.

    Coordinates follow the sensor convention: y up, z forward, x right, with
    the sensor at the origin and the ground plane at `ground_y`. Motion
    magnitudes are upper bounds; actual magnitudes are drawn uniformly.
    `min_object_gap` is the enforced clearance between every object and all
    other geometry (objects and background), so density clustering on the
    foreground is unambiguous. A value no scene can have, NaN and inf
    included, raises ValueError.
    """

    n_objects: int = 3
    points_per_object: int = 200
    background_points: int = 2000
    background_extent: float = 16.0
    ego_rotation_deg: float = 5.0
    ego_translation: float = 2.0
    object_rotation_deg: float = 10.0
    object_translation: float = 3.0
    noise_sigma: float = 0.005
    dropout: float = 0.1
    feature_dim: int = 32
    feature_length_scale: float = 0.5
    min_object_gap: float = 1.5
    ground_y: float = -1.6
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # NaN slips past every range check below
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"inconsistent scene spec: {f.name} must be finite")
        if self.seed < 0:
            raise ValueError("inconsistent scene spec: seed must be non-negative")
        if self.n_objects < 0:
            raise ValueError("inconsistent scene spec: negative object count")
        if self.n_objects > 0 and self.points_per_object < 3:
            raise ValueError("inconsistent scene spec: objects need at least 3 points")
        if self.background_points < 3:
            raise ValueError("inconsistent scene spec: background needs at least 3 points")
        if self.background_extent <= 4.0:
            raise ValueError("inconsistent scene spec: extent too small")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("inconsistent scene spec: dropout must be in [0, 1)")
        if self.noise_sigma < 0:
            raise ValueError("inconsistent scene spec: negative noise sigma")
        if self.feature_dim < 1:
            raise ValueError("inconsistent scene spec: feature_dim must be at least 1")
        if self.feature_length_scale <= 0:
            raise ValueError("inconsistent scene spec: feature_length_scale must be positive")
        if self.min_object_gap <= 0:
            raise ValueError("inconsistent scene spec: gap must be positive")


@dataclass(frozen=True)
class SyntheticScene:
    """Two frames plus every ground-truth quantity the pipeline estimates.

    `frame_x` carries oracle attributes: pairwise-shared features, the binary
    foreground probability, full-cloud cluster ids (-1 for background), and
    the exact flow. `correspondence_map[i]` is the index of point i's
    counterpart in `frame_y`, or -1 if it was dropped. `gt_cluster_labels`
    indexes the foreground subset of `frame_x` in extraction order.
    """

    frame_x: PointCloud
    frame_y: PointCloud
    gt_flow: FlowField
    gt_ego: RigidTransform
    gt_object_transforms: list = field(default_factory=list)
    gt_fg_mask: np.ndarray = None
    gt_cluster_labels: ClusterLabeling = None
    correspondence_map: np.ndarray = None


def random_transform(
    rng: np.random.Generator,
    max_rotation_deg: float,
    max_translation: float,
    center: np.ndarray | None = None,
) -> RigidTransform:
    """Uniformly random rigid motion bounded by the given magnitudes.

    Rotation is about a random axis through `center` (the origin when None);
    the translation direction is uniform on the sphere. Zero bounds yield the
    exact identity while still consuming the same number of rng draws, so
    seeded sequences stay aligned across configurations.
    """
    axis = rng.normal(size=3)
    angle = rng.uniform(0.0, np.radians(max_rotation_deg))
    direction = rng.normal(size=3)
    magnitude = rng.uniform(0.0, max_translation)
    rotation = rotation_about_axis(axis, angle)
    shift = magnitude * direction / np.linalg.norm(direction)
    if center is None:
        return RigidTransform(rotation, shift)
    center = np.asarray(center, dtype=np.float64)
    return RigidTransform(rotation, center + shift - rotation @ center)


def _feature_field(
    rng: np.random.Generator, points: np.ndarray, dim: int, length_scale: float
) -> np.ndarray:
    """Random Fourier features of position: a smooth unit-scale random field.

    Descriptors of points separated by much more than `length_scale`
    decorrelate (feature distance about sqrt(2)); nearby points stay close in
    feature space.
    """
    w = rng.normal(scale=1.0 / length_scale, size=(3, dim))
    b = rng.uniform(0.0, 2.0 * np.pi, size=dim)
    return np.sqrt(2.0 / dim) * np.cos(points @ w + b)


def _box_surface(rng: np.random.Generator, center, half, n: int) -> np.ndarray:
    areas = np.array([half[1] * half[2], half[0] * half[2], half[0] * half[1]])
    probs = np.repeat(areas / areas.sum() / 2.0, 2)
    faces = rng.choice(6, size=n, p=probs)
    pts = rng.uniform(-1.0, 1.0, size=(n, 3)) * half
    axes = faces // 2
    signs = np.where(faces % 2 == 0, 1.0, -1.0)
    pts[np.arange(n), axes] = signs * half[axes]
    return center + pts


def _place_objects(rng: np.random.Generator, spec: SceneSpec):
    """Sample box half-extents and centers honoring every clearance."""
    ext = spec.background_extent
    gap = spec.min_object_gap
    halves, centers = [], []
    for _ in range(spec.n_objects):
        for attempt in range(200):
            half = rng.uniform(0.3, 1.0, size=3)
            radius = float(np.linalg.norm(half))
            low_x = -ext / 2.0 + gap + half[0] + 0.2
            high_x = ext / 2.0 - gap - half[0] - 0.2
            low_y = spec.ground_y + gap + half[1]
            low_z = 3.0 + half[2]
            high_z = 2.0 + ext - gap - half[2] - 0.2
            if low_x >= high_x or low_z >= high_z:
                continue
            center = np.array(
                [
                    rng.uniform(low_x, high_x),
                    rng.uniform(low_y, low_y + 1.5),
                    rng.uniform(low_z, high_z),
                ]
            )
            ok = all(
                np.linalg.norm(center - c) >= gap + radius + np.linalg.norm(h)
                for c, h in zip(centers, halves)
            )
            if ok:
                halves.append(half)
                centers.append(center)
                break
        else:
            raise ValueError("inconsistent scene spec: cannot place objects with the required gap")
    return halves, centers


def _sample_motions(rng: np.random.Generator, spec: SceneSpec, centers, radii):
    """Draw per-object motions that keep moved objects clearly separated."""
    for attempt in range(200):
        transforms = [
            random_transform(rng, spec.object_rotation_deg, spec.object_translation, center=c)
            for c in centers
        ]
        moved = [t.apply(c) for t, c in zip(transforms, centers)]
        ok = all(
            np.linalg.norm(moved[i] - moved[j]) >= 0.5 + radii[i] + radii[j]
            for i in range(len(moved))
            for j in range(i + 1, len(moved))
        )
        if ok:
            return transforms
    raise ValueError("inconsistent scene spec: cannot separate moved objects")


def generate_scene(spec: SceneSpec) -> SyntheticScene:
    """Generate a two-frame multi-body scene with exact ground truth.

    Background: 60% of points on the ground plane, the rest on two walls (one
    side, one back), so the static geometry constrains all six degrees of
    freedom. Objects: random boxes sampled on their surfaces, placed with at
    least `min_object_gap` clearance to each other, the ground, and the
    walls. Oracle features are unit vectors shared between true
    correspondences; dropped points receive fresh vectors so they match
    nothing in the other frame.
    """
    rng = np.random.default_rng(spec.seed)
    ext = spec.background_extent

    # Static geometry: ground plane plus two walls.
    n_ground = int(round(spec.background_points * 0.6))
    n_wall = spec.background_points - n_ground
    n_wall_a = n_wall // 2
    n_wall_b = n_wall - n_wall_a
    ground = np.column_stack(
        [
            rng.uniform(-ext / 2.0, ext / 2.0, n_ground),
            np.full(n_ground, spec.ground_y),
            rng.uniform(2.0, 2.0 + ext, n_ground),
        ]
    )
    wall_a = np.column_stack(  # side wall at x = -ext/2
        [
            np.full(n_wall_a, -ext / 2.0),
            rng.uniform(spec.ground_y, spec.ground_y + 4.0, n_wall_a),
            rng.uniform(2.0, 2.0 + ext, n_wall_a),
        ]
    )
    wall_b = np.column_stack(  # back wall at z = 2 + ext
        [
            rng.uniform(-ext / 2.0, ext / 2.0, n_wall_b),
            rng.uniform(spec.ground_y, spec.ground_y + 4.0, n_wall_b),
            np.full(n_wall_b, 2.0 + ext),
        ]
    )
    background = np.vstack([ground, wall_a, wall_b])

    halves, centers = _place_objects(rng, spec)
    objects = [
        _box_surface(rng, c, h, spec.points_per_object) for c, h in zip(centers, halves)
    ]

    points_x = np.vstack([background] + objects) if objects else background
    n_total = len(points_x)
    labels_full = np.full(n_total, -1, dtype=np.int64)
    for k in range(spec.n_objects):
        start = len(background) + k * spec.points_per_object
        labels_full[start : start + spec.points_per_object] = k
    fg_mask = labels_full >= 0

    ego = random_transform(rng, spec.ego_rotation_deg, spec.ego_translation)
    radii = [float(np.linalg.norm(h)) for h in halves]
    object_transforms = _sample_motions(rng, spec, centers, radii) if spec.n_objects else []

    flow = np.empty_like(points_x)
    flow[~fg_mask] = ego.apply(points_x[~fg_mask]) - points_x[~fg_mask]
    for k, t in enumerate(object_transforms):
        sel = labels_full == k
        flow[sel] = t.apply(points_x[sel]) - points_x[sel]

    points_y = points_x + flow
    if spec.noise_sigma > 0:
        points_y = points_y + rng.normal(0.0, spec.noise_sigma, size=points_y.shape)

    survives = rng.random(n_total) >= spec.dropout
    correspondence = np.full(n_total, -1, dtype=np.int64)
    correspondence[survives] = np.arange(int(survives.sum()))

    # Oracle features: one random descriptor per correspondence pair, shared
    # across frames (both sides are evaluated at the source position, so true
    # pairs match exactly). The descriptors come from a smooth random field,
    # which is how a well-trained backbone behaves: nearby points get similar
    # features (cell averaging stays meaningful) while points farther apart
    # than the length scale decorrelate. Dropped points keep their field value
    # but match nothing exactly, so the assignment's slack bin absorbs them.
    features_x = _feature_field(rng, points_x, spec.feature_dim, spec.feature_length_scale)
    features_y = features_x[survives]

    fg_prob_x = fg_mask.astype(np.float64)
    frame_x = PointCloud(
        points=points_x,
        features=features_x,
        fg_prob=fg_prob_x,
        cluster_id=labels_full,
        flow=flow,
    )
    frame_y = PointCloud(
        points=points_y[survives],
        features=features_y,
        fg_prob=fg_prob_x[survives],
    )

    fg_labels = labels_full[fg_mask]
    gt_clusters = ClusterLabeling(
        labels=fg_labels,
        cluster_sizes=np.bincount(fg_labels, minlength=spec.n_objects)
        if spec.n_objects
        else np.empty(0, dtype=np.int64),
    )
    return SyntheticScene(
        frame_x=frame_x,
        frame_y=frame_y,
        gt_flow=FlowField(flow),
        gt_ego=ego,
        gt_object_transforms=object_transforms,
        gt_fg_mask=fg_mask,
        gt_cluster_labels=gt_clusters,
        correspondence_map=correspondence,
    )
