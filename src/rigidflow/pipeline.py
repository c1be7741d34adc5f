"""End-to-end inference: masks -> ego-motion -> clusters -> per-cluster fits
-> optional ICP refinement -> rigid flow assembly.

The pipeline consumes two preprocessed clouds that already carry per-point
features and foreground probabilities (from any provider: the synthetic
oracle, raw coordinates, or externally computed files), voxelizes them, and
estimates everything on the voxel clouds.

The scene is explained as rigid segments: the background, moved by the
ego-motion, and one segment per cluster. Each segment's result is one
`SegmentFit` (transform, fitted, refined), and assembly reads nothing else.
Every source voxel, and every source point through its voxel, moves by its
own segment's transform, so the flow inside a segment is exactly rigid at
the points as well as at the voxels. Voxels that no fitted segment owns
(DBSCAN noise, unfitted clusters) keep the unconstrained soft flow, and
their points take it too.

After the foreground split the two branches read nothing of each other's
results, so each call runs them side by side on two threads: the background
(ego-motion, and its ICP when refining) on one worker thread, the foreground
(DBSCAN, soft flow, cluster fits, and their ICP when refining) on the calling
thread. Each step is one call into the module that owns it: the ego-motion
is `rigidfit.estimate_ego_motion` on the voxel clouds and their background
masks, the soft flow is `transport.soft_flow`, and the ICP of every segment
is `refine.refine_segment`. The random generator is drawn from by the
background branch alone and the branches share no mutable state, so the
outputs are the same bytes as a sequential run whatever the scheduling.

`preprocess` returns its input cloud itself when it keeps every point, so
frames under the point budget are not copied.
"""

from __future__ import annotations

import dataclasses
import operator
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cluster import ClusterLabeling, dbscan
from .geom import FlowField, PointCloud, RigidTransform, voxelize
from .refine import IcpConfig, refine_segment
from .rigidfit import estimate_ego_motion, fit_cluster_transform
from .transport import soft_flow

__all__ = [
    "PipelineConfig",
    "SegmentFit",
    "SceneDecomposition",
    "preprocess",
    "infer_rigid_flow",
    "assemble_rigid_flow",
    "with_xyz_features",
    "with_height_mask",
]


def _format_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(text: str, kind):
    text = text.strip()
    options = typing.get_args(kind)
    if type(None) in options:
        if text.lower() == "none":
            return None
        (kind,) = [t for t in options if t is not type(None)]
    if kind is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    if kind in (int, float):
        return kind(text)
    raise ValueError(f"unsupported config field type {kind!r}")


def _flat_field_types(cls) -> dict:
    """Field name -> type for the flat key/value config format.

    Fields of a nested dataclass (the ICP configs) get dotted keys.
    """
    out = {}
    for name, kind in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(kind):
            out.update((f"{name}.{sub}", t) for sub, t in typing.get_type_hints(kind).items())
        else:
            out[name] = kind
    return out


@dataclass(frozen=True)
class PipelineConfig:
    """All tunables of the inference pipeline, with working defaults.

    Geometry: clouds are cut at `range_cutoff` meters from the sensor,
    optionally ground-filtered at `ground_removal_y` (up axis is y), sampled
    down to `max_points`, and voxelized at `voxel_size` with at most
    `max_points` voxels. Foreground is `fg_prob > fg_threshold`. `slack_d0`
    (None means 2 * tau_ego) sets the feature distance at which the slack
    outlier bin competes with real matches. Each `infer_rigid_flow` call
    uses two threads, one per branch, and its outputs do not depend on their
    scheduling: they are deterministic for a fixed `seed` on a fixed BLAS
    build and thread count. Invalid values raise ValueError on construction;
    `range_cutoff` and `slack_d0` may be inf (no cut, no slack).
    """

    voxel_size: float = 0.1
    max_points: int = 8192
    range_cutoff: float = 35.0
    remove_ground: bool = False
    ground_removal_y: float = -1.4
    fg_threshold: float = 0.5
    dbscan_eps: float = 0.75
    dbscan_min_samples: int = 5
    dbscan_min_cluster_size: int = 10
    tau_ego: float = 0.005
    tau_flow: float = 0.05
    slack_d0: float | None = None
    sinkhorn_iterations: int = 3
    ego_sample_size: int = 1024
    icp_bg: IcpConfig = IcpConfig(max_correspondence_distance=0.15, max_iterations=300)
    icp_fg: IcpConfig = IcpConfig(max_correspondence_distance=0.25, max_iterations=300)
    seed: int = 0

    def __post_init__(self):
        for name in ("voxel_size", "dbscan_eps", "tau_ego", "tau_flow"):
            if not 0 < getattr(self, name) < np.inf:  # NaN fails both comparisons
                raise ValueError(f"{name} must be positive and finite")
        if not self.range_cutoff > 0:  # inf is no cut; NaN is not positive
            raise ValueError("range_cutoff must be positive")
        if not 0.0 < self.fg_threshold < 1.0:
            raise ValueError("fg_threshold must be in (0, 1)")
        if self.max_points < 3:
            raise ValueError("max_points must be at least 3")
        if self.dbscan_min_samples < 1 or self.dbscan_min_cluster_size < 1:
            raise ValueError("dbscan counts must be at least 1")
        if self.sinkhorn_iterations < 1:
            raise ValueError("sinkhorn_iterations must be at least 1")
        if self.ego_sample_size < 3:
            raise ValueError("ego_sample_size must be at least 3")
        if self.slack_d0 is not None and not self.slack_d0 > 0:
            raise ValueError("slack_d0 must be positive when set")
        if np.isnan(self.ground_removal_y):
            raise ValueError("ground_removal_y must not be NaN")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def to_flat_dict(self) -> dict:
        """Flatten to string key/value pairs (nested ICP configs get dotted keys)."""
        return {
            key: _format_value(operator.attrgetter(key)(self))
            for key in _flat_field_types(type(self))
        }

    @classmethod
    def from_flat_dict(cls, flat: dict) -> "PipelineConfig":
        """Inverse of `to_flat_dict`; unknown keys raise."""
        types = _flat_field_types(cls)
        kwargs: dict = {}
        nested: dict = {}
        for key, raw in flat.items():
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            value = _parse_value(str(raw), types[key])
            head, dot, tail = key.partition(".")
            if dot:
                nested.setdefault(head, {})[tail] = value
            else:
                kwargs[key] = value
        defaults = cls()
        for name, changes in nested.items():
            kwargs[name] = dataclasses.replace(getattr(defaults, name), **changes)
        return cls(**kwargs)


@dataclass(frozen=True)
class SegmentFit:
    """The rigid motion inferred for one segment: the background or a cluster.

    `transform` moves the segment's source voxels into the target frame.
    A cluster whose fit failed is not `fitted`: its `transform` is an identity
    placeholder and its voxels keep the unconstrained flow during assembly.
    `refined` says whether ICP refined `transform`.
    """

    transform: RigidTransform
    fitted: bool = True
    refined: bool = False


@dataclass(frozen=True)
class SceneDecomposition:
    """Everything the pipeline inferred about one frame pair, at voxel level.

    Masks index the voxel clouds `voxel_x` / `voxel_y`, whose `fg_prob` holds
    the per-voxel foreground probabilities they were thresholded from.
    `clusters` labels the foreground voxels of the source in extraction
    order. `ego_fit` is the background's segment and `cluster_fits[k]`
    cluster k's; `ego`, `ego_refined`, `cluster_transforms`, `cluster_fitted`
    and `cluster_refined` are read-only views of their fields. `voxel_flow`
    is the assembled per-voxel rigid flow, None until `assemble_rigid_flow`
    has run. It holds results, not intermediates: no transport plan is kept.
    """

    bg_mask_x: np.ndarray
    bg_mask_y: np.ndarray
    clusters: ClusterLabeling
    ego_fit: SegmentFit
    cluster_fits: tuple[SegmentFit, ...]
    voxel_x: PointCloud
    voxel_y: PointCloud
    unconstrained_flow: FlowField
    voxel_flow: FlowField | None = None

    def __post_init__(self):
        if len(self.cluster_fits) != self.clusters.n_clusters:
            raise ValueError("one fit per retained cluster required")

    @property
    def ego(self) -> RigidTransform:
        return self.ego_fit.transform

    @property
    def ego_refined(self) -> bool:
        return self.ego_fit.refined

    @property
    def cluster_transforms(self) -> tuple[RigidTransform, ...]:
        return tuple(fit.transform for fit in self.cluster_fits)

    @property
    def cluster_fitted(self) -> tuple[bool, ...]:
        return tuple(fit.fitted for fit in self.cluster_fits)

    @property
    def cluster_refined(self) -> tuple[bool, ...]:
        return tuple(fit.refined for fit in self.cluster_fits)


def preprocess(
    pc: PointCloud, cfg: PipelineConfig, rng: np.random.Generator | None = None
) -> PointCloud:
    """Range-filter, optionally ground-filter, and subsample a cloud.

    Points farther than `range_cutoff` from the origin are dropped; with
    `remove_ground`, only points above `ground_removal_y` survive. When more
    than `max_points` remain, a uniform random subset of exactly
    `max_points` is kept (seeded via `rng`). Attributes follow their points.
    A cloud that keeps every point is returned as it is, not copied, and
    `rng` is drawn from only when a subset is taken.

    Raises:
        ValueError: "insufficient points" when fewer than 3 points survive.
    """
    keep = np.linalg.norm(pc.points, axis=1) <= cfg.range_cutoff
    if cfg.remove_ground:
        keep &= pc.points[:, 1] > cfg.ground_removal_y
    index = np.flatnonzero(keep)
    if len(index) < 3:
        raise ValueError("insufficient points")
    if len(index) > cfg.max_points:
        if rng is None:
            rng = np.random.default_rng(cfg.seed)
        index = index[rng.choice(len(index), size=cfg.max_points, replace=False)]
    elif len(index) == len(pc):
        return pc  # clouds are immutable, so the whole cloud needs no copy
    return pc.select(index)


def with_xyz_features(pc: PointCloud) -> PointCloud:
    """Use raw coordinates as features (the degenerate nearest-point regime)."""
    return dataclasses.replace(pc, features=pc.points.copy())


def with_height_mask(pc: PointCloud, height: float) -> PointCloud:
    """Crude foreground heuristic: everything above `height` (y up) is foreground.

    Raises:
        ValueError: when `height` is not finite (NaN would make every point
            background, and so would inf).
    """
    if not np.isfinite(height):
        raise ValueError(f"height must be finite, got {height}")
    return dataclasses.replace(pc, fg_prob=(pc.points[:, 1] > height).astype(np.float64))


def _segment_index(decomp: SceneDecomposition) -> np.ndarray:
    """Each source voxel's segment: 0 the ego, k + 1 fitted cluster k, -1 unconstrained."""
    segments = np.zeros(len(decomp.voxel_x), dtype=np.int64)
    labels = decomp.clusters.labels
    # One entry per cluster and a last False, which noise's label -1 reads.
    fitted = np.array([*decomp.cluster_fitted, False])
    segments[~decomp.bg_mask_x] = np.where(fitted[labels], labels + 1, -1)
    return segments


def _move_segments(
    points: np.ndarray, segments: np.ndarray, fits: tuple[SegmentFit, ...], out: np.ndarray
) -> None:
    """Write `fits[s].transform.apply(p) - p` into `out` for every row p of segment s >= 0.

    One stable sort groups the rows, so each segment's rows are moved in
    ascending order by one `apply`, as a boolean mask would select them.
    """
    order = np.argsort(segments, kind="stable")
    bounds = np.searchsorted(segments[order], np.arange(len(fits) + 1))
    for fit, lo, hi in zip(fits, bounds[:-1], bounds[1:]):
        if lo < hi:
            rows = order[lo:hi]
            moved = points[rows]
            out[rows] = fit.transform.apply(moved) - moved


def assemble_rigid_flow(decomp: SceneDecomposition) -> FlowField:
    """Per-voxel flow from the segment transforms.

    Background voxels move with the ego-motion, each fitted cluster with its
    own transform, and the remaining foreground voxels (noise label or
    unfitted cluster) keep the unconstrained soft flow. By construction the
    flow inside every transformed segment is exactly rigid.
    """
    pts = decomp.voxel_x.points
    fg_index = np.flatnonzero(~decomp.bg_mask_x)
    if len(fg_index) != len(decomp.unconstrained_flow):
        raise ValueError("unconstrained flow does not match foreground voxel count")
    out = np.empty_like(pts)
    out[fg_index] = decomp.unconstrained_flow.vectors
    _move_segments(pts, _segment_index(decomp), (decomp.ego_fit, *decomp.cluster_fits), out)
    return FlowField(out)


def _point_flow(decomp: SceneDecomposition, point_to_voxel: np.ndarray, x: PointCloud) -> FlowField:
    """Per-point flow: each point moves by its own voxel's segment transform.

    A point of an unconstrained voxel takes that voxel's flow. A point whose
    cell the voxel cap dropped (`point_to_voxel` -1) belongs to its nearest
    voxel center.
    """
    voxel = point_to_voxel.copy()
    dropped = np.flatnonzero(voxel < 0)
    if len(dropped):
        voxel[dropped] = decomp.voxel_x.kdtree.query(x.points[dropped])[1]
    segments = _segment_index(decomp)[voxel]
    out = np.empty_like(x.points)
    free = segments < 0
    out[free] = decomp.voxel_flow.vectors[voxel[free]]
    _move_segments(x.points, segments, (decomp.ego_fit, *decomp.cluster_fits), out)
    return FlowField(out)


def _background(
    vx: PointCloud,
    vy: PointCloud,
    bg_mask_x: np.ndarray,
    bg_mask_y: np.ndarray,
    cfg: PipelineConfig,
    refine: bool,
    rng: np.random.Generator,
) -> SegmentFit:
    """Ego-motion from the background voxels, ICP-refined when `refine`."""
    ego = estimate_ego_motion(
        vx,
        vy,
        bg_mask_x,
        bg_mask_y,
        tau=cfg.tau_ego,
        n_sample=cfg.ego_sample_size,
        slack_d0=cfg.slack_d0,
        iterations=cfg.sinkhorn_iterations,
        rng=rng,
    )
    if not refine:
        return SegmentFit(ego)
    # ICP reads coordinates only; selecting features too would copy them.
    ego, refined = refine_segment(
        PointCloud(vx.points[bg_mask_x]), PointCloud(vy.points[bg_mask_y]), ego, cfg.icp_bg
    )
    return SegmentFit(ego, refined=refined)


def _foreground(
    vx: PointCloud,
    vy: PointCloud,
    fg_mask_x: np.ndarray,
    fg_mask_y: np.ndarray,
    cfg: PipelineConfig,
    refine: bool,
) -> tuple[ClusterLabeling, FlowField, tuple[SegmentFit, ...]]:
    """Clusters, soft flow and one fit per cluster of the foreground voxels.

    When `refine`, each fitted cluster is ICP-refined against the whole target
    foreground (instance correspondence is unknown), all runs on its one KD-tree.
    """
    fg_x = vx.select(fg_mask_x)
    fg_y = vy.select(fg_mask_y)
    clusters = dbscan(fg_x, cfg.dbscan_eps, cfg.dbscan_min_samples, cfg.dbscan_min_cluster_size)

    if len(fg_x) > 0 and len(fg_y) > 0:
        unconstrained = soft_flow(fg_x, fg_y, cfg.tau_flow)
    else:
        unconstrained = FlowField(np.zeros((len(fg_x), 3)))

    fits: list[SegmentFit] = []
    for k in range(clusters.n_clusters):
        sel = clusters.labels == k
        pts = PointCloud(fg_x.points[sel])
        try:
            transform = fit_cluster_transform(pts, FlowField(unconstrained.vectors[sel]))
        except ValueError:
            fits.append(SegmentFit(RigidTransform.identity(), fitted=False))
            continue
        refined = False
        if refine:
            transform, refined = refine_segment(pts, fg_y, transform, cfg.icp_fg)
        fits.append(SegmentFit(transform, refined=refined))
    return clusters, unconstrained, tuple(fits)


def infer_rigid_flow(
    x: PointCloud,
    y: PointCloud,
    cfg: PipelineConfig | None = None,
    refine: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[SceneDecomposition, FlowField]:
    """Estimate rigid multi-body flow from source cloud `x` to target `y`.

    Both clouds must carry `features` and `fg_prob`. Steps: voxelize both
    clouds (attributes averaged per cell); threshold foreground
    probabilities; estimate the ego-motion on the backgrounds via
    Sinkhorn-weighted rigid fitting; cluster the source foreground; compute
    the soft-correspondence flow on the foreground; fit one transform per
    cluster from that flow; optionally refine every transform with ICP;
    assemble the per-voxel rigid flow; finally move every source point by
    its own voxel's segment transform (a point of an unconstrained voxel
    takes that voxel's flow, and a point whose cell the `max_points` voxel
    cap dropped belongs to its nearest voxel center). The background steps
    run on a worker thread beside the foreground steps; when both branches
    fail, the background's error is raised, as if it had run first.

    Returns the voxel-level decomposition and the per-point flow for `x`.

    Raises:
        ValueError: "no background" when thresholding leaves either side
            without background voxels; attribute/validation errors otherwise.
    """
    if cfg is None:
        cfg = PipelineConfig()
    for name, pc in (("source", x), ("target", y)):
        if pc.features is None or pc.fg_prob is None:
            raise ValueError(f"{name} cloud needs features and fg_prob attributes")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    grid_x = voxelize(x, cfg.voxel_size, cfg.max_points, rng)
    grid_y = voxelize(y, cfg.voxel_size, cfg.max_points, rng)
    vx = grid_x.voxel_centers
    vy = grid_y.voxel_centers

    fg_mask_x = vx.fg_prob > cfg.fg_threshold
    fg_mask_y = vy.fg_prob > cfg.fg_threshold
    bg_mask_x = ~fg_mask_x
    bg_mask_y = ~fg_mask_y
    if not bg_mask_x.any() or not bg_mask_y.any():
        raise ValueError("no background")

    # The branches read the frozen voxel clouds and write nothing shared; each
    # builds its own selections and KD-trees, and the `np.errstate` of the
    # ego transport is thread-local (numpy >= 2.0). After the two voxelize
    # calls, `rng` is drawn from by the background branch alone, so the
    # foreground must never touch it: then no draw depends on scheduling.
    with ThreadPoolExecutor(max_workers=1) as pool:
        background = pool.submit(_background, vx, vy, bg_mask_x, bg_mask_y, cfg, refine, rng)
        try:
            foreground = _foreground(vx, vy, fg_mask_x, fg_mask_y, cfg, refine)
        except Exception:
            # Precedence as if the background ran first: its error wins.
            background.result()
            raise
        ego_fit = background.result()
    clusters, unconstrained, cluster_fits = foreground

    decomp = SceneDecomposition(
        bg_mask_x=bg_mask_x,
        bg_mask_y=bg_mask_y,
        clusters=clusters,
        ego_fit=ego_fit,
        cluster_fits=cluster_fits,
        voxel_x=vx,
        voxel_y=vy,
        unconstrained_flow=unconstrained,
    )
    decomp = dataclasses.replace(decomp, voxel_flow=assemble_rigid_flow(decomp))

    return decomp, _point_flow(decomp, grid_x.point_to_voxel, x)
