import dataclasses
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from rigidflow import pipeline
from rigidflow.cluster import dbscan
from rigidflow.geom import FlowField, PointCloud, RigidTransform, voxelize
from rigidflow.metrics import ego_metrics, flow_metrics
from rigidflow.pipeline import (
    PipelineConfig,
    SceneDecomposition,
    SegmentFit,
    assemble_rigid_flow,
    infer_rigid_flow,
    preprocess,
    with_height_mask,
    with_xyz_features,
)
from rigidflow.refine import IcpConfig, refine_segment
from rigidflow.rigidfit import estimate_ego_motion, fit_cluster_transform
from rigidflow.synthetic import SceneSpec, generate_scene
from rigidflow.transport import soft_flow


def run_scene(scene, cfg, refine=True):
    rng = np.random.default_rng(cfg.seed)
    x = preprocess(scene.frame_x, cfg, rng)
    y = preprocess(scene.frame_y, cfg, rng)
    decomp, flow = infer_rigid_flow(x, y, cfg, refine=refine, rng=rng)
    return x, y, decomp, flow


# ---------------------------------------------------------------- preprocess


def test_preprocess_keeps_in_range_cloud(rng):
    pts = rng.uniform(-5.0, 5.0, size=(100, 3))
    pc = PointCloud(pts, fg_prob=rng.uniform(size=100))
    out = preprocess(pc, PipelineConfig())
    np.testing.assert_array_equal(out.points, pts)
    np.testing.assert_array_equal(out.fg_prob, pc.fg_prob)


def test_preprocess_removes_far_points(rng):
    pts = np.vstack([rng.uniform(-5.0, 5.0, size=(50, 3)), [[100.0, 0.0, 0.0]]])
    out = preprocess(PointCloud(pts), PipelineConfig())
    assert len(out) == 50
    assert np.linalg.norm(out.points, axis=1).max() <= 35.0


def test_preprocess_ground_removal(rng):
    pts = rng.uniform(-5.0, 5.0, size=(100, 3))
    cfg = dataclasses.replace(PipelineConfig(), remove_ground=True)
    out = preprocess(PointCloud(pts), cfg)
    assert np.all(out.points[:, 1] > cfg.ground_removal_y)


def test_preprocess_subsamples_to_cap(rng):
    pts = rng.uniform(-5.0, 5.0, size=(20_000, 3))
    cfg = PipelineConfig()
    out = preprocess(PointCloud(pts), cfg, np.random.default_rng(0))
    assert len(out) == cfg.max_points


def test_preprocess_insufficient_points():
    with pytest.raises(ValueError, match="insufficient points"):
        preprocess(PointCloud([[100.0, 100.0, 100.0]]), PipelineConfig())


def _two_step_preprocess(pc, cfg, rng=None):
    """The former `preprocess`: select the range cut, then select the subsample."""
    keep = np.linalg.norm(pc.points, axis=1) <= cfg.range_cutoff
    if cfg.remove_ground:
        keep &= pc.points[:, 1] > cfg.ground_removal_y
    out = pc.select(np.flatnonzero(keep))
    if len(out) < 3:
        raise ValueError("insufficient points")
    if len(out) > cfg.max_points:
        if rng is None:
            rng = np.random.default_rng(cfg.seed)
        out = out.select(rng.choice(len(out), size=cfg.max_points, replace=False))
    return out


@pytest.mark.parametrize(
    "n, extent, changes",
    [
        (300, 5.0, {}),  # nothing cut, nothing sampled
        (300, 60.0, {}),  # range cut only
        (3000, 5.0, {"max_points": 1000}),  # subsample only
        (6000, 40.0, {"max_points": 500}),  # range cut, then subsample
        (6000, 40.0, {"max_points": 500, "remove_ground": True}),
    ],
)
@pytest.mark.parametrize("seeded", [True, False])
def test_preprocess_equals_two_step_select(rng, n, extent, changes, seeded):
    pc = PointCloud(
        rng.uniform(-extent, extent, size=(n, 3)),
        features=rng.normal(size=(n, 5)),
        fg_prob=rng.uniform(size=n),
        cluster_id=rng.integers(-1, 4, size=n),
        flow=rng.normal(size=(n, 3)),
    )
    cfg = dataclasses.replace(PipelineConfig(), **changes)
    out = preprocess(pc, cfg, np.random.default_rng(7) if seeded else None)
    want = _two_step_preprocess(pc, cfg, np.random.default_rng(7) if seeded else None)
    for f in dataclasses.fields(PointCloud):
        got_a, want_a = getattr(out, f.name), getattr(want, f.name)
        assert got_a.dtype == want_a.dtype
        assert np.array_equal(got_a, want_a), f.name


@pytest.mark.parametrize(
    "changes, whole",
    [
        ({}, True),  # every point in range, under the budget
        ({"max_points": 300}, True),  # exactly at the budget
        ({"range_cutoff": 6.0}, False),  # range cut
        ({"remove_ground": True, "ground_removal_y": 0.0}, False),  # ground cut
        ({"max_points": 299}, False),  # subsample
    ],
)
def test_preprocess_returns_a_whole_cloud_uncopied(rng, changes, whole):
    pc = PointCloud(
        rng.uniform(-5.0, 5.0, size=(300, 3)),
        features=rng.normal(size=(300, 4)),
        fg_prob=rng.uniform(size=300),
    )
    cfg = dataclasses.replace(PipelineConfig(), **changes)
    gen = np.random.default_rng(7)
    state = gen.bit_generator.state
    out = preprocess(pc, cfg, gen)
    assert (out is pc) == whole
    if whole:
        assert gen.bit_generator.state == state
    else:
        assert len(out) < len(pc)


def test_preprocess_insufficient_points_as_two_step(rng):
    pts = np.vstack([rng.uniform(-1.0, 1.0, size=(2, 3)), rng.uniform(50.0, 60.0, size=(5000, 3))])
    cfg = dataclasses.replace(PipelineConfig(), max_points=100)
    for fn in (preprocess, _two_step_preprocess):
        with pytest.raises(ValueError, match="insufficient points"):
            fn(PointCloud(pts), cfg)


def test_preprocess_sampling_uniformity_chi_square(rng):
    # split 20k points into 20 index bins; across repeated seeds, retention
    # should be uniform; aggregate chi-square must not be extreme
    pts = rng.uniform(-5.0, 5.0, size=(20_000, 3))
    pc = PointCloud(pts)
    cfg = PipelineConfig()
    n_bins, n_runs = 20, 30
    bin_of = np.arange(20_000) // 1000
    counts = np.zeros(n_bins)
    for seed in range(n_runs):
        out = preprocess(pc, cfg, np.random.default_rng(seed))
        # recover retained indices by matching coordinates through a dict
        idx = {tuple(p): i for i, p in enumerate(pts)}
        retained = np.array([idx[tuple(p)] for p in out.points])
        counts += np.bincount(bin_of[retained], minlength=n_bins)
    expected = n_runs * cfg.max_points / n_bins
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < stats.chi2.ppf(0.999, df=n_bins - 1)


# ------------------------------------------------------------------ pipeline


def test_static_scene_zero_flow():
    scene = generate_scene(
        SceneSpec(
            n_objects=0, ego_rotation_deg=0.0, ego_translation=0.0,
            noise_sigma=0.0, dropout=0.0, seed=0,
        )
    )
    cfg = PipelineConfig(seed=0)
    x, y, decomp, flow = run_scene(scene, cfg, refine=False)
    m = flow_metrics(flow, FlowField(x.flow))
    assert m.epe3d_mean < 1e-6
    assert decomp.clusters.n_clusters == 0


def test_known_transforms_recovered_per_point():
    # sparse sampling (mostly one point per voxel) and translation-dominant
    # motions: quantization stays sub-mm, so every point lands within 1e-3
    scene = generate_scene(
        SceneSpec(
            seed=77, noise_sigma=0.0, dropout=0.0,
            background_points=800, points_per_object=60,
            ego_rotation_deg=0.2, object_rotation_deg=0.2,
        )
    )
    cfg = PipelineConfig(seed=77)
    x, y, decomp, flow = run_scene(scene, cfg, refine=True)
    err = np.linalg.norm(flow.vectors - x.flow, axis=1)
    assert err.max() < 1e-3


def test_full_motion_scene_accuracy():
    # acceptance-scale motions on a noiseless scene
    scene = generate_scene(SceneSpec(seed=22, noise_sigma=0.0, dropout=0.0))
    cfg = PipelineConfig(seed=22)
    x, y, decomp, flow = run_scene(scene, cfg, refine=True)
    err = np.linalg.norm(flow.vectors - x.flow, axis=1)
    assert err.mean() < 5e-3
    assert err.max() < 0.05
    em = ego_metrics(decomp.ego, scene.gt_ego)
    assert em.rre < 0.05 and em.rte < 0.005
    assert decomp.clusters.n_clusters == 3


def test_mask_noise_degrades_gracefully():
    # 5% of the mask labels flipped: damage stays confined to the flipped
    # points; ego, clustering, and the unflipped points' flow stay close to
    # the clean run (bounds frozen from the clean-run oracle)
    scene = generate_scene(SceneSpec(seed=23))
    cfg = PipelineConfig(seed=23)
    x, y, decomp, flow = run_scene(scene, cfg, refine=True)
    clean = flow_metrics(flow, FlowField(x.flow))

    noise_rng = np.random.default_rng(99)
    flip_x = noise_rng.random(len(x)) < 0.05
    flip_y = noise_rng.random(len(y)) < 0.05
    x2 = dataclasses.replace(x, fg_prob=np.where(flip_x, 1.0 - x.fg_prob, x.fg_prob))
    y2 = dataclasses.replace(y, fg_prob=np.where(flip_y, 1.0 - y.fg_prob, y.fg_prob))
    decomp2, flow2 = infer_rigid_flow(
        x2, y2, cfg, refine=True, rng=np.random.default_rng(cfg.seed)
    )
    noisy = flow_metrics(flow2, FlowField(x.flow))

    assert decomp2.clusters.n_clusters == 3
    em = ego_metrics(decomp2.ego, scene.gt_ego)
    assert em.rre < 0.1 and em.rte < 0.02
    assert noisy.epe3d_median < 5.0 * max(clean.epe3d_median, 1e-3)
    err2 = np.linalg.norm(flow2.vectors - x.flow, axis=1)
    assert err2[~flip_x].mean() < 10.0 * max(clean.epe3d_mean, 1e-3)
    assert noisy.epe3d_mean < 0.5  # flipped points carry the residual damage


def _scene_with_feature_noise(sigma):
    """Scene seed 0 with Gaussian noise of `sigma` added to both frames' features."""
    scene = generate_scene(SceneSpec(seed=0))
    noise = np.random.default_rng(0)
    frame_x, frame_y = (
        dataclasses.replace(f, features=f.features + noise.normal(0.0, sigma, f.features.shape))
        for f in (scene.frame_x, scene.frame_y)
    )
    return dataclasses.replace(scene, frame_x=frame_x, frame_y=frame_y)


@pytest.mark.parametrize("sigma", [0.05, 0.1])
def test_ego_survives_feature_noise(sigma):
    # at sigma 0.1 nearly every background affinity lies below 1e-30; the
    # ego must still come from their relative weights, not from a floor
    scene = _scene_with_feature_noise(sigma)
    _, _, decomp, _ = run_scene(scene, PipelineConfig(seed=0), refine=False)
    assert ego_metrics(decomp.ego, scene.gt_ego).rre < 0.5


@pytest.mark.parametrize("sigma", [0.05, 0.1])
def test_foreground_survives_feature_noise(sigma):
    # without ICP the cluster fits rest on the flow head alone; at tau_flow
    # 0.1 its softmax blends targets across the noise, and the foreground
    # EPE read 58.6 and 342.6 mm here (5.7 and 15.2 mm at 0.05)
    scene = _scene_with_feature_noise(sigma)
    cfg = PipelineConfig(seed=0)
    x, _, _, flow = run_scene(scene, cfg, refine=False)
    fg = x.fg_prob > cfg.fg_threshold
    assert np.linalg.norm(flow.vectors - x.flow, axis=1)[fg].mean() < 0.03


# eight objects in a 30 m scene, the geometry of the `crowd` bench workload
CROWD_SPEC = SceneSpec(
    n_objects=8, points_per_object=1500, background_points=30000,
    background_extent=30.0, seed=0,
)


def test_crowded_scene_recovers_every_object():
    # at tau_flow 0.1 the cluster fits started too far off for ICP to
    # recover them (mean EPE 37.2 mm, foreground 126 mm); at 0.05 it reads 5.7 mm
    scene = generate_scene(CROWD_SPEC)
    x, _, _, flow = run_scene(scene, PipelineConfig(seed=0), refine=True)
    assert flow_metrics(flow, FlowField(x.flow)).epe3d_mean < 0.015


def test_output_segments_are_exactly_rigid():
    scene = generate_scene(SceneSpec(seed=24))
    cfg = PipelineConfig(seed=24)
    _, _, decomp, _ = run_scene(scene, cfg, refine=True)
    pts = decomp.voxel_x.points
    flow_v = decomp.voxel_flow.vectors

    bg = decomp.bg_mask_x
    refit = fit_cluster_transform(
        PointCloud(pts[bg]), FlowField(flow_v[bg])
    )
    np.testing.assert_allclose(refit.rotation, decomp.ego.rotation, atol=1e-9)
    np.testing.assert_allclose(refit.translation, decomp.ego.translation, atol=1e-9)

    fg_idx = np.flatnonzero(~bg)
    for k, (t, fitted) in enumerate(
        zip(decomp.cluster_transforms, decomp.cluster_fitted)
    ):
        if not fitted:
            continue
        sel = fg_idx[decomp.clusters.labels == k]
        refit = fit_cluster_transform(
            PointCloud(pts[sel]), FlowField(flow_v[sel])
        )
        np.testing.assert_allclose(refit.rotation, t.rotation, atol=1e-9)
        np.testing.assert_allclose(refit.translation, t.translation, atol=1e-9)


def test_determinism_bitwise():
    scene = generate_scene(SceneSpec(seed=25))
    cfg = PipelineConfig(seed=25)
    runs = []
    for _ in range(2):
        x, y, decomp, flow = run_scene(scene, cfg, refine=True)
        runs.append((decomp, flow))
    a, b = runs
    np.testing.assert_array_equal(a[1].vectors, b[1].vectors)
    np.testing.assert_array_equal(a[0].ego.rotation, b[0].ego.rotation)
    np.testing.assert_array_equal(a[0].voxel_flow.vectors, b[0].voxel_flow.vectors)
    for ta, tb in zip(a[0].cluster_transforms, b[0].cluster_transforms):
        np.testing.assert_array_equal(ta.rotation, tb.rotation)
        np.testing.assert_array_equal(ta.translation, tb.translation)


def test_no_background_errors():
    scene = generate_scene(SceneSpec(seed=26))
    cfg = PipelineConfig(seed=26)
    x = preprocess(scene.frame_x, cfg, np.random.default_rng(0))
    y = preprocess(scene.frame_y, cfg, np.random.default_rng(0))
    x_all_fg = dataclasses.replace(x, fg_prob=np.ones(len(x)))
    with pytest.raises(ValueError, match="no background"):
        infer_rigid_flow(x_all_fg, y, cfg)


def test_requires_attributes():
    scene = generate_scene(SceneSpec(seed=27))
    cfg = PipelineConfig(seed=27)
    x = preprocess(scene.frame_x, cfg, np.random.default_rng(0))
    y = preprocess(scene.frame_y, cfg, np.random.default_rng(0))
    bare = PointCloud(x.points)
    with pytest.raises(ValueError, match="features and fg_prob"):
        infer_rigid_flow(bare, y, cfg)


def test_refinement_improves_or_preserves_matched_rmse():
    from scipy.spatial import cKDTree

    scene = generate_scene(SceneSpec(seed=28))
    cfg = PipelineConfig(seed=28)
    x, y, plain, _ = run_scene(scene, cfg, refine=False)
    _, _, refined, _ = run_scene(scene, cfg, refine=True)

    def matched_rmse(src_pts, tgt_pts, transform, gate):
        moved = transform.apply(src_pts)
        d, _ = cKDTree(tgt_pts).query(moved, k=1, distance_upper_bound=gate)
        d = d[np.isfinite(d)]
        return np.sqrt((d**2).mean()) if len(d) else np.inf

    vx, vy = plain.voxel_x.points, plain.voxel_y.points
    bg_x, bg_y = vx[plain.bg_mask_x], vy[plain.bg_mask_y]
    before = matched_rmse(bg_x, bg_y, plain.ego, cfg.icp_bg.max_correspondence_distance)
    after = matched_rmse(bg_x, bg_y, refined.ego, cfg.icp_bg.max_correspondence_distance)
    assert after <= before + 1e-12

    fg_idx = np.flatnonzero(~plain.bg_mask_x)
    fg_y = vy[~plain.bg_mask_y]
    for k in range(plain.clusters.n_clusters):
        if not refined.cluster_refined[k]:
            continue
        sel = fg_idx[plain.clusters.labels == k]
        gate = cfg.icp_fg.max_correspondence_distance
        before = matched_rmse(vx[sel], fg_y, plain.cluster_transforms[k], gate)
        after = matched_rmse(vx[sel], fg_y, refined.cluster_transforms[k], gate)
        assert after <= before + 1e-12


def test_assemble_uses_unconstrained_flow_for_noise_voxels():
    scene = generate_scene(SceneSpec(seed=29))
    cfg = dataclasses.replace(PipelineConfig(seed=29), dbscan_min_cluster_size=10_000)
    x, y, decomp, flow = run_scene(scene, cfg, refine=False)
    assert decomp.clusters.n_clusters == 0
    fg_idx = np.flatnonzero(~decomp.bg_mask_x)
    np.testing.assert_array_equal(
        decomp.voxel_flow.vectors[fg_idx], decomp.unconstrained_flow.vectors
    )


def test_feature_and_mask_providers(rng):
    pts = rng.uniform(-3.0, 3.0, size=(50, 3))
    pc = PointCloud(pts)
    feat = with_xyz_features(pc)
    np.testing.assert_array_equal(feat.features, pts)
    masked = with_height_mask(pc, height=0.0)
    np.testing.assert_array_equal(masked.fg_prob, (pts[:, 1] > 0.0).astype(float))


@pytest.mark.parametrize("height", [np.nan, np.inf, -np.inf])
def test_height_mask_refuses_a_non_finite_height(height):
    # `y > nan` is False everywhere: the cloud would be all background
    with pytest.raises(ValueError, match="height"):
        with_height_mask(PointCloud(np.zeros((4, 3))), height)


def test_config_flat_round_trip():
    off_default = PipelineConfig(
        voxel_size=0.2,
        max_points=4096,
        range_cutoff=30.0,
        remove_ground=True,
        ground_removal_y=-1.0,
        fg_threshold=0.4,
        dbscan_eps=0.5,
        dbscan_min_samples=4,
        dbscan_min_cluster_size=8,
        tau_ego=0.01,
        tau_flow=0.2,
        slack_d0=0.3,
        sinkhorn_iterations=5,
        ego_sample_size=512,
        icp_bg=IcpConfig(max_correspondence_distance=0.1, max_iterations=100, convergence_epsilon=1e-7),
        icp_fg=IcpConfig(max_correspondence_distance=0.2, max_iterations=50, convergence_epsilon=1e-5),
        seed=5,
    )
    defaults = PipelineConfig().to_flat_dict()
    assert all(value != defaults[key] for key, value in off_default.to_flat_dict().items())
    for cfg in (PipelineConfig(seed=5, slack_d0=0.3, max_points=4096), off_default):
        assert PipelineConfig.from_flat_dict(cfg.to_flat_dict()) == cfg
    with pytest.raises(ValueError, match="unknown config key"):
        PipelineConfig.from_flat_dict({"nope": "1"})


def test_config_validation():
    # construction validates: an invalid config cannot exist
    invalid = (
        ("fg_threshold", 1.5), ("voxel_size", 0.0), ("max_points", 2), ("seed", -1),
        # an infinite scale or temperature runs, but to a wrong answer or a
        # numerical failure
        ("voxel_size", np.inf), ("dbscan_eps", np.inf), ("tau_ego", np.inf),
        ("tau_flow", np.inf),
    )
    for name, value in invalid:
        with pytest.raises(ValueError, match=name):
            PipelineConfig(**{name: value})
    # legal at inf: no range cut, no slack, and a ground height is any real
    PipelineConfig(range_cutoff=np.inf, slack_d0=np.inf, ground_removal_y=np.inf)


# ------------------------------------------- background / foreground overlap


def reference_infer(x, y, cfg, refine=False, rng=None):
    """`infer_rigid_flow` as it ran before the branches overlapped: one thread,
    the background first, then the foreground, then the ICP refinement of the
    ego-motion and of every fitted cluster, then one assembly."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    grid_x = voxelize(x, cfg.voxel_size, cfg.max_points, rng)
    grid_y = voxelize(y, cfg.voxel_size, cfg.max_points, rng)
    vx, vy = grid_x.voxel_centers, grid_y.voxel_centers
    bg_mask_x = ~(vx.fg_prob > cfg.fg_threshold)
    bg_mask_y = ~(vy.fg_prob > cfg.fg_threshold)
    if not bg_mask_x.any() or not bg_mask_y.any():
        raise ValueError("no background")
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
    fg_x, fg_y = vx.select(~bg_mask_x), vy.select(~bg_mask_y)
    clusters = dbscan(fg_x, cfg.dbscan_eps, cfg.dbscan_min_samples, cfg.dbscan_min_cluster_size)
    if len(fg_x) > 0 and len(fg_y) > 0:
        unconstrained = soft_flow(fg_x, fg_y, cfg.tau_flow)
    else:
        unconstrained = FlowField(np.zeros((len(fg_x), 3)))
    ego_fit, cluster_fits = SegmentFit(ego), []
    for k in range(clusters.n_clusters):
        sel = clusters.labels == k
        try:
            cluster_fits.append(
                SegmentFit(
                    fit_cluster_transform(
                        PointCloud(fg_x.points[sel]), FlowField(unconstrained.vectors[sel])
                    )
                )
            )
        except ValueError:
            cluster_fits.append(SegmentFit(RigidTransform.identity(), fitted=False))
    if refine:
        ego, ego_refined = refine_segment(
            PointCloud(vx.points[bg_mask_x]), PointCloud(vy.points[bg_mask_y]), ego, cfg.icp_bg
        )
        ego_fit = SegmentFit(ego, refined=ego_refined)
        for k, fit in enumerate(cluster_fits):
            if fit.fitted:
                transform, refined = refine_segment(
                    PointCloud(fg_x.points[clusters.labels == k]), fg_y, fit.transform, cfg.icp_fg
                )
                cluster_fits[k] = SegmentFit(transform, refined=refined)
    decomp = SceneDecomposition(
        bg_mask_x=bg_mask_x,
        bg_mask_y=bg_mask_y,
        clusters=clusters,
        ego_fit=ego_fit,
        cluster_fits=tuple(cluster_fits),
        voxel_x=vx,
        voxel_y=vy,
        unconstrained_flow=unconstrained,
    )
    decomp = dataclasses.replace(decomp, voxel_flow=assemble_rigid_flow(decomp))
    voxel = _point_voxels(grid_x, decomp, x)
    flow = decomp.voxel_flow.vectors[voxel]
    for _, members, t in _point_segments(decomp, voxel):
        flow[members] = t.apply(x.points[members]) - x.points[members]
    return decomp, FlowField(flow)


def _point_voxels(grid, decomp, x):
    """Each point's voxel; a point whose cell the cap dropped takes its nearest
    center, found by brute force."""
    voxel = grid.point_to_voxel.copy()
    for i in np.flatnonzero(voxel < 0):
        d2 = ((decomp.voxel_x.points - x.points[i]) ** 2).sum(axis=1)
        voxel[i] = np.argmin(d2)
    return voxel


def _point_segments(decomp, voxel):
    """(label, point mask, transform) for the ego and each fitted cluster: the
    points whose voxel (`voxel[i]` for point i) is in the segment."""
    owned = [("ego", decomp.bg_mask_x, decomp.ego)]
    fg_index = np.flatnonzero(~decomp.bg_mask_x)
    for k, fit in enumerate(decomp.cluster_fits):
        if fit.fitted:
            mask = np.zeros(len(decomp.voxel_x), dtype=bool)
            mask[fg_index[decomp.clusters.labels == k]] = True
            owned.append((f"cluster {k}", mask, fit.transform))
    return [(label, mask[voxel], t) for label, mask, t in owned]


def _transform_bytes(t):
    return t.rotation.tobytes() + t.translation.tobytes()


def _result_bytes(decomp, flow):
    """Every array and flag of an inference result, as one byte string."""
    parts = [
        flow.vectors,
        decomp.voxel_flow.vectors,
        decomp.unconstrained_flow.vectors,
        decomp.bg_mask_x,
        decomp.bg_mask_y,
        decomp.clusters.labels,
        decomp.clusters.cluster_sizes,
        decomp.voxel_x.points,
        decomp.voxel_y.points,
    ]
    out = b"".join(np.ascontiguousarray(a).tobytes() for a in parts)
    out += _transform_bytes(decomp.ego)
    out += b"".join(_transform_bytes(t) for t in decomp.cluster_transforms)
    flags = [decomp.ego_refined, *decomp.cluster_fitted, *decomp.cluster_refined]
    return out + bytes(flags)


def test_decomposition_requires_one_fit_per_cluster():
    x, y, cfg, _ = _inputs("default")
    decomp, _ = infer_rigid_flow(x, y, cfg)
    assert decomp.clusters.n_clusters > 0
    for fits in (decomp.cluster_fits[:-1], decomp.cluster_fits + (SegmentFit(decomp.ego),)):
        with pytest.raises(ValueError, match="one fit per retained cluster"):
            dataclasses.replace(decomp, cluster_fits=fits)


def test_segment_views_read_the_records():
    x, y, cfg, rng = _inputs("unfitted")
    decomp, _ = infer_rigid_flow(x, y, cfg, refine=True, rng=rng)
    fits = decomp.cluster_fits
    assert False in decomp.cluster_fitted and True in decomp.cluster_refined
    assert decomp.ego is decomp.ego_fit.transform
    assert decomp.ego_refined is decomp.ego_fit.refined
    assert all(t is fit.transform for t, fit in zip(decomp.cluster_transforms, fits, strict=True))
    assert decomp.cluster_fitted == tuple(fit.fitted for fit in fits)
    assert decomp.cluster_refined == tuple(fit.refined for fit in fits)
    # an unfitted cluster is never refined and keeps the identity placeholder
    for fit in fits:
        if not fit.fitted:
            assert not fit.refined
            np.testing.assert_array_equal(fit.transform.matrix(), np.eye(4))


def _assert_same_result(got, want):
    (decomp, flow), (ref_decomp, ref_flow) = got, want
    assert np.array_equal(flow.vectors, ref_flow.vectors)
    assert np.array_equal(decomp.voxel_flow.vectors, ref_decomp.voxel_flow.vectors)
    assert np.array_equal(decomp.ego.rotation, ref_decomp.ego.rotation)
    assert np.array_equal(decomp.ego.translation, ref_decomp.ego.translation)
    assert decomp.ego_refined == ref_decomp.ego_refined
    assert decomp.cluster_fitted == ref_decomp.cluster_fitted
    assert decomp.cluster_refined == ref_decomp.cluster_refined
    assert _result_bytes(decomp, flow) == _result_bytes(ref_decomp, ref_flow)


def _with_collinear_object(scene):
    """Append a 21-point straight-line foreground object, far from the rest, to
    both frames: it clusters, but its rigid fit is degenerate."""
    line = np.zeros((21, 3))
    line[:, 0] = np.arange(21) * 0.2
    line[:, 1] = 8.0
    line[:, 2] = 10.0
    feats = np.random.default_rng(3).normal(size=(21, scene.frame_x.features.shape[1]))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)

    def extend(frame, shift):
        return PointCloud(
            np.vstack([frame.points, line + shift]),
            features=np.vstack([frame.features, feats]),
            fg_prob=np.concatenate([frame.fg_prob, np.ones(21)]),
        )

    return extend(scene.frame_x, 0.0), extend(scene.frame_y, np.array([0.3, 0.0, 0.1]))


def _inputs(case):
    """Preprocessed clouds, config and the rng state after preprocessing."""
    spec = CROWD_SPEC if case == "crowd" else SceneSpec(seed=31)
    scene = generate_scene(spec)
    cfg = PipelineConfig(seed=spec.seed)
    rng = np.random.default_rng(cfg.seed)
    frame_x, frame_y = scene.frame_x, scene.frame_y
    if case == "unfitted":
        frame_x, frame_y = _with_collinear_object(scene)
    x = preprocess(frame_x, cfg, rng)
    y = preprocess(frame_y, cfg, rng)
    if case == "capped":
        # voxelize keeps a random 500 of the occupied cells, drawing from rng
        # before the branches split
        cfg = dataclasses.replace(cfg, max_points=500)
    elif case == "no-foreground":
        x = dataclasses.replace(x, fg_prob=np.zeros(len(x)))
        y = dataclasses.replace(y, fg_prob=np.zeros(len(y)))
    return x, y, cfg, rng


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("case", ["default", "crowd", "capped", "no-foreground", "unfitted"])
def test_infer_matches_sequential_reference(case, refine):
    x, y, cfg, rng = _inputs(case)
    state = rng.bit_generator.state
    got = infer_rigid_flow(x, y, cfg, refine=refine, rng=rng)
    rng.bit_generator.state = state
    want = reference_infer(x, y, cfg, refine=refine, rng=rng)
    _assert_same_result(got, want)
    decomp = got[0]
    if case == "capped":
        assert len(decomp.voxel_x) == 500
    if case == "no-foreground":
        assert decomp.bg_mask_x.all() and decomp.clusters.n_clusters == 0
    if case == "unfitted":
        assert False in decomp.cluster_fitted and True in decomp.cluster_fitted
    if case == "crowd":
        assert decomp.clusters.n_clusters == 8


@pytest.mark.parametrize("case", ["default", "crowd", "capped"])
def test_every_point_of_a_segment_moves_by_its_transform(case):
    # The flow of all points, not only of the voxel centers, refits to the
    # transform of the segment that owns the point's voxel.
    x, y, cfg, rng = _inputs(case)
    state = rng.bit_generator.state
    decomp, flow = infer_rigid_flow(x, y, cfg, refine=True, rng=rng)
    rng.bit_generator.state = state
    grid = voxelize(x, cfg.voxel_size, cfg.max_points, rng)
    if case == "capped":
        assert np.any(grid.point_to_voxel == -1)
    segments = _point_segments(decomp, _point_voxels(grid, decomp, x))
    assert len(segments) > 1
    for label, members, t in segments:
        refit = fit_cluster_transform(
            PointCloud(x.points[members]), FlowField(flow.vectors[members])
        )
        gap = max(
            np.abs(refit.rotation - t.rotation).max(),
            np.abs(refit.translation - t.translation).max(),
        )
        assert gap < 1e-9, label


def _raiser(message, delay=0.0):
    def raise_after_delay(*args, **kwargs):
        time.sleep(delay)
        raise ValueError(message)

    return raise_after_delay


@pytest.mark.parametrize("bg_delay, fg_delay", [(0.0, 0.0), (0.2, 0.0), (0.0, 0.2)])
def test_background_error_takes_precedence(monkeypatch, bg_delay, fg_delay):
    x, y, cfg, _ = _inputs("default")
    baseline = threading.active_count()
    monkeypatch.setattr(pipeline, "estimate_ego_motion", _raiser("background failed", bg_delay))
    monkeypatch.setattr(pipeline, "soft_flow", _raiser("foreground failed", fg_delay))
    with pytest.raises(ValueError, match="background failed"):
        infer_rigid_flow(x, y, cfg, refine=True)
    assert threading.active_count() == baseline


@pytest.mark.parametrize("fg_delay", [0.0, 0.2])
def test_foreground_error_surfaces(monkeypatch, fg_delay):
    x, y, cfg, _ = _inputs("default")
    baseline = threading.active_count()
    monkeypatch.setattr(pipeline, "soft_flow", _raiser("foreground failed", fg_delay))
    with pytest.raises(ValueError, match="foreground failed"):
        infer_rigid_flow(x, y, cfg, refine=True)
    assert threading.active_count() == baseline


def _delayed(fn, delay, done=None):
    def run_after_delay(*args, **kwargs):
        time.sleep(delay)
        out = fn(*args, **kwargs)
        if done is not None:
            done.append(True)
        return out

    return run_after_delay


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("slow_branch", ["_background", "_foreground"])
def test_infer_matches_reference_whichever_branch_is_slow(monkeypatch, slow_branch, refine):
    x, y, cfg, rng = _inputs("default")
    state = rng.bit_generator.state
    baseline = threading.active_count()
    monkeypatch.setattr(pipeline, slow_branch, _delayed(getattr(pipeline, slow_branch), 0.3))
    got = infer_rigid_flow(x, y, cfg, refine=refine, rng=rng)
    assert threading.active_count() == baseline
    rng.bit_generator.state = state
    _assert_same_result(got, reference_infer(x, y, cfg, refine=refine, rng=rng))


@pytest.mark.parametrize("bg_delay", [0.0, 0.5])
def test_foreground_error_waits_for_the_background(monkeypatch, bg_delay):
    x, y, cfg, _ = _inputs("default")
    baseline = threading.active_count()
    done = []
    monkeypatch.setattr(pipeline, "_background", _delayed(pipeline._background, bg_delay, done))
    monkeypatch.setattr(pipeline, "soft_flow", _raiser("foreground failed"))
    with pytest.raises(ValueError, match="foreground failed"):
        infer_rigid_flow(x, y, cfg, refine=True)
    # the worker finished its branch before the error left the call
    assert done == [True]
    assert threading.active_count() == baseline


def test_worker_thread_joined_after_success():
    x, y, cfg, _ = _inputs("default")
    baseline = threading.active_count()
    infer_rigid_flow(x, y, cfg, refine=True)
    assert threading.active_count() == baseline


def test_concurrent_callers_match_sequential_calls():
    inputs = [_inputs("default"), _inputs("unfitted")]
    states = [rng.bit_generator.state for *_, rng in inputs]

    def call(i):
        x, y, cfg, rng = inputs[i]
        rng.bit_generator.state = states[i]
        return _result_bytes(*infer_rigid_flow(x, y, cfg, refine=True, rng=rng))

    want = [call(i) for i in range(len(inputs))]
    # Two callers with a worker each: more threads than a 2-core host has
    # cores, switching often, so any shared state would show as other bytes.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            got = [None] * len(inputs)

            def run(i):
                got[i] = call(i)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert got == want
    finally:
        sys.setswitchinterval(interval)


def test_ego_motion_gathers_only_the_sampled_rows():
    # All-true masks over 10k points with 32-D features: the sampled rows are
    # gathered, never the whole background (2 x 2.7 MiB here). The peak is
    # 6.6 MiB, and 12.1 MiB if the whole-background selections were held.
    rng = np.random.default_rng(1)
    n = 10_000
    f = rng.normal(size=(n, 32))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    cloud = PointCloud(rng.uniform(-20.0, 20.0, size=(n, 3)), features=f, fg_prob=np.zeros(n))
    mask = np.ones(n, dtype=bool)
    tracemalloc.start()
    try:
        estimate_ego_motion(
            cloud, cloud, mask, mask, tau=0.005, n_sample=1024, slack_d0=None, iterations=3,
            rng=np.random.default_rng(0),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


@pytest.mark.parametrize("refine", [False, True])
def test_background_branch_runs_estimate_ego_motion_with_the_config(monkeypatch, refine):
    x, y, _, rng = _inputs("default")
    cfg = PipelineConfig(
        tau_ego=0.006, ego_sample_size=700, slack_d0=0.02, sinkhorn_iterations=4, seed=3
    )
    calls = []
    real = pipeline.estimate_ego_motion

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "estimate_ego_motion", spy)
    decomp, _ = infer_rigid_flow(x, y, cfg, refine=refine, rng=rng)
    ((args, kwargs),) = calls
    assert args[0] is decomp.voxel_x and args[1] is decomp.voxel_y
    np.testing.assert_array_equal(args[2], decomp.bg_mask_x)
    np.testing.assert_array_equal(args[3], decomp.bg_mask_y)
    assert kwargs.pop("rng") is rng
    assert kwargs == {"tau": 0.006, "n_sample": 700, "slack_d0": 0.02, "iterations": 4}
