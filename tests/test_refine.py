import dataclasses

import numpy as np
import pytest
from scipy.spatial import cKDTree

import rigidflow.geom
import rigidflow.refine
from rigidflow.cluster import ClusterLabeling
from rigidflow.geom import (
    PointCloud,
    RigidTransform,
    apply_transform,
    compose,
    invert,
    rotation_about_axis,
)
from rigidflow.refine import IcpConfig, IcpResult, icp_refine, refine_segment
from rigidflow.rigidfit import WeightedCorrespondenceSet, weighted_kabsch

from conftest import make_transform


def _dense_surface(rng, n=1500):
    """Box-plus-wall geometry so all six degrees of freedom are pinned."""
    n_box = n // 2
    pts = rng.uniform(-1.0, 1.0, size=(n_box, 3))
    axis = rng.integers(0, 3, size=n_box)
    pts[np.arange(n_box), axis] = np.sign(pts[np.arange(n_box), axis])
    wall = np.column_stack(
        [
            rng.uniform(-3.0, 3.0, n - n_box),
            rng.uniform(-1.0, 2.0, n - n_box),
            np.full(n - n_box, 3.0),
        ]
    )
    return PointCloud(np.vstack([pts, wall]))


def _perturbation(rng, angle_deg, translation):
    axis = rng.normal(size=3)
    direction = rng.normal(size=3)
    return RigidTransform(
        rotation_about_axis(axis, np.radians(angle_deg)),
        translation * direction / np.linalg.norm(direction),
    )


def test_icp_exact_initial_is_fixed_point(rng):
    src = _dense_surface(rng)
    t_gt = make_transform(rng, max_angle_deg=10.0, max_translation=0.5)
    tgt = apply_transform(t_gt, src)
    result = icp_refine(src, tgt, t_gt, IcpConfig(0.15))
    assert result.iterations == 1
    assert not result.no_overlap
    np.testing.assert_allclose(result.transform.rotation, t_gt.rotation, atol=1e-9)
    np.testing.assert_allclose(result.transform.translation, t_gt.translation, atol=1e-9)


def test_icp_recovers_from_perturbation(rng):
    # noiseless dense surface, initial off by 2 degrees / 0.1 m
    src = _dense_surface(rng)
    t_gt = make_transform(rng, max_angle_deg=5.0, max_translation=0.3)
    tgt = apply_transform(t_gt, src)
    initial = compose(_perturbation(rng, 2.0, 0.1), t_gt)
    result = icp_refine(src, tgt, initial, IcpConfig(0.3, max_iterations=300))
    angle = np.arccos(
        np.clip((np.trace(t_gt.rotation.T @ result.transform.rotation) - 1) / 2, -1, 1)
    )
    assert angle < 1e-4
    assert np.linalg.norm(result.transform.translation - t_gt.translation) < 1e-4
    assert result.iterations <= 300


def test_icp_no_overlap_returns_initial(rng):
    src = PointCloud(rng.normal(size=(20, 3)))
    tgt = PointCloud(rng.normal(size=(20, 3)) + 10.0)
    initial = RigidTransform.identity()
    result = icp_refine(src, tgt, initial, IcpConfig(0.15))
    assert result.no_overlap
    np.testing.assert_array_equal(result.transform.rotation, initial.rotation)
    np.testing.assert_array_equal(result.transform.translation, initial.translation)


def test_icp_rmse_history_non_increasing(rng):
    src = _dense_surface(rng, n=800)
    t_gt = make_transform(rng, max_angle_deg=5.0, max_translation=0.3)
    tgt = apply_transform(t_gt, src)
    initial = compose(_perturbation(rng, 1.5, 0.08), t_gt)
    result = icp_refine(src, tgt, initial, IcpConfig(0.3))
    history = np.array(result.rmse_history)
    assert len(history) >= 1
    assert np.all(np.diff(history) <= 1e-15)


def test_icp_returned_rmse_no_worse_than_initial(rng):
    src = _dense_surface(rng, n=600)
    t_gt = make_transform(rng, max_angle_deg=5.0, max_translation=0.3)
    tgt_pts = apply_transform(t_gt, src).points + rng.normal(scale=0.01, size=(600, 3))
    tgt = PointCloud(tgt_pts)
    initial = compose(_perturbation(rng, 1.0, 0.05), t_gt)
    result = icp_refine(src, tgt, initial, IcpConfig(0.3))
    assert result.rmse <= result.rmse_history[0] + 1e-15


def test_icp_equivariance_under_conjugation(rng):
    src = _dense_surface(rng, n=500)
    t_gt = make_transform(rng, max_angle_deg=4.0, max_translation=0.2)
    tgt = apply_transform(t_gt, src)
    initial = compose(_perturbation(rng, 1.0, 0.05), t_gt)
    cfg = IcpConfig(0.3, max_iterations=50)
    base = icp_refine(src, tgt, initial, cfg)

    g = make_transform(rng, max_angle_deg=30.0, max_translation=1.0)
    conj = icp_refine(
        apply_transform(g, src),
        apply_transform(g, tgt),
        compose(g, compose(initial, invert(g))),
        cfg,
    )
    expected = compose(g, compose(base.transform, invert(g)))
    np.testing.assert_allclose(conj.transform.rotation, expected.rotation, atol=1e-8)
    np.testing.assert_allclose(conj.transform.translation, expected.translation, atol=1e-8)


def test_icp_validates_empty_inputs(rng):
    pc = PointCloud(rng.normal(size=(5, 3)))
    empty = PointCloud(np.empty((0, 3)))
    with pytest.raises(ValueError):
        icp_refine(empty, pc, RigidTransform.identity(), IcpConfig(0.1))


def reference_icp(source, target, initial, cfg):
    """The former `icp_refine`: a fresh tree per call, and validated clouds,
    a correspondence set and `weighted_kabsch` in every iteration."""
    if len(source) == 0 or len(target) == 0:
        raise ValueError("source and target must be nonempty")
    tree = cKDTree(target.points)
    gate = cfg.max_correspondence_distance
    src = source.points

    current = initial
    best_transform, best_rmse = initial, np.inf
    history = []
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
            break
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
        pairs = WeightedCorrespondenceSet(
            source=PointCloud(moved[matched]),
            target=PointCloud(target.points[idx[matched]]),
            weights=np.ones(n_matched),
        )
        try:
            delta = weighted_kabsch(pairs)
        except ValueError:
            break
        current = compose(delta, current)
    return IcpResult(best_transform, best_rmse, len(history), False, tuple(history))


def _surface_case(seed, noise, cfg):
    rng = np.random.default_rng(seed)
    src = _dense_surface(rng, n=700)
    t_gt = make_transform(rng, max_angle_deg=5.0, max_translation=0.3)
    tgt = PointCloud(t_gt.apply(src.points) + rng.normal(scale=noise, size=src.points.shape))
    return src, tgt, compose(_perturbation(rng, 1.5, 0.08), t_gt), cfg


def _no_overlap_case(seed):
    rng = np.random.default_rng(seed)
    src = PointCloud(rng.normal(size=(30, 3)))
    return src, PointCloud(rng.normal(size=(30, 3)) + 10.0), RigidTransform.identity(), IcpConfig(0.15)


def _two_matches_case(seed):
    # only two target points lie inside the gate of any moved source point
    rng = np.random.default_rng(seed)
    src = PointCloud(rng.normal(size=(40, 3)))
    tgt = PointCloud(np.vstack([src.points[:2] + 0.01, rng.normal(size=(20, 3)) + 50.0]))
    return src, tgt, RigidTransform.identity(), IcpConfig(0.15)


def _collinear_case(seed):
    # every match lies on one line: the rigid fit is degenerate on the first step
    rng = np.random.default_rng(seed)
    line = np.outer(np.linspace(-2.0, 2.0, 60), [1.0, 0.5, -0.2])
    tgt = PointCloud(line)
    return PointCloud(line + 0.02 * rng.normal(size=line.shape)), tgt, RigidTransform.identity(), IcpConfig(0.3)


@pytest.mark.parametrize(
    "case",
    [
        lambda: _surface_case(0, 0.0, IcpConfig(0.3)),
        lambda: _surface_case(1, 0.01, IcpConfig(0.3)),
        lambda: _surface_case(2, 0.005, IcpConfig(0.2, max_iterations=50, convergence_epsilon=1e-9)),
        lambda: _no_overlap_case(3),
        lambda: _two_matches_case(4),
        lambda: _collinear_case(5),
        lambda: _surface_case(6, 0.01, IcpConfig(0.3, max_iterations=1)),
    ],
    ids=["surface", "noisy-surface", "tight-gate", "no-overlap", "two-matches", "collinear", "one-iteration"],
)
def test_icp_bit_identical_to_reference(case):
    source, target, initial, cfg = case()
    got = icp_refine(source, target, initial, cfg)
    want = reference_icp(source, target, initial, cfg)
    assert np.array_equal(got.transform.rotation, want.transform.rotation)
    assert np.array_equal(got.transform.translation, want.transform.translation)
    assert got.rmse == want.rmse
    assert got.iterations == want.iterations
    assert got.no_overlap == want.no_overlap
    assert got.rmse_history == want.rmse_history


def test_icp_reference_cases_reach_their_branch():
    # guards the parity cases above against drifting into the common path
    assert reference_icp(*_no_overlap_case(3)).no_overlap
    two = reference_icp(*_two_matches_case(4))
    assert (two.iterations, two.no_overlap) == (1, False)
    collinear = reference_icp(*_collinear_case(5))
    assert (collinear.iterations, collinear.no_overlap) == (1, False)
    assert reference_icp(*_surface_case(0, 0.0, IcpConfig(0.3))).iterations > 3


# ----------------------------------------------------------------- scenes
# Scene-level refinement: the ego run and the cluster runs that the pipeline
# makes from its two branches.


# Gates of the default pipeline configuration.
ICP_BG = IcpConfig(max_correspondence_distance=0.15)
ICP_FG = IcpConfig(max_correspondence_distance=0.25)


@dataclasses.dataclass
class _Scene:
    """Background and foreground clouds of both frames, with source labels."""

    bg_x: PointCloud
    bg_y: PointCloud
    fg_x: PointCloud
    fg_y: PointCloud
    clusters: ClusterLabeling


def _scene(rng, ego, cluster_transforms, bg_n=600, cluster_pts=None):
    """Hand-built voxel-level scene over explicit clouds."""
    bg = _dense_surface(rng, n=bg_n).points * 3.0
    if cluster_pts is not None:
        clusters_pts = cluster_pts
    else:
        offsets = [[20.0, 0.0, 0.0], [0.0, 20.0, 0.0], [0.0, 0.0, 20.0]]
        clusters_pts = [
            rng.normal(size=(40, 3)) + np.array(offsets[k])
            for k in range(len(cluster_transforms))
        ]
    labels = np.concatenate(
        [np.full(len(p), k) for k, p in enumerate(clusters_pts)]
    )
    return _Scene(
        bg_x=PointCloud(bg),
        bg_y=PointCloud(ego.apply(bg)),
        fg_x=PointCloud(np.vstack(clusters_pts)),
        fg_y=PointCloud(np.vstack([t.apply(p) for t, p in zip(cluster_transforms, clusters_pts)])),
        clusters=ClusterLabeling(
            labels=labels, cluster_sizes=np.array([len(p) for p in clusters_pts])
        ),
    )


def _refine_clusters(scene, transforms):
    """`refine_segment` of each cluster onto the whole target foreground, as
    the pipeline's foreground branch runs it: transforms and refined flags."""
    results = [
        refine_segment(
            PointCloud(scene.fg_x.points[scene.clusters.labels == k]), scene.fg_y, t, ICP_FG
        )
        for k, t in enumerate(transforms)
    ]
    return [t for t, _ in results], [refined for _, refined in results]


def test_refine_scene_fixed_point_on_perfect_inputs(rng):
    ego = make_transform(rng, max_angle_deg=3.0, max_translation=0.5)
    t0 = make_transform(rng, max_angle_deg=5.0, max_translation=0.5)
    t1 = make_transform(rng, max_angle_deg=5.0, max_translation=0.5)
    scene = _scene(rng, ego, [t0, t1])
    got_ego, _ = refine_segment(scene.bg_x, scene.bg_y, ego, ICP_BG)
    transforms, _ = _refine_clusters(scene, [t0, t1])
    np.testing.assert_allclose(got_ego.rotation, ego.rotation, atol=1e-8)
    np.testing.assert_allclose(got_ego.translation, ego.translation, atol=1e-8)
    for got, want in zip(transforms, [t0, t1]):
        np.testing.assert_allclose(got.rotation, want.rotation, atol=1e-8)
        np.testing.assert_allclose(got.translation, want.translation, atol=1e-8)


def test_refine_scene_recovers_perturbed_ego(rng):
    ego = make_transform(rng, max_angle_deg=3.0, max_translation=0.5)
    t0 = make_transform(rng, max_angle_deg=5.0, max_translation=0.5)
    scene = _scene(rng, ego, [t0])
    perturbed = compose(_perturbation(rng, 1.0, 0.05), ego)
    got, refined = refine_segment(scene.bg_x, scene.bg_y, perturbed, ICP_BG)
    assert refined
    angle = np.degrees(
        np.arccos(np.clip((np.trace(ego.rotation.T @ got.rotation) - 1) / 2, -1, 1))
    )
    assert angle < 0.1
    assert np.linalg.norm(got.translation - ego.translation) < 0.01


def test_refine_scene_keeps_sparse_cluster_untouched(rng):
    # one 5-point cluster far from every target: no gated match, kept as-is
    ego = make_transform(rng, max_angle_deg=2.0, max_translation=0.3)
    t0 = make_transform(rng, max_angle_deg=5.0, max_translation=0.5)
    sparse_pts = rng.normal(size=(5, 3)) + np.array([0.0, 0.0, 200.0])
    cluster_pts = [rng.normal(size=(40, 3)) + np.array([20.0, 0.0, 0.0]), sparse_pts]
    t_sparse = make_transform(rng, max_angle_deg=5.0, max_translation=0.5)
    scene = _scene(rng, ego, [t0, t_sparse], cluster_pts=cluster_pts)
    # the target foreground lacks the sparse cluster, so it has no counterpart
    scene.fg_y = PointCloud(t0.apply(cluster_pts[0]))
    transforms, refined = _refine_clusters(scene, [t0, t_sparse])
    assert refined == [True, False]
    assert transforms[1] is t_sparse


def test_refine_segment_keeps_initial_without_enough_points(rng):
    t = make_transform(rng, max_angle_deg=5.0, max_translation=0.5)
    pts = rng.normal(size=(40, 3))
    for source, target in ((pts[:2], t.apply(pts)), (pts, np.empty((0, 3)))):
        got, refined = refine_segment(PointCloud(source), PointCloud(target), t, ICP_FG)
        assert got is t and not refined


def _three_cluster_scene(rng):
    ego = make_transform(rng, max_angle_deg=2.0, max_translation=0.3)
    ts = [make_transform(rng, max_angle_deg=4.0, max_translation=0.4) for _ in range(3)]
    return _scene(rng, ego, ts), ego, ts


def test_refine_scene_builds_one_tree_per_target_cloud(rng, monkeypatch):
    scene, ego, ts = _three_cluster_scene(rng)
    builds = []

    def counting_tree(*args, **kwargs):
        builds.append(len(args[0]))
        return cKDTree(*args, **kwargs)

    monkeypatch.setattr(rigidflow.geom, "cKDTree", counting_tree)
    monkeypatch.setattr(rigidflow.refine, "cKDTree", counting_tree, raising=False)
    _, ego_refined = refine_segment(scene.bg_x, scene.bg_y, ego, ICP_BG)
    _, refined = _refine_clusters(scene, ts)
    assert ego_refined and all(refined)
    # one tree for the target background, one shared by the three cluster runs
    assert len(builds) <= 2


def test_refine_scene_calls_icp_by_module_name_once_per_run(rng, monkeypatch):
    # the benchmark tracer wraps `rigidflow.refine.icp_refine`; a refactor that
    # bypassed the name would silently blind it
    scene, ego, ts = _three_cluster_scene(rng)
    calls = []

    def counting_icp(*args, **kwargs):
        result = icp_refine(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(rigidflow.refine, "icp_refine", counting_icp)
    got_ego, _ = refine_segment(scene.bg_x, scene.bg_y, ego, ICP_BG)
    transforms, _ = _refine_clusters(scene, ts)
    assert len(calls) == 1 + scene.clusters.n_clusters
    assert calls[0].transform is got_ego
    assert all(c.transform is t for c, t in zip(calls[1:], transforms))
