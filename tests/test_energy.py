import numpy as np
import pytest

from rigidflow.cluster import ClusterLabeling
from rigidflow.energy import (
    bce_mask_loss,
    chamfer_loss,
    ego_translation_loss,
    rigidity_loss,
)
from rigidflow.geom import FlowField, PointCloud, RigidTransform, apply_transform
from rigidflow.rigidfit import fit_cluster_transform

from conftest import make_transform


# ----------------------------------------------------------------- bce


def test_bce_perfect_predictions_tiny():
    gt = np.array([1.0, 0.0, 1.0, 0.0])
    pred = np.where(gt > 0.5, 1.0 - 1e-7, 1e-7)
    assert bce_mask_loss(pred, gt) <= 1e-6


def test_bce_uniform_half_is_log_two():
    pred = np.full(10, 0.5)
    gt = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 0], dtype=float)
    assert bce_mask_loss(pred, gt) == pytest.approx(np.log(2.0), abs=1e-12)


def test_bce_matches_elementwise_oracle(rng):
    pred = rng.uniform(0.01, 0.99, size=50)
    gt = (rng.uniform(size=50) > 0.5).astype(float)
    # oracle: scalar loop
    total = 0.0
    for p, g in zip(pred, gt):
        total += g * np.log(p) + (1 - g) * np.log(1 - p)
    assert bce_mask_loss(pred, gt) == pytest.approx(-total / 50, abs=1e-12)


def test_bce_length_mismatch():
    with pytest.raises(ValueError):
        bce_mask_loss(np.zeros(3), np.zeros(4))


def test_bce_clamps_extreme_probabilities():
    out = bce_mask_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert np.isfinite(out)


# ----------------------------------------------------------- ego translation


def test_ego_translation_zero_for_equal_transforms(rng):
    pts = PointCloud(rng.normal(size=(20, 3)))
    t = make_transform(rng)
    assert ego_translation_loss(pts, t, t) == 0.0


def test_ego_translation_pure_offset():
    pts = PointCloud(np.zeros((5, 3)))
    est = RigidTransform(np.eye(3), [0.1, 0.0, 0.0])
    gt = RigidTransform.identity()
    assert ego_translation_loss(pts, est, gt) == pytest.approx(0.1, abs=1e-15)


def test_ego_translation_matches_elementwise_oracle(rng):
    pts = rng.normal(size=(100, 3))
    est, gt = make_transform(rng), make_transform(rng)
    total = 0.0
    for p in pts:
        a = gt.rotation @ p + gt.translation
        b = est.rotation @ p + est.translation
        total += np.abs(a - b).sum()
    got = ego_translation_loss(PointCloud(pts), est, gt)
    assert got == pytest.approx(total / 100, abs=1e-12)


def test_ego_translation_permutation_invariant(rng):
    pts = rng.normal(size=(30, 3))
    est, gt = make_transform(rng), make_transform(rng)
    a = ego_translation_loss(PointCloud(pts), est, gt)
    b = ego_translation_loss(PointCloud(pts[rng.permutation(30)]), est, gt)
    assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------- rigidity


def _clustered_scene(rng, n_clusters=3, n_points=30):
    blobs, labels = [], []
    for k in range(n_clusters):
        blobs.append(rng.normal(size=(n_points, 3)) + 10.0 * k)
        labels.extend([k] * n_points)
    pts = np.vstack(blobs)
    labeling = ClusterLabeling(
        labels=np.array(labels), cluster_sizes=np.full(n_clusters, n_points)
    )
    return PointCloud(pts), labeling


def test_rigidity_zero_for_exactly_rigid_flow(rng):
    points, labeling = _clustered_scene(rng)
    flow = np.zeros_like(points.points)
    for k in range(labeling.n_clusters):
        t = make_transform(rng)
        sel = labeling.labels == k
        flow[sel] = apply_transform(t, points.select(sel)).points - points.points[sel]
    assert rigidity_loss(labeling, points, FlowField(flow)) < 1e-10


def test_rigidity_nonzero_for_non_rigid_flow(rng):
    points, labeling = _clustered_scene(rng, n_clusters=1)
    flow = rng.normal(scale=0.5, size=points.points.shape)
    assert rigidity_loss(labeling, points, FlowField(flow)) > 1e-3


def test_rigidity_single_point_perturbation(rng):
    # perturb one point's flow; loss equals the refit residual recomputed directly
    points, labeling = _clustered_scene(rng, n_clusters=1, n_points=40)
    t = make_transform(rng)
    flow = apply_transform(t, points).points - points.points
    flow[7] += np.array([0.3, -0.2, 0.1])
    loss = rigidity_loss(labeling, points, FlowField(flow))
    refit = fit_cluster_transform(points, FlowField(flow))
    residual = refit.apply(points.points) - (points.points + flow)
    expected = np.abs(residual).sum(axis=1).mean()
    assert loss == pytest.approx(expected, abs=1e-12)
    assert loss > 1e-4


def test_rigidity_matches_two_stage_oracle(rng):
    points, labeling = _clustered_scene(rng, n_clusters=3, n_points=25)
    flow = rng.normal(scale=0.1, size=points.points.shape)
    per_cluster = []
    for k in range(3):
        sel = labeling.labels == k
        sub = points.select(sel)
        t = fit_cluster_transform(sub, FlowField(flow[sel]))
        res = t.apply(sub.points) - (sub.points + flow[sel])
        per_cluster.append(np.abs(res).sum(axis=1).mean())
    expected = np.mean(per_cluster)
    got = rigidity_loss(labeling, points, FlowField(flow))
    assert got == pytest.approx(expected, abs=1e-10)


def test_rigidity_skips_tiny_clusters(rng):
    pts = np.vstack([rng.normal(size=(20, 3)), rng.normal(size=(2, 3)) + 50.0])
    labels = np.array([0] * 20 + [1] * 2)
    labeling = ClusterLabeling(labels=labels, cluster_sizes=np.array([20, 2]))
    t = make_transform(rng)
    flow = np.zeros_like(pts)
    flow[:20] = t.apply(pts[:20]) - pts[:20]
    flow[20:] = rng.normal(size=(2, 3))  # would be huge if it were counted
    assert rigidity_loss(labeling, PointCloud(pts), FlowField(flow)) < 1e-10


def test_rigidity_errors_when_nothing_fittable(rng):
    pts = PointCloud(rng.normal(size=(2, 3)))
    labeling = ClusterLabeling(labels=np.array([0, 0]), cluster_sizes=np.array([2]))
    with pytest.raises(ValueError):
        rigidity_loss(labeling, pts, FlowField(np.zeros((2, 3))))


# ------------------------------------------------------------------ chamfer


def test_chamfer_identical_clouds_zero(rng):
    pc = PointCloud(rng.normal(size=(20, 3)))
    assert chamfer_loss(pc, pc) == 0.0


def test_chamfer_single_points_one_meter():
    a = PointCloud([[0.0, 0.0, 0.0]])
    b = PointCloud([[1.0, 0.0, 0.0]])
    assert chamfer_loss(a, b) == pytest.approx(2.0, abs=1e-15)


def test_chamfer_matches_double_loop_oracle(rng):
    a = rng.normal(size=(50, 3))
    b = rng.normal(size=(60, 3))
    total = 0.0
    for p in a:
        total += min(np.linalg.norm(p - q) for q in b)
    for q in b:
        total += min(np.linalg.norm(q - p) for p in a)
    got = chamfer_loss(PointCloud(a), PointCloud(b))
    assert got == pytest.approx(total, abs=1e-10)


def test_chamfer_symmetry(rng):
    a = PointCloud(rng.normal(size=(30, 3)))
    b = PointCloud(rng.normal(size=(40, 3)))
    assert chamfer_loss(a, b) == pytest.approx(chamfer_loss(b, a), abs=1e-12)


def test_chamfer_zero_iff_equal_sets(rng):
    pts = rng.normal(size=(15, 3))
    a = PointCloud(pts)
    b = PointCloud(pts[rng.permutation(15)])
    assert chamfer_loss(a, b) == 0.0
    c = PointCloud(pts + 0.01)
    assert chamfer_loss(a, c) > 0.0


def test_chamfer_empty_errors():
    with pytest.raises(ValueError, match="empty foreground"):
        chamfer_loss(PointCloud(np.empty((0, 3))), PointCloud([[0.0, 0.0, 0.0]]))

