import tracemalloc

import numpy as np
import pytest

from rigidflow import rigidfit
from rigidflow.geom import FlowField, PointCloud, apply_transform
from rigidflow.rigidfit import (
    WeightedCorrespondenceSet,
    estimate_ego_motion,
    fit_cluster_transform,
    weighted_kabsch,
)

from conftest import make_transform


def _pair(rng, n=50, transform=None, weights=None):
    src = PointCloud(rng.normal(size=(n, 3)))
    t = transform if transform is not None else make_transform(rng)
    tgt = apply_transform(t, src)
    w = np.ones(n) if weights is None else weights
    return WeightedCorrespondenceSet(source=src, target=tgt, weights=w), t


# ------------------------------------------------------------ weighted_kabsch


def test_kabsch_identity_for_equal_clouds(rng):
    src = PointCloud(rng.normal(size=(30, 3)))
    out = weighted_kabsch(WeightedCorrespondenceSet(src, src, np.ones(30)))
    np.testing.assert_allclose(out.rotation, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(out.translation, np.zeros(3), atol=1e-10)


def test_kabsch_recovers_random_transform(rng):
    for _ in range(25):
        c, t = _pair(rng)
        out = weighted_kabsch(c)
        np.testing.assert_allclose(out.rotation, t.rotation, atol=1e-8)
        np.testing.assert_allclose(out.translation, t.translation, atol=1e-8)


def test_kabsch_zero_weight_suppresses_corruption(rng):
    n = 60
    src = PointCloud(rng.normal(size=(n, 3)))
    t = make_transform(rng)
    tgt_pts = apply_transform(t, src).points.copy()
    corrupt = rng.choice(n, size=n // 2, replace=False)
    tgt_pts[corrupt] += rng.normal(scale=50.0, size=(len(corrupt), 3))
    weights = np.ones(n)
    weights[corrupt] = 0.0
    out = weighted_kabsch(
        WeightedCorrespondenceSet(src, PointCloud(tgt_pts), weights)
    )
    np.testing.assert_allclose(out.rotation, t.rotation, atol=1e-8)
    np.testing.assert_allclose(out.translation, t.translation, atol=1e-8)


def test_kabsch_noiseless_residual_tiny(rng):
    c, _ = _pair(rng, n=100)
    out = weighted_kabsch(c)
    res = out.apply(c.source.points) - c.target.points
    assert (c.weights * (res**2).sum(axis=1)).sum() < 1e-14 * len(c)


def test_kabsch_weight_scale_invariance(rng):
    c, _ = _pair(rng, n=40, weights=np.abs(rng.uniform(0.1, 2.0, size=40)))
    base = weighted_kabsch(c)
    scaled = weighted_kabsch(
        WeightedCorrespondenceSet(c.source, c.target, c.weights * 37.5)
    )
    np.testing.assert_allclose(scaled.rotation, base.rotation, atol=1e-12)
    np.testing.assert_allclose(scaled.translation, base.translation, atol=1e-12)


def test_kabsch_equivariance_under_conjugation(rng):
    c, _ = _pair(rng, n=30)
    g = make_transform(rng)
    base = weighted_kabsch(c)
    conj = weighted_kabsch(
        WeightedCorrespondenceSet(
            apply_transform(g, c.source), apply_transform(g, c.target), c.weights
        )
    )
    expected_rot = g.rotation @ base.rotation @ g.rotation.T
    expected_t = (
        g.rotation @ base.translation
        + g.translation
        - expected_rot @ g.translation
    )
    np.testing.assert_allclose(conj.rotation, expected_rot, atol=1e-9)
    np.testing.assert_allclose(conj.translation, expected_t, atol=1e-9)


def test_kabsch_zero_total_weight_errors(rng):
    src = PointCloud(rng.normal(size=(5, 3)))
    with pytest.raises(ValueError, match="zero total weight"):
        weighted_kabsch(WeightedCorrespondenceSet(src, src, np.zeros(5)))


def test_kabsch_collinear_source_errors(rng):
    src = PointCloud(np.outer(np.linspace(0, 1, 10), [1.0, 2.0, 3.0]))
    tgt = PointCloud(rng.normal(size=(10, 3)))
    with pytest.raises(ValueError, match="degenerate correspondence geometry"):
        weighted_kabsch(WeightedCorrespondenceSet(src, tgt, np.ones(10)))


def test_kabsch_too_few_positive_weights_errors(rng):
    src = PointCloud(rng.normal(size=(5, 3)))
    w = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="degenerate correspondence geometry"):
        weighted_kabsch(WeightedCorrespondenceSet(src, src, w))


def test_kabsch_reflection_guard_near_planar(rng):
    # adversarial near-planar sets must never produce a reflection
    for _ in range(300):
        n = 12
        src_pts = rng.normal(size=(n, 3))
        src_pts[:, 2] *= 1e-8  # squash to a plane
        tgt_pts = rng.normal(size=(n, 3))
        tgt_pts[:, 2] *= 1e-8
        try:
            out = weighted_kabsch(
                WeightedCorrespondenceSet(
                    PointCloud(src_pts), PointCloud(tgt_pts), np.ones(n)
                )
            )
        except ValueError:
            continue  # rank-deficient draws may legitimately error
        assert np.linalg.det(out.rotation) > 0.0


# --------------------------------------------------------- estimate_ego_motion


def _featured_cloud(rng, n=400, dim=8):
    pts = rng.uniform(-10.0, 10.0, size=(n, 3))
    feats = rng.normal(size=(n, dim))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    return PointCloud(pts, features=feats)


def _orthogonal_featured_cloud(rng, n):
    # exactly separated descriptors: every wrong pair sits at distance sqrt(2)
    pts = rng.uniform(-10.0, 10.0, size=(n, 3))
    return PointCloud(pts, features=np.eye(n))


# The ego step's arguments as these tests were calibrated: tau 0.1, every point
# sampled up to 1024 a side, slack at 2 tau, three Sinkhorn sweeps.
EGO_ARGS = dict(tau=0.1, n_sample=1024, slack_d0=None, iterations=3)


def _everywhere(pc):
    return np.ones(len(pc), dtype=bool)


def _spy_on_assignment(monkeypatch):
    """Record every (matched, weights) the ego transport yields; `estimate_ego_motion`
    returns the transform alone."""
    seen = []

    original = rigidfit.pruned_soft_correspondences

    def spy(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(rigidfit, "pruned_soft_correspondences", spy)
    return seen


def test_ego_motion_identity_for_identical_clouds(rng):
    cloud = _orthogonal_featured_cloud(rng, 400)
    mask = _everywhere(cloud)
    t = estimate_ego_motion(cloud, cloud, mask, mask, **EGO_ARGS, rng=np.random.default_rng(0))
    np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-6)
    np.testing.assert_allclose(t.translation, np.zeros(3), atol=1e-6)


def test_ego_motion_recovers_transform_with_oracle_features(rng, monkeypatch):
    cloud = _orthogonal_featured_cloud(rng, 600)
    t_gt = make_transform(rng, max_angle_deg=10.0, max_translation=2.0)
    moved = apply_transform(t_gt, cloud)
    seen = _spy_on_assignment(monkeypatch)
    mask = _everywhere(cloud)
    est = estimate_ego_motion(cloud, moved, mask, mask, **EGO_ARGS, rng=np.random.default_rng(1))
    ((_, rows),) = seen
    np.testing.assert_allclose(est.rotation, t_gt.rotation, atol=1e-6)
    np.testing.assert_allclose(est.translation, t_gt.translation, atol=1e-6)
    # real-row mass stays near 1: little probability lost to slack
    assert rows.min() > 0.8


def test_ego_motion_with_occlusion_outliers(rng):
    # 20% of source points have no counterpart; their features match nothing
    n = 1024
    src = _featured_cloud(rng, n=n, dim=16)
    t_gt = make_transform(rng, max_angle_deg=5.0, max_translation=1.0)
    occluded = rng.choice(n, size=n // 5, replace=False)
    keep = np.setdiff1d(np.arange(n), occluded)
    tgt = apply_transform(t_gt, src.select(keep))
    src_feats = src.features.copy()
    fresh = rng.normal(size=(len(occluded), 16))
    src_feats[occluded] = fresh / np.linalg.norm(fresh, axis=1, keepdims=True)
    src = PointCloud(src.points, features=src_feats)
    est = estimate_ego_motion(
        src, tgt, _everywhere(src), _everywhere(tgt), **EGO_ARGS, rng=np.random.default_rng(2)
    )
    angle = np.degrees(
        np.arccos(np.clip((np.trace(t_gt.rotation.T @ est.rotation) - 1) / 2, -1, 1))
    )
    assert angle < 0.5
    assert np.linalg.norm(est.translation - t_gt.translation) < 0.05


def test_ego_motion_requires_features(rng):
    bare = PointCloud(rng.normal(size=(10, 3)))
    mask = _everywhere(bare)
    with pytest.raises(ValueError, match="feature"):
        estimate_ego_motion(bare, bare, mask, mask, **EGO_ARGS, rng=np.random.default_rng(0))


def test_ego_motion_uses_all_points_when_sample_exceeds(rng, monkeypatch):
    cloud = _featured_cloud(rng, n=50)
    t_gt = make_transform(rng, max_angle_deg=5.0, max_translation=0.5)
    seen = _spy_on_assignment(monkeypatch)
    mask = _everywhere(cloud)
    est = estimate_ego_motion(
        cloud, apply_transform(t_gt, cloud), mask, mask, **EGO_ARGS, rng=np.random.default_rng(3)
    )
    ((matched, _),) = seen
    assert len(matched) == 50
    np.testing.assert_allclose(est.rotation, t_gt.rotation, atol=1e-6)


def test_ego_motion_transport_peaks_below_one_dense_plan():
    # 1024 samples a side match a moved, noisy copy of themselves; the dense
    # (N+1) x (M+1) float64 plan alone would be 8.02 MiB, more than the bound
    rng = np.random.default_rng(4)
    n = 1024
    f = rng.normal(size=(n, 32))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    src = PointCloud(rng.uniform(-20.0, 20.0, size=(n, 3)), features=f)
    perm = rng.permutation(n)
    tgt = PointCloud(src.points[perm] + 1.0, features=f[perm] + 0.01 * rng.normal(size=f.shape))
    tracemalloc.start()
    try:
        mask = _everywhere(src)
        est = estimate_ego_motion(
            src, tgt, mask, mask, tau=0.005, n_sample=n, slack_d0=None, iterations=3,
            rng=np.random.default_rng(0),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    np.testing.assert_allclose(est.translation, np.ones(3), atol=1e-6)


def test_ego_motion_samples_only_the_masked_rows(rng, monkeypatch):
    # the unmasked rows carry wild points and features: drawing one would
    # put it among the transport's sources or targets
    cloud = _orthogonal_featured_cloud(rng, 300)
    t_gt = make_transform(rng, max_angle_deg=10.0, max_translation=2.0)
    moved = apply_transform(t_gt, cloud)
    mask = rng.random(300) < 0.5
    wild = PointCloud(
        np.where(mask[:, None], cloud.points, 1e6),
        features=np.where(mask[:, None], cloud.features, 7.0),
    )
    seen = _spy_on_assignment(monkeypatch)
    est = estimate_ego_motion(wild, moved, mask, mask, **EGO_ARGS, rng=np.random.default_rng(5))
    ((matched, _),) = seen
    assert len(matched) == mask.sum()
    assert np.abs(matched.points).max() < 100.0
    np.testing.assert_allclose(est.rotation, t_gt.rotation, atol=1e-6)
    np.testing.assert_allclose(est.translation, t_gt.translation, atol=1e-6)


def test_ego_motion_default_slack_is_two_tau(rng):
    cloud = _featured_cloud(rng, n=200)
    moved = apply_transform(make_transform(rng, max_angle_deg=5.0, max_translation=0.5), cloud)
    mask = _everywhere(cloud)
    got = [
        estimate_ego_motion(
            cloud, moved, mask, mask, tau=0.05, n_sample=1024, slack_d0=d0, iterations=3,
            rng=np.random.default_rng(6),
        )
        for d0 in (None, 0.1)
    ]
    assert got[0].rotation.tobytes() == got[1].rotation.tobytes()
    assert got[0].translation.tobytes() == got[1].translation.tobytes()


def test_ego_motion_needs_three_masked_rows_a_side(rng):
    cloud = _featured_cloud(rng, n=20)
    mask = np.zeros(20, dtype=bool)
    mask[:2] = True
    with pytest.raises(ValueError, match="at least 3 background points"):
        estimate_ego_motion(
            cloud, cloud, _everywhere(cloud), mask, **EGO_ARGS, rng=np.random.default_rng(0)
        )


# ------------------------------------------------------- fit_cluster_transform


def test_fit_cluster_zero_flow_gives_identity(rng):
    pts = PointCloud(rng.normal(size=(20, 3)))
    out = fit_cluster_transform(pts, FlowField(np.zeros((20, 3))))
    np.testing.assert_allclose(out.rotation, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(out.translation, np.zeros(3), atol=1e-10)


def test_fit_cluster_recovers_generating_transform(rng):
    pts = PointCloud(rng.normal(size=(30, 3)))
    t_gt = make_transform(rng)
    flow = FlowField(apply_transform(t_gt, pts).points - pts.points)
    out = fit_cluster_transform(pts, flow)
    np.testing.assert_allclose(out.rotation, t_gt.rotation, atol=1e-8)
    np.testing.assert_allclose(out.translation, t_gt.translation, atol=1e-8)


def test_fit_cluster_noisy_flow_monte_carlo(rng):
    # Monte-Carlo oracle: the refit flow's RMS gap to the clean rigid flow
    # stays below the injected noise level
    sigma = 0.01
    for _ in range(100):
        pts = PointCloud(rng.normal(scale=2.0, size=(30, 3)))
        t_gt = make_transform(rng, max_angle_deg=20.0, max_translation=1.0)
        clean = apply_transform(t_gt, pts).points - pts.points
        noisy = clean + rng.normal(scale=sigma, size=clean.shape)
        out = fit_cluster_transform(pts, FlowField(noisy))
        induced = out.apply(pts.points) - pts.points
        rms = np.sqrt(np.mean(np.sum((induced - clean) ** 2, axis=1)))
        assert rms <= sigma
