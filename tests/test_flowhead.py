import tracemalloc

import numpy as np
import pytest

from rigidflow.geom import PointCloud
from rigidflow.transport import _BLOCK_ROWS, soft_flow
from test_transport import dense_assignment, dense_correspondences


def _cloud(points, features):
    return PointCloud(np.asarray(points, float), features=np.asarray(features, float))


def test_soft_flow_self_correspondence_near_zero(rng):
    pts = rng.normal(size=(20, 3))
    feats = rng.normal(size=(20, 8))
    x = _cloud(pts, feats)
    out = soft_flow(x, x, tau_flow=1e-3)
    np.testing.assert_allclose(out.vectors, np.zeros_like(pts), atol=1e-9)


def test_soft_flow_translation_oracle(rng):
    pts = rng.normal(size=(30, 3))
    feats = rng.normal(size=(30, 8))
    x = _cloud(pts, feats)
    y = _cloud(pts + np.array([1.0, 0.0, 0.0]), feats)
    out = soft_flow(x, y, tau_flow=1e-3)
    np.testing.assert_allclose(out.vectors, np.tile([1.0, 0.0, 0.0], (30, 1)), atol=1e-6)


def test_soft_flow_matches_double_loop_oracle(rng):
    xp = rng.normal(size=(5, 3))
    yp = rng.normal(size=(7, 3))
    fx = rng.normal(size=(5, 4))
    fy = rng.normal(size=(7, 4))
    tau = 0.2
    out = soft_flow(_cloud(xp, fx), _cloud(yp, fy), tau)
    for i in range(5):
        logits = np.array([-np.linalg.norm(fx[i] - fy[j]) / tau for j in range(7)])
        w = np.exp(logits - logits.max())
        w /= w.sum()
        expected = (w[:, None] * yp).sum(axis=0) - xp[i]
        np.testing.assert_allclose(out.vectors[i], expected, atol=1e-10)


def test_soft_flow_rows_sum_to_one(rng):
    # checked through the flow of a constant target: result must equal the
    # single target point minus each source point exactly if weights sum to 1
    xp = rng.normal(size=(10, 3))
    fx = rng.normal(size=(10, 4))
    y = _cloud([[2.0, 1.0, 0.0]], rng.normal(size=(1, 4)))
    out = soft_flow(_cloud(xp, fx), y, tau_flow=0.7)
    np.testing.assert_allclose(out.vectors, np.array([2.0, 1.0, 0.0]) - xp, atol=1e-12)


def test_soft_flow_small_tau_matches_hard_argmin(rng):
    xp = rng.normal(size=(15, 3))
    yp = rng.normal(size=(20, 3))
    fx = rng.normal(size=(15, 6))
    fy = rng.normal(size=(20, 6))
    out = soft_flow(_cloud(xp, fx), _cloud(yp, fy), tau_flow=1e-6)
    for i in range(15):
        j = np.argmin([np.linalg.norm(fx[i] - fy[j]) for j in range(20)])
        np.testing.assert_allclose(out.vectors[i], yp[j] - xp[i], atol=1e-9)


def test_soft_flow_bounded_by_cloud_diameter(rng):
    xp = rng.uniform(-2.0, 2.0, size=(25, 3))
    yp = rng.uniform(-2.0, 2.0, size=(25, 3))
    out = soft_flow(
        _cloud(xp, rng.normal(size=(25, 4))), _cloud(yp, rng.normal(size=(25, 4))), 0.5
    )
    both = np.vstack([xp, yp])
    diameter = np.linalg.norm(both[:, None] - both[None, :], axis=2).max()
    assert np.linalg.norm(out.vectors, axis=1).max() <= diameter + 1e-12


def test_soft_flow_validates_inputs(rng):
    x = _cloud(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
    with pytest.raises(ValueError):
        soft_flow(x, x, tau_flow=0.0)
    bare = PointCloud(rng.normal(size=(4, 3)))
    with pytest.raises(ValueError):
        soft_flow(bare, x, tau_flow=0.1)
    wide = _cloud(rng.normal(size=(4, 3)), rng.normal(size=(4, 5)))
    with pytest.raises(ValueError, match="equal D"):
        soft_flow(x, wide, tau_flow=0.1)
    empty = _cloud(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(ValueError, match="degenerate affinity"):
        soft_flow(x, empty, tau_flow=0.1)


@pytest.mark.parametrize(
    "n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]
)
def test_streamed_soft_flow_matches_dense_assignment(n):
    # the dense path holds the whole row-softmax matrix; the bound was set
    # before the streamed flow head was written
    rng = np.random.default_rng(n)
    x = _cloud(rng.normal(size=(n, 3)), rng.normal(size=(n, 6)))
    y = _cloud(rng.normal(size=(n + 7, 3)), rng.normal(size=(n + 7, 6)))
    plan = dense_assignment(x.features, y.features, 0.5, iterations=0)
    matched, _ = dense_correspondences(plan, y, x)
    out = soft_flow(x, y, tau_flow=0.5)
    np.testing.assert_allclose(out.vectors, matched.points - x.points, rtol=0, atol=1e-12)


def test_soft_flow_never_holds_the_full_matrix():
    # a dense 2000 x 2000 float64 matrix alone would take 32 MB
    rng = np.random.default_rng(0)
    f = rng.normal(size=(2000, 32))
    g = rng.normal(size=(2000, 32))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    x = _cloud(rng.normal(size=(2000, 3)), f)
    y = _cloud(rng.normal(size=(2000, 3)), g)
    tracemalloc.start()
    try:
        soft_flow(x, y, tau_flow=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20

