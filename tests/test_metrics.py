import numpy as np
import pytest

from rigidflow.geom import FlowField, RigidTransform, rotation_about_axis
from rigidflow.metrics import ego_metrics, flow_metrics

from conftest import make_transform


def reference_flow_metrics(pred, gt):
    """Scalar-loop oracle for the per-point error logic."""
    errors, rels = [], []
    for p, g in zip(pred, gt):
        e = np.linalg.norm(p - g)
        n = np.linalg.norm(g)
        errors.append(e)
        rels.append(e / n if n > 0 else np.inf)
    errors = np.array(errors)
    rels = np.array(rels)
    return {
        "epe3d_mean": float(np.mean(errors)),
        "epe3d_median": float(np.median(errors)),
        "acc3ds": float(np.mean((errors < 0.05) | (rels < 0.05))),
        "acc3dr": float(np.mean((errors < 0.10) | (rels < 0.10))),
        "outliers": float(np.mean((errors > 0.30) | (rels > 0.10))),
    }


def test_perfect_prediction(rng):
    gt = FlowField(rng.normal(size=(40, 3)))
    m = flow_metrics(gt, gt)
    assert m.epe3d_mean == 0.0
    assert m.acc3ds == 1.0 and m.acc3dr == 1.0
    assert m.outliers == 0.0


def test_relative_error_path():
    # 0.07 m absolute error on a 10 m flow: fails the strict absolute gate but
    # passes via relative error 0.007
    gt = FlowField(np.tile([10.0, 0.0, 0.0], (5, 1)))
    pred = FlowField(gt.vectors + np.array([0.0, 0.07, 0.0]))
    m = flow_metrics(pred, gt)
    assert m.acc3ds == 1.0
    assert m.outliers == 0.0


def test_zero_norm_gt_uses_absolute_threshold_only():
    gt = FlowField(np.zeros((2, 3)))
    pred = FlowField(np.array([[0.01, 0.0, 0.0], [0.4, 0.0, 0.0]]))
    m = flow_metrics(pred, gt)
    assert m.acc3ds == 0.5  # first point passes absolutely; second cannot
    assert m.outliers == 1.0  # relative error is infinite for both


def test_matches_elementwise_oracle(rng):
    pred = rng.normal(scale=0.2, size=(1000, 3))
    gt = rng.normal(scale=0.2, size=(1000, 3))
    m = flow_metrics(FlowField(pred), FlowField(gt))
    ref = reference_flow_metrics(pred, gt)
    for name, value in ref.items():
        assert getattr(m, name) == value, name


def test_permutation_invariance(rng):
    pred = rng.normal(size=(50, 3))
    gt = rng.normal(size=(50, 3))
    perm = rng.permutation(50)
    a = flow_metrics(FlowField(pred), FlowField(gt))
    b = flow_metrics(FlowField(pred[perm]), FlowField(gt[perm]))
    assert a.epe3d_mean == pytest.approx(b.epe3d_mean, abs=1e-15)
    assert a.acc3ds == b.acc3ds and a.outliers == b.outliers


def test_scaling_behaviour(rng):
    pred = rng.normal(size=(200, 3))
    gt = rng.normal(size=(200, 3))
    base = flow_metrics(FlowField(pred), FlowField(gt))
    scaled = flow_metrics(FlowField(3.0 * pred), FlowField(3.0 * gt))
    assert scaled.epe3d_mean == pytest.approx(3.0 * base.epe3d_mean, rel=1e-12)
    # relative-error gates are scale-free; absolute gates change, so the
    # combined ratios must match the oracle rather than any assumed identity
    ref = reference_flow_metrics(3.0 * pred, 3.0 * gt)
    assert scaled.acc3ds == ref["acc3ds"]
    assert scaled.acc3dr == ref["acc3dr"]
    assert scaled.outliers == ref["outliers"]


def test_flow_metrics_validates_lengths(rng):
    with pytest.raises(ValueError):
        flow_metrics(FlowField(np.zeros((3, 3))), FlowField(np.zeros((4, 3))))


def test_ego_metrics_zero_for_same_transform(rng):
    t = make_transform(rng)
    m = ego_metrics(t, t)
    assert m.rre == pytest.approx(0.0, abs=1e-6)
    assert m.rte == 0.0


def test_ego_metrics_one_degree_about_z():
    est = RigidTransform(rotation_about_axis([0, 0, 1], np.radians(1.0)), np.zeros(3))
    m = ego_metrics(est, RigidTransform.identity())
    assert m.rre == pytest.approx(1.0, abs=1e-9)
    assert m.rte == 0.0


def test_ego_metrics_matches_quaternion_oracle(rng):
    # oracle: geodesic angle via the quaternion double cover
    def quat_angle(r):
        # rotation matrix -> quaternion w component
        w = np.sqrt(max(0.0, 1.0 + np.trace(r))) / 2.0
        return np.degrees(2.0 * np.arccos(np.clip(w, -1.0, 1.0)))

    for _ in range(25):
        est, gt = make_transform(rng, max_angle_deg=90.0), make_transform(rng, max_angle_deg=90.0)
        m = ego_metrics(est, gt)
        expected = quat_angle(gt.rotation.T @ est.rotation)
        assert m.rre == pytest.approx(expected, abs=1e-9)
        assert m.rte == pytest.approx(
            np.linalg.norm(gt.translation - est.translation), abs=1e-12
        )

