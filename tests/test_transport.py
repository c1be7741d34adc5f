import numpy as np
import pytest
from scipy.spatial.distance import cdist

from rigidflow.geom import PointCloud
from rigidflow.transport import (
    AssignmentMatrix,
    sinkhorn,
    soft_assignment,
    soft_correspondences,
)

def reference_sinkhorn(values, n, m, iterations):
    """Independent scalar-loop implementation of the normalization scheme."""
    v = np.array(values, dtype=float)
    for _ in range(iterations):
        for i in range(n):
            v[i] = v[i] / v[i].sum()
        for j in range(m):
            v[:, j] = v[:, j] / v[:, j].sum()
    return v


# -------------------------------------------------------- soft_assignment


def _logits(fx, fy, tau):
    return np.array([[-np.linalg.norm(f - g) / tau for g in fy] for f in fx])


def _slack_ratio(a):
    """Each real entry over its row's slack entry, i.e. exp(L_ij - s)."""
    return a.real / a.values[: a.n_rows, a.n_cols :]


def test_affinity_identical_features_give_one():
    f = np.array([[1.0, 2.0, 3.0]])
    a = soft_assignment(f, f, tau=0.5, slack_logit=0.0, iterations=0)
    assert _slack_ratio(a)[0, 0] == pytest.approx(1.0)


def test_affinity_at_distance_tau_is_exp_minus_one():
    fx = np.array([[0.0]])
    fy = np.array([[0.25]])
    a = soft_assignment(fx, fy, tau=0.25, slack_logit=0.0, iterations=0)
    assert _slack_ratio(a)[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_affinity_matches_double_loop_oracle(rng):
    fx = rng.normal(size=(4, 6))
    fy = rng.normal(size=(5, 6))
    tau = 0.3
    logits = _logits(fx, fy, tau)
    # without slack, one row sweep is the row softmax and slack holds no mass
    a = soft_assignment(fx, fy, tau, iterations=0)
    for i in range(4):
        expected = np.exp(logits[i] - logits[i].max())
        expected /= expected.sum()
        np.testing.assert_allclose(a.real[i], expected, rtol=1e-12, atol=0)
    assert not a.values[4].any() and not a.values[:, 5].any()
    # with slack, every real entry stands to its slack entry as exp(L_ij - s)
    s = -1.7
    b = soft_assignment(fx, fy, tau, slack_logit=s, iterations=0)
    np.testing.assert_allclose(_slack_ratio(b), np.exp(logits - s), rtol=1e-12, atol=0)


def test_affinity_nonpositive_temperature():
    f = np.zeros((2, 3))
    with pytest.raises(ValueError, match="nonpositive temperature"):
        soft_assignment(f, f, tau=0.0)


def test_affinity_symmetric_up_to_transpose(rng):
    fx = rng.normal(size=(4, 3))
    fy = rng.normal(size=(6, 3))
    a = soft_assignment(fx, fy, 0.2, slack_logit=0.0, iterations=0)
    b = soft_assignment(fy, fx, 0.2, slack_logit=0.0, iterations=0)
    np.testing.assert_allclose(_slack_ratio(a), _slack_ratio(b).T, rtol=1e-13, atol=0)


def test_affinity_softens_with_larger_tau(rng):
    # every off-best ratio moves strictly toward 1 when tau grows
    fx = rng.normal(size=(5, 4))
    fy = rng.normal(size=(7, 4))
    lo = soft_assignment(fx, fy, 0.1, iterations=0).real
    hi = soft_assignment(fx, fy, 0.5, iterations=0).real
    best_lo = lo.max(axis=1, keepdims=True)
    best_hi = hi.max(axis=1, keepdims=True)
    ratio_lo = lo / best_lo
    ratio_hi = hi / best_hi
    off_best = lo < best_lo
    assert np.all(ratio_hi[off_best] > ratio_lo[off_best])
    assert np.all(ratio_hi[off_best] < 1.0)


def test_soft_assignment_equals_sinkhorn_of_exponentiated_logits(rng):
    # where no affinity underflows, the row shift cancels in the first sweep
    fx = rng.normal(size=(9, 5))
    fy = rng.normal(size=(11, 5))
    tau, s = 0.4, -2.0
    full = np.full((10, 12), np.exp(s))
    full[:9, :11] = np.exp(_logits(fx, fy, tau))
    expected = sinkhorn(AssignmentMatrix(full, 9, 11), iterations=3)
    out = soft_assignment(fx, fy, tau, slack_logit=s, iterations=3)
    np.testing.assert_allclose(out.values, expected.values, rtol=1e-12, atol=0)


def test_soft_assignment_recovers_permutation_below_underflow(rng):
    # match gap 0.5 against 0.6 at tau 0.005: every real affinity is below
    # 1e-30, yet the logit differences still single out the permutation
    n, tau = 8, 0.005
    perm = rng.permutation(n)
    fy = 1.1 * np.arange(n, dtype=float)[:, None]
    fx = fy[perm] + 0.5
    assert _logits(fx, fy, tau).max() < np.log(1e-30)
    for slack_logit, iterations in ((None, 0), (-2.0, 3)):
        a = soft_assignment(fx, fy, tau, slack_logit=slack_logit, iterations=iterations)
        assert np.array_equal(a.real.argmax(axis=1), perm)


def test_soft_assignment_rejects_mismatched_features():
    with pytest.raises(ValueError, match="equal D"):
        soft_assignment(np.zeros((2, 3)), np.zeros((2, 4)), tau=0.1)


@pytest.mark.parametrize("noise", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("seed", [0, 1])
def test_soft_assignment_distances_match_cdist_on_near_duplicates(noise, seed):
    # Unit-norm features against a noisy permutation of themselves: the
    # near-duplicate pairs are where the Gram-expansion distance loses the
    # most to cancellation. The logits are read back through the slack ratio
    # exp(L_ij - 0), which stays above underflow for distances up to 2.
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(500, 32))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    g = f[rng.permutation(500)] + noise * rng.normal(size=f.shape)
    tau = 0.005
    a = soft_assignment(f, g, tau, slack_logit=0.0, iterations=0)
    distances = -tau * np.log(_slack_ratio(a))
    assert np.abs(distances - cdist(f, g)).max() <= 1e-7


# ------------------------------------------------------------------ sinkhorn


def test_sinkhorn_fixed_point_for_doubly_stochastic_interior():
    interior = np.array([[0.5, 0.5], [0.5, 0.5]])
    v = np.full((3, 3), 1e-9)
    v[:2, :2] = interior
    a = AssignmentMatrix(v, n_rows=2, n_cols=2)
    out = sinkhorn(a, iterations=3)
    np.testing.assert_allclose(out.real, interior, atol=1e-6)


def test_sinkhorn_two_by_two_against_reference_oracle():
    # frozen from the scalar-loop reference: slack at 0.01 leaves a residual
    # row-sum deviation of ~1.9e-4 after 3 sweeps; the converged run is tighter
    v = np.full((3, 3), 0.01)
    v[:2, :2] = [[1.0, 0.01], [0.01, 1.0]]
    a = AssignmentMatrix(v, n_rows=2, n_cols=2)
    out = sinkhorn(a, iterations=3)
    np.testing.assert_allclose(out.values, reference_sinkhorn(v, 2, 2, 3), atol=1e-12)
    row_dev = np.abs(out.values[:2].sum(axis=1) - 1.0).max()
    col_dev = np.abs(out.values[:, :2].sum(axis=0) - 1.0).max()
    assert col_dev < 1e-12
    assert row_dev < 2e-4
    assert list(out.real.argmax(axis=1)) == [0, 1]  # dominant diagonal preserved


def test_sinkhorn_matches_reference_on_random_input(rng):
    v = rng.uniform(0.05, 1.0, size=(7, 6))
    full = np.full((8, 7), 0.02)
    full[:7, :6] = v
    a = AssignmentMatrix(full, n_rows=7, n_cols=6)
    out = sinkhorn(a, iterations=5)
    np.testing.assert_allclose(out.values, reference_sinkhorn(full, 7, 6, 5), atol=1e-12)


def test_sinkhorn_recovers_permutation_two_points():
    # brute force over the two possible assignments of a 2-point permutation
    for perm in ([0, 1], [1, 0]):
        v = np.full((3, 3), 1e-6)
        for i, j in enumerate(perm):
            v[i, j] = 1.0
        a = AssignmentMatrix(v, n_rows=2, n_cols=2)
        out = sinkhorn(a, iterations=3)
        assert list(out.real.argmax(axis=1)) == perm


def test_sinkhorn_double_stochasticity_well_conditioned(rng):
    # dominant-match affinities with a small slack: both marginals within 1e-6
    n = 64
    perm = rng.permutation(n)
    v = rng.uniform(1e-12, 1e-8, size=(n, n))
    v[np.arange(n), perm] = rng.uniform(0.8, 1.0, size=n)
    full = np.full((n + 1, n + 1), 1e-6)
    full[:n, :n] = v
    out = sinkhorn(AssignmentMatrix(full, n_rows=n, n_cols=n), iterations=3)
    assert np.abs(out.values[:n].sum(axis=1) - 1.0).max() < 1e-6
    assert np.abs(out.values[:, :n].sum(axis=0) - 1.0).max() < 1e-6
    assert np.array_equal(out.real.argmax(axis=1), perm)


def test_sinkhorn_rejects_zero_rows():
    v = np.zeros((3, 3))
    v[0, 0] = 1.0
    a = AssignmentMatrix(v, n_rows=2, n_cols=2)
    with pytest.raises(ValueError, match="degenerate affinity"):
        sinkhorn(a, iterations=3)


def test_sinkhorn_output_stays_positive(rng):
    v = rng.uniform(1e-12, 1.0, size=(5, 5))
    full = np.full((6, 6), 1e-6)
    full[:5, :5] = v
    out = sinkhorn(AssignmentMatrix(full, 5, 5), iterations=3)
    assert np.all(out.values > 0)


# ---------------------------------------------------- soft correspondences


def _normalized(values, n, m):
    return sinkhorn(AssignmentMatrix(values, n_rows=n, n_cols=m), iterations=50)


def test_soft_correspondences_hard_one_hot():
    v = np.full((3, 4), 1e-30)
    v[0, 1] = 1.0
    v[1, 2] = 1.0
    a = AssignmentMatrix(v, n_rows=2, n_cols=3)
    target = PointCloud([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    points, weights = soft_correspondences(a, target)
    np.testing.assert_allclose(points.points[0], [1.0, 2.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(points.points[1], [4.0, 5.0, 6.0], atol=1e-12)
    np.testing.assert_allclose(weights, [1.0, 1.0], atol=1e-12)


def test_soft_correspondences_all_slack_gives_zero_weight():
    v = np.full((2, 3), 0.0)
    v[0, 2] = 1.0  # everything on the slack column
    a = AssignmentMatrix(v, n_rows=1, n_cols=2)
    target = PointCloud([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    source = PointCloud([[9.0, 9.0, 9.0]])
    points, weights = soft_correspondences(a, target, source=source)
    assert weights[0] == 0.0
    np.testing.assert_array_equal(points.points[0], [9.0, 9.0, 9.0])


def test_soft_correspondences_uniform_row_gives_midpoint():
    v = np.zeros((2, 3))
    v[0, 0] = 0.5
    v[0, 1] = 0.5
    a = AssignmentMatrix(v, n_rows=1, n_cols=2)
    target = PointCloud([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    points, weights = soft_correspondences(a, target)
    np.testing.assert_allclose(points.points[0], [1.0, 0.0, 0.0], atol=1e-15)
    assert weights[0] == pytest.approx(1.0)


def test_soft_correspondences_permutation_reproduces_target(rng):
    n = 8
    perm = rng.permutation(n)
    v = np.full((n + 1, n + 1), 1e-30)
    for i, j in enumerate(perm):
        v[i, j] = 1.0
    a = AssignmentMatrix(v, n_rows=n, n_cols=n)
    target = PointCloud(rng.normal(size=(n, 3)))
    points, weights = soft_correspondences(a, target)
    np.testing.assert_allclose(points.points, target.points[perm], atol=1e-12)
    np.testing.assert_allclose(weights, np.ones(n), atol=1e-12)


def test_sinkhorn_weights_in_unit_interval(rng):
    fx = rng.normal(size=(10, 5))
    fy = rng.normal(size=(12, 5))
    a = soft_assignment(fx, fy, 0.3, slack_logit=np.log(0.2), iterations=3)
    _, weights = soft_correspondences(a, PointCloud(rng.normal(size=(12, 3))))
    assert np.all(weights >= 0.0) and np.all(weights <= 1.0 + 1e-12)
