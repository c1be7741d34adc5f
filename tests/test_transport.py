import numpy as np
import pytest
from scipy.spatial.distance import cdist

from rigidflow.geom import PointCloud
from rigidflow.transport import (
    _BLOCK_ROWS,
    AssignmentMatrix,
    _logit_operands,
    pruned_soft_correspondences,
    sinkhorn,
    soft_flow,
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


# ------------------------------------------------------- the dense reference


def dense_assignment(features_x, features_y, tau, slack_logit=None, iterations=3):
    """The dense soft assignment that `pruned_soft_correspondences` and
    `soft_flow` both stand in for, as an (N+1) x (M+1) `AssignmentMatrix`.

    The logits -||f_i - g_j|| / tau come from `_logit_operands`, multiplied
    `_BLOCK_ROWS` rows at a time as both forms do, so all three share the
    Gram-expansion rounding; every slack entry starts at `slack_logit` (no
    mass without one). Each real row is shifted by its largest logit, slack
    included, and exponentiated; then one row sweep runs when `iterations`
    is 0, and `sinkhorn` otherwise. Raises "degenerate affinity" for a NaN
    logit (features too large to square) or a real row or column with no
    mass, and the errors of `_logit_operands`.
    """
    a, b = _logit_operands(features_x, features_y, tau)
    n, m = len(a), b.shape[1]
    squares = np.concatenate([a[i : i + _BLOCK_ROWS] @ b for i in range(0, n, _BLOCK_ROWS)])
    logits = np.full((n + 1, m + 1), -np.inf if slack_logit is None else slack_logit)
    logits[:n, :m] = -np.sqrt(np.maximum(squares, 0.0))
    logits[:n] -= logits[:n].max(axis=1, keepdims=True)
    v = np.exp(logits)
    if np.isnan(v).any():
        raise ValueError("degenerate affinity")
    if iterations:
        return sinkhorn(AssignmentMatrix(v, n, m), iterations)
    v[:n] /= v[:n].sum(axis=1, keepdims=True)
    return AssignmentMatrix(v, n, m)


def dense_correspondences(a, target, source):
    """Each real row's barycentric match in `target` over the real columns,
    and its weight, the row's real mass; a row with none gets weight 0 and
    its source point."""
    weights = a.real.sum(axis=1)
    dead = weights == 0
    points = (a.real @ target.points) / np.where(dead, 1.0, weights)[:, None]
    points[dead] = source.points[dead]
    return PointCloud(points), weights


def _logits(fx, fy, tau):
    return np.array([[-np.linalg.norm(f - g) / tau for g in fy] for f in fx])


def _slack_ratio(a):
    """Each real entry over its row's slack entry, i.e. exp(L_ij - s)."""
    return a.real / a.values[: a.n_rows, a.n_cols :]


def test_affinity_identical_features_give_one():
    f = np.array([[1.0, 2.0, 3.0]])
    a = dense_assignment(f, f, tau=0.5, slack_logit=0.0, iterations=0)
    assert _slack_ratio(a)[0, 0] == pytest.approx(1.0)


def test_affinity_at_distance_tau_is_exp_minus_one():
    fx = np.array([[0.0]])
    fy = np.array([[0.25]])
    a = dense_assignment(fx, fy, tau=0.25, slack_logit=0.0, iterations=0)
    assert _slack_ratio(a)[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_affinity_matches_double_loop_oracle(rng):
    fx = rng.normal(size=(4, 6))
    fy = rng.normal(size=(5, 6))
    tau = 0.3
    logits = _logits(fx, fy, tau)
    # without slack, one row sweep is the row softmax and slack holds no mass
    a = dense_assignment(fx, fy, tau, iterations=0)
    for i in range(4):
        expected = np.exp(logits[i] - logits[i].max())
        expected /= expected.sum()
        np.testing.assert_allclose(a.real[i], expected, rtol=1e-12, atol=0)
    assert not a.values[4].any() and not a.values[:, 5].any()
    # with slack, every real entry stands to its slack entry as exp(L_ij - s)
    s = -1.7
    b = dense_assignment(fx, fy, tau, slack_logit=s, iterations=0)
    np.testing.assert_allclose(_slack_ratio(b), np.exp(logits - s), rtol=1e-12, atol=0)


def test_affinity_nonpositive_temperature():
    f = np.zeros((2, 3))
    with pytest.raises(ValueError, match="nonpositive temperature"):
        _logit_operands(f, f, tau=0.0)


def test_affinity_symmetric_up_to_transpose(rng):
    fx = rng.normal(size=(4, 3))
    fy = rng.normal(size=(6, 3))
    a = dense_assignment(fx, fy, 0.2, slack_logit=0.0, iterations=0)
    b = dense_assignment(fy, fx, 0.2, slack_logit=0.0, iterations=0)
    np.testing.assert_allclose(_slack_ratio(a), _slack_ratio(b).T, rtol=1e-13, atol=0)


def test_affinity_softens_with_larger_tau(rng):
    # every off-best ratio moves strictly toward 1 when tau grows
    fx = rng.normal(size=(5, 4))
    fy = rng.normal(size=(7, 4))
    lo = dense_assignment(fx, fy, 0.1, iterations=0).real
    hi = dense_assignment(fx, fy, 0.5, iterations=0).real
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
    out = dense_assignment(fx, fy, tau, slack_logit=s, iterations=3)
    np.testing.assert_allclose(out.values, expected.values, rtol=1e-12, atol=0)


def test_soft_assignment_recovers_permutation_below_underflow(rng):
    # match gap 0.5 against 0.6 at tau 0.005: every real affinity is below
    # 1e-30, yet the logit differences still single out the permutation, in
    # the slack-free flow head and in the slack-augmented ego transport
    n, tau = 8, 0.005
    perm = rng.permutation(n)
    fy = 1.1 * np.arange(n, dtype=float)[:, None]
    fx = fy[perm] + 0.5
    assert _logits(fx, fy, tau).max() < np.log(1e-30)
    x = PointCloud(rng.normal(size=(n, 3)), features=fx)
    y = PointCloud(rng.normal(size=(n, 3)), features=fy)
    flowed = x.points + soft_flow(x, y, tau).vectors
    np.testing.assert_allclose(flowed, y.points[perm], rtol=0, atol=1e-6)
    matched, weights = pruned_soft_correspondences(x, y, tau, slack_logit=-2.0, iterations=3)
    np.testing.assert_allclose(matched.points, y.points[perm], rtol=0, atol=1e-6)
    assert np.all(weights > 0)


def test_soft_assignment_row_beyond_reach_goes_to_slack():
    # every real logit sits 1000 below the slack logit: the row max includes
    # the slack, so the row keeps its mass there instead of overflowing, and
    # the pruned form hands the row its own source point
    source = PointCloud([[5.0, 6.0, 7.0]], features=[[0.0]])
    target = PointCloud(np.zeros((2, 3)), features=[[10.0], [11.0]])
    a = dense_assignment(source.features, target.features, 0.01, slack_logit=0.0, iterations=0)
    np.testing.assert_array_equal(a.values[0], [0.0, 0.0, 1.0])
    points, weights = pruned_soft_correspondences(source, target, 0.01, 0.0, iterations=0)
    assert weights[0] == 0.0
    np.testing.assert_array_equal(points.points[0], [5.0, 6.0, 7.0])


def test_soft_assignment_rejects_mismatched_features():
    with pytest.raises(ValueError, match="equal D"):
        _logit_operands(np.zeros((2, 3)), np.zeros((2, 4)), tau=0.1)


@pytest.mark.parametrize("noise", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("seed", [0, 1])
def test_soft_assignment_distances_match_cdist_on_near_duplicates(noise, seed):
    # Unit-norm features against a noisy permutation of themselves: the
    # near-duplicate pairs are where the Gram-expansion distance loses the
    # most to cancellation.
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(500, 32))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    g = f[rng.permutation(500)] + noise * rng.normal(size=f.shape)
    tau = 0.005
    a, b = _logit_operands(f, g, tau)
    distances = tau * np.sqrt(np.maximum(a @ b, 0.0))
    assert np.abs(distances - cdist(f, g)).max() <= 1e-7


def _double_loop_reference(fx, fy, tau, slack_logit, iterations):
    """Double-loop logits, one row shift (slack included), then one row sweep
    when iterations is 0 and `reference_sinkhorn` otherwise."""
    n, m = len(fx), len(fy)
    full = np.full((n + 1, m + 1), -np.inf if slack_logit is None else slack_logit)
    full[:n, :m] = _logits(fx, fy, tau)
    full[:n] -= full[:n].max(axis=1, keepdims=True)
    full = np.exp(full)
    if iterations == 0:
        full[:n] /= full[:n].sum(axis=1, keepdims=True)
        return full
    return reference_sinkhorn(full, n, m, iterations)


@pytest.mark.parametrize("slack_logit", [None, -2.0])
@pytest.mark.parametrize("iterations", [0, 1, 3])
@pytest.mark.parametrize(
    "n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]
)
def test_blocked_soft_assignment_matches_dense_reference(n, iterations, slack_logit):
    # the reference the pruned form and the flow head are checked against
    # must itself agree with the scalar double loop; row counts around the
    # block height catch a lost, repeated or shifted block of its products
    rng = np.random.default_rng(n)
    fx = rng.normal(size=(n, 6))
    fy = rng.normal(size=(40, 6))
    out = dense_assignment(fx, fy, 0.5, slack_logit=slack_logit, iterations=iterations)
    expected = _double_loop_reference(fx, fy, 0.5, slack_logit, iterations)
    np.testing.assert_allclose(out.values, expected, rtol=1e-10, atol=0)


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


def test_assignment_matrix_rejects_negative_entries():
    v = np.full((3, 4), 0.5)
    v[1, 3] = -1e-300
    with pytest.raises(ValueError, match="nonnegative"):
        AssignmentMatrix(v, n_rows=2, n_cols=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_assignment_matrix_rejects_non_finite_entries(bad):
    # NaN passes a `min() < 0` test, and inf would reach the sweeps and the
    # match reads as non-finite sums
    v = np.full((3, 4), 0.5)
    v[0, 1] = bad
    with pytest.raises(ValueError, match="assignment entries must be finite"):
        AssignmentMatrix(v, n_rows=2, n_cols=3)


def test_sinkhorn_rejects_zero_rows():
    v = np.zeros((3, 3))
    v[0, 0] = 1.0
    a = AssignmentMatrix(v, n_rows=2, n_cols=2)
    with pytest.raises(ValueError, match="degenerate affinity"):
        sinkhorn(a, iterations=3)


def test_sinkhorn_rejects_column_too_light_to_scale():
    # the column's mass is subnormal, so its scale 1 / mass is not a finite double
    v = np.zeros((3, 3))
    v[:2, :2] = [[1.0, 1e-310], [1.0, 1e-310]]
    with pytest.raises(ValueError, match="degenerate affinity"):
        sinkhorn(AssignmentMatrix(v, n_rows=2, n_cols=2), iterations=1)


def test_sinkhorn_output_stays_positive(rng):
    v = rng.uniform(1e-12, 1.0, size=(5, 5))
    full = np.full((6, 6), 1e-6)
    full[:5, :5] = v
    out = sinkhorn(AssignmentMatrix(full, 5, 5), iterations=3)
    assert np.all(out.values > 0)


# ---------------------------------------------------- soft correspondences


def test_soft_correspondences_hard_one_hot():
    # at a small temperature each row's mass sits on its one nearest target,
    # in the pruned form and in the flow head alike
    source = PointCloud(np.zeros((2, 3)), features=[[1.0], [2.0]])
    target = PointCloud(
        [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], features=[[0.0], [1.0], [2.0]]
    )
    points, weights = pruned_soft_correspondences(source, target, 0.01, -800.0, iterations=0)
    np.testing.assert_allclose(points.points, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], atol=1e-12)
    np.testing.assert_allclose(weights, [1.0, 1.0], atol=1e-12)
    flow = soft_flow(source, target, 0.01)
    np.testing.assert_allclose(flow.vectors, points.points, atol=1e-12)


def test_soft_correspondences_all_slack_gives_zero_weight():
    # the second row is beyond reach of every target: through the sweeps all
    # its mass stays on slack, and it keeps its own source point
    source = PointCloud([[0.0, 0.0, 0.0], [9.0, 9.0, 9.0]], features=[[0.0], [100.0]])
    target = PointCloud([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], features=[[0.0], [0.5]])
    points, weights = pruned_soft_correspondences(source, target, 0.01, 0.0, iterations=3)
    assert weights[0] > 0.0
    assert weights[1] == 0.0
    np.testing.assert_array_equal(points.points[1], [9.0, 9.0, 9.0])


def test_soft_correspondences_uniform_row_gives_midpoint():
    # a source feature equidistant from two targets splits its row evenly
    source = PointCloud(np.zeros((1, 3)), features=[[1.0]])
    target = PointCloud([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]], features=[[0.0], [2.0]])
    points, weights = pruned_soft_correspondences(source, target, 0.5, -800.0, iterations=0)
    np.testing.assert_allclose(points.points[0], [1.0, 0.0, 0.0], atol=1e-15)
    assert weights[0] == pytest.approx(1.0)
    np.testing.assert_allclose(soft_flow(source, target, 0.5).vectors[0], [1.0, 0.0, 0.0], atol=1e-15)


def test_soft_correspondences_permutation_reproduces_target(rng):
    n = 8
    perm = rng.permutation(n)
    g = rng.normal(size=(n, 6))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    target = PointCloud(rng.normal(size=(n, 3)), features=g)
    source = PointCloud(np.zeros((n, 3)), features=g[perm])
    points, weights = pruned_soft_correspondences(source, target, 0.005, -40.0)
    np.testing.assert_allclose(points.points, target.points[perm], atol=1e-12)
    np.testing.assert_allclose(weights, np.ones(n), atol=1e-12)


@pytest.mark.parametrize("n, m", [(1, 1), (7, 12), (130, 90)])
def test_soft_correspondences_match_two_reads_of_the_real_block(rng, n, m):
    # at a warm temperature the pruned plan keeps every entry: its weights
    # and match points are the row sums and barycentres of the dense real
    # block, with the slack mass left out; row 0 is beyond reach, so dead
    fx = rng.normal(size=(n, 6))
    fx[0] += 1e3
    fy = rng.normal(size=(m, 6))
    source = PointCloud(rng.normal(size=(n, 3)), features=fx)
    target = PointCloud(rng.normal(size=(m, 3)) * 10.0, features=fy)
    points, weights = pruned_soft_correspondences(source, target, 0.4, -1.0)

    real = dense_assignment(fx, fy, 0.4, slack_logit=-1.0).real
    want_w = real.sum(axis=1)
    live = want_w > 0
    np.testing.assert_allclose(weights, want_w, rtol=1e-12, atol=0)
    np.testing.assert_allclose(
        points.points[live], (real[live] @ target.points) / want_w[live, None], rtol=0, atol=1e-12
    )
    np.testing.assert_array_equal(points.points[0], source.points[0])
    assert weights[0] == 0.0


def test_sinkhorn_weights_in_unit_interval(rng):
    source = PointCloud(rng.normal(size=(10, 3)), features=rng.normal(size=(10, 5)))
    target = PointCloud(rng.normal(size=(12, 3)), features=rng.normal(size=(12, 5)))
    _, weights = pruned_soft_correspondences(source, target, 0.3, np.log(0.2), iterations=3)
    assert np.all(weights >= 0.0) and np.all(weights <= 1.0 + 1e-12)


# ---------------------------------------------- pruned soft correspondences


def _dense_correspondences(source, target, tau, slack_logit, iterations):
    """The dense pair the pruned plan stands in for, or the error it raises."""
    try:
        a = dense_assignment(
            source.features, target.features, tau, slack_logit=slack_logit, iterations=iterations
        )
    except ValueError as err:
        return err
    return dense_correspondences(a, target, source)


def _ego_like_pair(n, regime):
    """n source samples against a moved target: 3/4 of the rows have a noisy
    counterpart, the rest and the target's extra rows match nothing, and one
    source row sits beyond reach of every target, so all its mass is slack."""
    rng = np.random.default_rng(n)
    points = rng.uniform(-20.0, 20.0, size=(n, 3))
    matched = rng.permutation(n)[: max(1, 3 * n // 4)]
    target_points = np.concatenate([points[matched] + 1.0, rng.uniform(-20.0, 20.0, size=(9, 3))])
    if regime == "xyz":  # raw coordinates as features: tau is then a distance
        features = points.copy()
        target_features = target_points + 0.003 * rng.normal(size=target_points.shape)
    else:  # unit descriptors with noise sigma per dimension
        features = rng.normal(size=(n, 16))
        features /= np.linalg.norm(features, axis=1, keepdims=True)
        extra = rng.normal(size=(9, 16))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        target_features = np.concatenate([features[matched], extra])
        target_features += regime * rng.normal(size=target_features.shape)
    features[0] += 1e3
    return (
        PointCloud(points, features=features),
        PointCloud(target_points, features=target_features),
    )


@pytest.mark.parametrize("iterations", [1, 3])
@pytest.mark.parametrize("slack_logit", [-800.0, -40.0, -2.0, 0.0, 3.0])
@pytest.mark.parametrize(
    "n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3, 1024]
)
def test_pruned_correspondences_match_the_dense_pair(n, slack_logit, iterations):
    # the bound was fixed before the pruned kernel was written: the dropped
    # entries are below 2^-64 of what they could move, so only rounding remains
    for regime in (0.0, 0.05, 0.2, "xyz"):
        source, target = _ego_like_pair(n, regime)
        want = _dense_correspondences(source, target, 0.005, slack_logit, iterations)
        if isinstance(want, ValueError):
            with pytest.raises(ValueError, match=str(want)):
                pruned_soft_correspondences(source, target, 0.005, slack_logit, iterations)
            continue
        points, weights = pruned_soft_correspondences(
            source, target, 0.005, slack_logit, iterations
        )
        # a subnormal weight (far rows of the xyz regime) has too few bits
        # for a relative bound in either form; it must stay subnormal
        normal = want[1] >= np.finfo(float).tiny
        np.testing.assert_allclose(weights[normal], want[1][normal], rtol=1e-12, atol=0)
        assert np.all(weights[~normal] < np.finfo(float).tiny)
        np.testing.assert_allclose(
            points.points[normal], want[0].points[normal], rtol=0, atol=1e-12
        )
        assert weights[0] == 0.0
        np.testing.assert_array_equal(points.points[0], source.points[0])


@pytest.mark.parametrize(
    "fx, fy, tau, slack_logit, message",
    [
        # features too large to square: the Gram expansion gives inf - inf
        ([[0.0], [1e200]], [[0.0], [1e200]], 0.1, -2.0, "degenerate affinity"),
        # the second target column is out of reach of every row, and the
        # slack row's exp(-800) underflows, so that column has no mass
        ([[0.0], [0.01]], [[0.0], [50.0]], 0.005, -800.0, "degenerate affinity"),
        ([[0.0]], [[0.0]], 0.0, -2.0, "nonpositive temperature"),
        ([[0.0]], [[0.0, 1.0]], 0.1, -2.0, "equal D"),
    ],
)
def test_pruned_correspondences_raise_where_the_dense_pair_raises(fx, fy, tau, slack_logit, message):
    fx, fy = np.array(fx), np.array(fy)
    source = PointCloud(np.zeros((len(fx), 3)), features=fx)
    target = PointCloud(np.zeros((len(fy), 3)), features=fy)
    with np.errstate(over="ignore", invalid="ignore"):  # the 1e200 case, in both forms
        assert message in str(_dense_correspondences(source, target, tau, slack_logit, 3))
        with pytest.raises(ValueError, match=message):
            pruned_soft_correspondences(source, target, tau, slack_logit, 3)
