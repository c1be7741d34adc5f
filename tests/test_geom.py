import numpy as np
import pytest

from rigidflow.geom import (
    FlowField,
    PointCloud,
    RigidTransform,
    apply_transform,
    compose,
    invert,
    rotation_about_axis,
    transfer_flow_to_points,
    voxelize,
)

from conftest import make_transform


# ---------------------------------------------------------------- transforms


def test_apply_identity_returns_same_points(rng):
    pc = PointCloud(rng.normal(size=(20, 3)))
    out = apply_transform(RigidTransform.identity(), pc)
    np.testing.assert_array_equal(out.points, pc.points)


def test_apply_z_rotation_quarter_turn():
    t = RigidTransform(rotation_about_axis([0, 0, 1], np.pi / 2), np.zeros(3))
    out = apply_transform(t, PointCloud([[1.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.points[0], [0.0, 1.0, 0.0], atol=1e-15)


def test_apply_matches_homogeneous_matrix_oracle(rng):
    # oracle: 4x4 homogeneous multiply per point
    t = make_transform(rng)
    pts = rng.normal(size=(50, 3))
    h = np.eye(4)
    h[:3, :3] = t.rotation
    h[:3, 3] = t.translation
    expected = np.array([(h @ np.append(p, 1.0))[:3] for p in pts])
    out = apply_transform(t, PointCloud(pts))
    np.testing.assert_allclose(out.points, expected, atol=1e-12)


def test_apply_carries_attributes_unrotated(rng):
    t = make_transform(rng)
    pc = PointCloud(
        rng.normal(size=(5, 3)),
        features=rng.normal(size=(5, 4)),
        fg_prob=rng.uniform(size=5),
        cluster_id=np.arange(5),
        flow=rng.normal(size=(5, 3)),
    )
    out = apply_transform(t, pc)
    np.testing.assert_array_equal(out.features, pc.features)
    np.testing.assert_array_equal(out.fg_prob, pc.fg_prob)
    np.testing.assert_array_equal(out.cluster_id, pc.cluster_id)
    np.testing.assert_array_equal(out.flow, pc.flow)


def test_apply_preserves_pairwise_distances(rng):
    pts = rng.normal(size=(40, 3))
    t = make_transform(rng)
    out = apply_transform(t, PointCloud(pts)).points
    before = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    after = np.linalg.norm(out[:, None] - out[None, :], axis=2)
    np.testing.assert_allclose(after, before, atol=1e-9)


def test_compose_with_identity_and_inverse(rng):
    t = make_transform(rng)
    ident = RigidTransform.identity()
    c = compose(t, ident)
    np.testing.assert_allclose(c.rotation, t.rotation, atol=1e-15)
    np.testing.assert_allclose(c.translation, t.translation, atol=1e-15)
    back = compose(t, invert(t))
    np.testing.assert_allclose(back.rotation, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(back.translation, np.zeros(3), atol=1e-10)


def test_compose_matches_matrix_product_oracle(rng):
    a, b = make_transform(rng), make_transform(rng)
    expected = a.matrix() @ b.matrix()
    got = compose(a, b).matrix()
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_invert_matches_matrix_inverse_oracle(rng):
    t = make_transform(rng)
    np.testing.assert_allclose(invert(t).matrix(), np.linalg.inv(t.matrix()), atol=1e-10)


def test_pure_translation_inverse():
    t = RigidTransform(np.eye(3), [0.0, 0.0, 5.0])
    np.testing.assert_allclose(invert(t).translation, [0.0, 0.0, -5.0], atol=1e-15)


def test_group_axioms_on_random_transforms(rng):
    # associativity and inverse composition against point action
    pts = rng.normal(size=(10, 3))
    for _ in range(20):
        a, b = make_transform(rng), make_transform(rng)
        via_compose = apply_transform(compose(a, b), PointCloud(pts)).points
        via_chain = apply_transform(a, apply_transform(b, PointCloud(pts))).points
        np.testing.assert_allclose(via_compose, via_chain, atol=1e-10)


def test_rotation_invariants_enforced():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(ValueError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # reflection


# ---------------------------------------------------------------- point cloud


def test_point_cloud_rejects_non_finite():
    with pytest.raises(ValueError):
        PointCloud([[0.0, 0.0, np.nan]])


@pytest.mark.parametrize(
    "attribute, value, message",
    [
        ("features", np.nan, "features contain non-finite values"),
        ("features", np.inf, "features contain non-finite values"),
        ("features", -np.inf, "features contain non-finite values"),
        ("fg_prob", np.nan, "fg_prob contains non-finite values"),
        ("fg_prob", 7.0, "fg_prob values must lie in [0, 1]"),
        ("fg_prob", -0.5, "fg_prob values must lie in [0, 1]"),
        ("flow", np.nan, "flow contains non-finite values"),
        ("flow", np.inf, "flow contains non-finite values"),
    ],
)
def test_point_cloud_rejects_bad_attribute_values(attribute, value, message):
    attrs = {"features": np.zeros((4, 2)), "fg_prob": np.full(4, 0.5), "flow": np.zeros((4, 3))}
    attrs[attribute].flat[2] = value
    with pytest.raises(ValueError) as err:
        PointCloud(np.zeros((4, 3)), **attrs)
    assert str(err.value) == message


def test_point_cloud_accepts_probability_bounds():
    pc = PointCloud(np.zeros((2, 3)), fg_prob=[0.0, 1.0])
    np.testing.assert_array_equal(pc.fg_prob, [0.0, 1.0])


def test_point_cloud_attribute_length_mismatch():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)), fg_prob=np.zeros(2))


def test_select_subsets_all_attributes(rng):
    pc = PointCloud(
        rng.normal(size=(10, 3)),
        features=rng.normal(size=(10, 2)),
        fg_prob=rng.uniform(size=10),
        cluster_id=np.arange(10),
        flow=rng.normal(size=(10, 3)),
    )
    sub = pc.select([2, 5, 7])
    assert len(sub) == 3
    np.testing.assert_array_equal(sub.features, pc.features[[2, 5, 7]])
    np.testing.assert_array_equal(sub.cluster_id, [2, 5, 7])


# ---------------------------------------------------------------- voxelize


def test_voxelize_single_cell_centroid():
    pts = np.array([[0.01, 0.02, 0.03], [0.04, 0.05, 0.01], [0.02, 0.08, 0.09]])
    grid = voxelize(PointCloud(pts), 0.1)
    assert len(grid) == 1
    np.testing.assert_allclose(grid.voxel_centers.points[0], pts.mean(axis=0), atol=1e-15)
    np.testing.assert_array_equal(grid.point_to_voxel, [0, 0, 0])


def test_voxelize_distinct_cells():
    grid = voxelize(PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), 0.1)
    assert len(grid) == 2


def test_voxelize_empty_cloud_errors():
    with pytest.raises(ValueError, match="empty cloud"):
        voxelize(PointCloud(np.empty((0, 3))), 0.1)


def test_voxelize_max_voxels_cap(rng):
    pts = rng.uniform(0.0, 1.0, size=(10_000, 3))
    # oracle: occupied cells counted via a cell-hash set
    occupied = {tuple(c) for c in np.floor(pts / 0.1).astype(int)}
    assert len(occupied) >= 500
    grid = voxelize(PointCloud(pts), 0.1, max_voxels=500, rng=np.random.default_rng(0))
    assert len(grid) == 500
    cells = {tuple(c) for c in np.floor(grid.voxel_centers.points / 0.1).astype(int)}
    assert len(cells) == 500  # all in distinct cells


def test_voxelize_attribute_averaging():
    pts = np.array([[0.01, 0.0, 0.0], [0.05, 0.0, 0.0], [0.55, 0.0, 0.0]])
    pc = PointCloud(
        pts,
        features=np.array([[1.0, 0.0], [3.0, 2.0], [5.0, 5.0]]),
        fg_prob=np.array([0.0, 1.0, 1.0]),
        cluster_id=np.array([0, 0, 1]),
    )
    grid = voxelize(pc, 0.1)
    centers = grid.voxel_centers
    np.testing.assert_allclose(centers.features[0], [2.0, 1.0])
    np.testing.assert_allclose(centers.fg_prob, [0.5, 1.0])
    assert centers.cluster_id is None  # labels cannot be averaged


def test_voxelize_idempotent_on_own_centers(rng):
    pts = rng.uniform(-1.0, 1.0, size=(500, 3))
    grid = voxelize(PointCloud(pts), 0.1)
    again = voxelize(grid.voxel_centers, 0.1)
    np.testing.assert_allclose(again.voxel_centers.points, grid.voxel_centers.points, atol=1e-15)


def test_voxelize_cap_deterministic_per_seed(rng):
    pts = rng.uniform(0.0, 1.0, size=(5000, 3))
    a = voxelize(PointCloud(pts), 0.1, max_voxels=300, rng=np.random.default_rng(7))
    b = voxelize(PointCloud(pts), 0.1, max_voxels=300, rng=np.random.default_rng(7))
    np.testing.assert_array_equal(a.voxel_centers.points, b.voxel_centers.points)


def test_point_to_voxel_partition(rng):
    pts = rng.uniform(0.0, 0.5, size=(200, 3))
    grid = voxelize(PointCloud(pts), 0.1)
    # every point lands in exactly one retained voxel, each voxel has members
    assert grid.point_to_voxel.shape == (200,)
    assert np.all((grid.point_to_voxel >= 0) & (grid.point_to_voxel < len(grid)))
    assert len(np.unique(grid.point_to_voxel)) == len(grid)
    for v in range(len(grid)):
        members = pts[grid.point_to_voxel == v]
        np.testing.assert_allclose(grid.voxel_centers.points[v], members.mean(axis=0), atol=1e-15)


def unique_voxelize(pc, voxel_size, max_voxels=None, rng=None):
    """The former `np.unique(axis=0)` + `np.add.at` voxelization.

    Kept as the reference for `voxelize`, whose centres, averaged attributes
    and `point_to_voxel` must match it exactly. Returns (centres dict,
    point_to_voxel).
    """
    keys = np.floor(pc.points / voxel_size).astype(np.int64)
    cells, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    n_cells = len(cells)
    if max_voxels is not None and n_cells > max_voxels:
        if rng is None:
            rng = np.random.default_rng(0)
        keep = np.sort(rng.choice(n_cells, size=max_voxels, replace=False))
        remap = np.full(n_cells, -1, dtype=np.int64)
        remap[keep] = np.arange(max_voxels)
        inverse = remap[inverse]
        n_cells = max_voxels
    retained = inverse >= 0
    counts = np.bincount(inverse[retained], minlength=n_cells).astype(np.float64)

    def cell_mean(values):
        acc = np.zeros((n_cells,) + values.shape[1:], dtype=np.float64)
        np.add.at(acc, inverse[retained], values[retained])
        return acc / counts.reshape((-1,) + (1,) * (values.ndim - 1))

    centres = {
        name: None if getattr(pc, name) is None else cell_mean(getattr(pc, name))
        for name in ("points", "features", "fg_prob", "flow")
    }
    return centres, inverse


def _attributed_cloud(seed, n, low, high, attributes=("features", "fg_prob", "flow")):
    rng = np.random.default_rng(seed)
    values = {
        "features": rng.normal(size=(n, 5)),
        "fg_prob": rng.uniform(size=n),
        "flow": rng.normal(size=(n, 3)),
    }
    return PointCloud(rng.uniform(low, high, size=(n, 3)), **{a: values[a] for a in attributes})


def _huge_key_cloud():
    """Cell keys near +-4e18 in every column, where one packed int64 key overflows."""
    rng = np.random.default_rng(3)
    levels = np.array([-4e18, -4e18 + 2048.0, -1.0, 0.0, 1.0, 4e18 - 2048.0, 4e18])
    pts = levels[rng.integers(0, len(levels), size=(600, 3))]
    return PointCloud(pts, features=rng.normal(size=(600, 2)), fg_prob=rng.uniform(size=600))


@pytest.mark.parametrize(
    "pc, voxel_size, max_voxels, seed",
    [
        *[(_attributed_cloud(seed, 3000, 0.0, 2.0), 0.1, None, None) for seed in range(3)],
        (_attributed_cloud(4, 3000, -3.0, -1.0), 0.1, None, None),
        (_attributed_cloud(5, 3000, -1.0, 1.0), 0.07, None, None),
        (_attributed_cloud(6, 3000, -1.0, 1.0), 0.1, 300, 7),
        (_attributed_cloud(7, 500, 0.0, 1.0, ("fg_prob",)), 0.2, 20, None),
        (_attributed_cloud(8, 1, 0.0, 1.0), 0.1, None, None),
        (_huge_key_cloud(), 1.0, None, None),
        (_huge_key_cloud(), 1.0, 100, 2),
    ],
    ids=[
        "random-0",
        "random-1",
        "random-2",
        "negative-coordinates",
        "straddling-zero",
        "max-voxels-cap",
        "cap-default-rng-fg-prob-only",
        "single-point",
        "keys-near-4e18",
        "keys-near-4e18-capped",
    ],
)
def test_voxelize_bit_identical_to_unique_reference(pc, voxel_size, max_voxels, seed):
    def rng():
        return None if seed is None else np.random.default_rng(seed)

    grid = voxelize(pc, voxel_size, max_voxels=max_voxels, rng=rng())
    centres, point_to_voxel = unique_voxelize(pc, voxel_size, max_voxels=max_voxels, rng=rng())
    assert np.array_equal(grid.point_to_voxel, point_to_voxel)
    for name, expected in centres.items():
        got = getattr(grid.voxel_centers, name)
        assert (got is None) == (expected is None), name
        if expected is not None:
            assert np.array_equal(got, expected), name


# ------------------------------------------------------- flow interpolation


def _grid_from_centers(centers):
    # build a one-point-per-cell grid for interpolation tests
    return voxelize(PointCloud(np.asarray(centers, dtype=float)), 0.05)


def test_transfer_constant_field_is_exact(rng):
    centers = rng.uniform(0.0, 2.0, size=(30, 3))
    grid = _grid_from_centers(centers)
    flow = FlowField(np.tile([1.0, 0.0, 0.0], (len(grid), 1)))
    pts = PointCloud(rng.uniform(0.0, 2.0, size=(50, 3)))
    out = transfer_flow_to_points(grid, flow, pts, k=3)
    np.testing.assert_allclose(out.vectors, np.tile([1.0, 0.0, 0.0], (50, 1)), atol=1e-12)


def test_transfer_snaps_at_zero_distance(rng):
    centers = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    grid = _grid_from_centers(centers)
    flow = FlowField(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]))
    query = PointCloud(grid.voxel_centers.points[[1]])
    for k in (1, 2, 3):
        out = transfer_flow_to_points(grid, flow, query, k=k)
        np.testing.assert_array_equal(out.vectors[0], [4.0, 5.0, 6.0])


def test_transfer_midpoint_two_voxels():
    # oracle: closed-form two-term inverse-distance evaluation
    centers = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    grid = _grid_from_centers(centers)
    flow = FlowField(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    out = transfer_flow_to_points(
        grid, flow, PointCloud([[0.5, 0.0, 0.0]]), k=2
    )
    np.testing.assert_allclose(out.vectors[0], [0.5, 0.5, 0.0], atol=1e-12)


def test_transfer_uses_all_voxels_when_fewer_than_k():
    centers = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    grid = _grid_from_centers(centers)
    flow = FlowField(np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
    out = transfer_flow_to_points(grid, flow, PointCloud([[0.25, 0.0, 0.0]]), k=10)
    # inverse-distance over both voxels: w = (4, 4/3), normalized
    expected = (4.0 * 1.0 + (4.0 / 3.0) * 3.0) / (4.0 + 4.0 / 3.0)
    np.testing.assert_allclose(out.vectors[0], [expected, 0.0, 0.0], atol=1e-12)


def test_transfer_matches_inverse_distance_oracle(rng):
    centers = rng.uniform(0.0, 1.0, size=(40, 3))
    grid = _grid_from_centers(centers)
    vec = rng.normal(size=(len(grid), 3))
    flow = FlowField(vec)
    pts = rng.uniform(0.0, 1.0, size=(25, 3))
    out = transfer_flow_to_points(grid, flow, PointCloud(pts), k=3)
    c = grid.voxel_centers.points
    for i, p in enumerate(pts):
        d = np.linalg.norm(c - p, axis=1)
        nearest = np.argsort(d)[:3]
        w = 1.0 / d[nearest]
        expected = (w[:, None] * vec[nearest]).sum(axis=0) / w.sum()
        np.testing.assert_allclose(out.vectors[i], expected, atol=1e-10)
