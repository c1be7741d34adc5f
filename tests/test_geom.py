import dataclasses
import threading

import numpy as np
import pytest
from scipy.spatial import cKDTree

from rigidflow.geom import (
    POINT_ATTRIBUTES,
    FlowField,
    PointCloud,
    RigidTransform,
    apply_transform,
    compose,
    invert,
    rotation_about_axis,
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


def _sheared(delta):
    # R^T R - I has largest entry delta off the diagonal; det stays 1
    m = np.eye(3)
    m[0, 1] = delta
    return m


def _scaled(eps):
    # R^T R - I = (2 eps + eps^2) I, det - 1 = 3 eps + O(eps^2)
    return np.eye(3) * (1.0 + eps)


@pytest.mark.parametrize("base", ["identity", "rotated"])
@pytest.mark.parametrize(
    "matrix, message",
    [
        (_sheared(0.5e-9), None),
        (_sheared(2e-9), "not orthonormal within 1e-9"),
        (_scaled(0.5e-9 / 3.0), None),  # orthonormality 0.33e-9, det 0.5e-9
        (_scaled(0.45e-9), "determinant is not \\+1 within 1e-9"),  # 0.9e-9, 1.35e-9
        (_scaled(2e-9), "not orthonormal within 1e-9"),  # 4e-9, 6e-9
        (np.diag([1.0, 1.0, -1.0]), "determinant is not \\+1 within 1e-9"),
        (np.diag([-1.0, -1.0, -1.0]), "determinant is not \\+1 within 1e-9"),
    ],
    ids=[
        "shear-0.5e-9",
        "shear-2e-9",
        "scale-det-0.5e-9",
        "scale-det-1.35e-9",
        "scale-2e-9",
        "reflection",
        "point-reflection",
    ],
)
def test_rotation_checks_on_both_sides_of_each_threshold(matrix, message, base):
    q = np.eye(3) if base == "identity" else rotation_about_axis([1.0, -2.0, 0.5], 2.1)
    rotation = q @ matrix
    if message is None:
        t = RigidTransform(rotation, [1.0, 2.0, 3.0])
        assert np.array_equal(t.rotation, rotation)
        assert np.array_equal(t.translation, [1.0, 2.0, 3.0])
    else:
        with pytest.raises(ValueError, match=message):
            RigidTransform(rotation, np.zeros(3))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_rotation_rejects_non_finite(value):
    r = np.eye(3)
    r[2, 1] = value
    with pytest.raises(ValueError, match="not orthonormal within 1e-9"):
        RigidTransform(r, np.zeros(3))


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


@pytest.mark.parametrize(
    "attribute, value, message",
    [
        ("features", np.zeros(3), "features must have shape (3, D), got (3,)"),
        ("features", np.zeros((2, 4)), "features must have shape (3, D), got (2, 4)"),
        ("fg_prob", np.zeros((3, 1)), "fg_prob must have shape (3,), got (3, 1)"),
        ("fg_prob", np.zeros(2), "fg_prob must have shape (3,), got (2,)"),
        ("cluster_id", np.zeros(4), "cluster_id must have shape (3,), got (4,)"),
        ("flow", np.zeros((3, 2)), "flow must have shape (3, 3), got (3, 2)"),
        ("flow", np.zeros(9), "flow must have shape (3, 3), got (9,)"),
    ],
)
def test_point_cloud_shape_error_names_attribute(attribute, value, message):
    with pytest.raises(ValueError) as err:
        PointCloud(np.zeros((3, 3)), **{attribute: value})
    assert str(err.value) == message


def test_point_attributes_are_the_optional_fields():
    fields = [f.name for f in dataclasses.fields(PointCloud)]
    assert fields == ["points", *POINT_ATTRIBUTES]


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
    np.testing.assert_array_equal(sub.points, pc.points[[2, 5, 7]])
    np.testing.assert_array_equal(sub.features, pc.features[[2, 5, 7]])
    np.testing.assert_array_equal(sub.fg_prob, pc.fg_prob[[2, 5, 7]])
    np.testing.assert_array_equal(sub.cluster_id, [2, 5, 7])
    np.testing.assert_array_equal(sub.flow, pc.flow[[2, 5, 7]])


def _assert_same_queries(tree, points, queries):
    want_d, want_i = cKDTree(points).query(queries, k=2)
    got_d, got_i = tree.query(queries, k=2)
    np.testing.assert_array_equal(got_d, want_d)
    np.testing.assert_array_equal(got_i, want_i)


def test_kdtree_is_built_once_and_matches_a_fresh_tree(rng):
    pc = PointCloud(rng.normal(size=(200, 3)))
    tree = pc.kdtree
    assert pc.kdtree is tree
    _assert_same_queries(tree, pc.points, rng.normal(size=(50, 3)))


def test_kdtree_builds_of_two_clouds_overlap(monkeypatch, rng):
    # Each build waits until the other cloud's build has started too, which
    # fails if one build holds a lock that the other needs.
    import rigidflow.geom

    barrier = threading.Barrier(2, timeout=5.0)

    def tree_after_barrier(points):
        barrier.wait()
        return cKDTree(points)

    monkeypatch.setattr(rigidflow.geom, "cKDTree", tree_after_barrier)
    clouds = [PointCloud(rng.normal(size=(50, 3))) for _ in range(2)]
    errors = []

    def build(pc):
        try:
            pc.kdtree
        except threading.BrokenBarrierError as e:
            errors.append(e)

    threads = [threading.Thread(target=build, args=(pc,)) for pc in clouds]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert errors == []
    for pc in clouds:
        assert pc.kdtree is pc.kdtree
        _assert_same_queries(pc.kdtree, pc.points, rng.normal(size=(20, 3)))


@pytest.mark.parametrize(
    "derive",
    [
        lambda pc, t: apply_transform(t, pc),
        lambda pc, t: pc.select(np.arange(0, len(pc), 3)),
        lambda pc, t: dataclasses.replace(pc, points=pc.points + 1.0),
    ],
    ids=["apply_transform", "select", "replace"],
)
def test_derived_cloud_gets_its_own_tree(rng, derive):
    pc = PointCloud(rng.normal(size=(120, 3)), features=rng.normal(size=(120, 4)))
    old_tree = pc.kdtree
    new = derive(pc, make_transform(rng, max_translation=2.0))
    assert new.kdtree is not old_tree
    _assert_same_queries(new.kdtree, new.points, rng.normal(size=(40, 3)))
    assert pc.kdtree is old_tree


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


def _dense_cell_cloud():
    """24 unit cells of 50-80 points each, shuffled, attributes spanning 1e-8 to 1e8.

    With this many points per cell and this dynamic range, a pairwise or a
    value-sorted summation rounds differently from a sum in point order.
    """
    rng = np.random.default_rng(11)
    corners = np.concatenate([rng.integers(-3, 3, size=(16, 3)), rng.integers(-3, 3, size=(8, 3)) + 10**8])
    corners = np.unique(corners, axis=0)
    sizes = rng.integers(50, 81, size=len(corners))
    pts = np.repeat(corners, sizes, axis=0) + rng.uniform(0.0, 0.999, size=(sizes.sum(), 3))
    n = len(pts)

    def spread(shape):
        return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)

    order = rng.permutation(n)
    return PointCloud(
        pts[order],
        features=spread((n, 4)),
        fg_prob=10.0 ** rng.uniform(-8.0, 0.0, size=n),
        flow=spread((n, 3)),
    )


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
        (_dense_cell_cloud(), 1.0, None, None),
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
        "dense-cells-wide-range",
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

