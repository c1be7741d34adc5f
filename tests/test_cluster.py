import numpy as np
import pytest
from scipy.spatial import cKDTree

from rigidflow.cluster import dbscan
from rigidflow.geom import PointCloud


def reference_dbscan(points, eps, min_samples, min_cluster_size):
    """Brute-force oracle: pairwise distance matrix + connected components."""
    n = len(points)
    dist = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    adjacency = dist <= eps
    core = adjacency.sum(axis=1) >= min_samples
    labels = np.full(n, -1, dtype=int)
    next_id = 0
    for seed in range(n):
        if not core[seed] or labels[seed] != -1:
            continue
        stack = [seed]
        labels[seed] = next_id
        while stack:
            j = stack.pop()
            for q in np.flatnonzero(adjacency[j] & core):
                if labels[q] == -1:
                    labels[q] = next_id
                    stack.append(q)
        next_id += 1
    for i in range(n):
        if not core[i]:
            claiming = np.flatnonzero(adjacency[i] & core)
            if len(claiming):
                labels[i] = labels[claiming.min()]
    if next_id == 0:
        return labels
    sizes = np.bincount(labels[labels >= 0], minlength=next_id)
    keep = sizes >= min_cluster_size
    remap = np.full(next_id, -1, dtype=int)
    remap[keep] = np.arange(keep.sum())
    return np.where(labels >= 0, remap[labels], -1)


def _blob(rng, center, n, scale=0.15):
    return np.asarray(center) + rng.normal(scale=scale, size=(n, 3))


def test_two_separated_blobs(rng):
    pts = np.vstack([_blob(rng, [0, 0, 0], 20), _blob(rng, [5, 0, 0], 20)])
    out = dbscan(PointCloud(pts), eps=0.75, min_samples=5, min_cluster_size=1)
    assert out.n_clusters == 2
    assert np.all(out.labels >= 0)  # zero noise
    assert set(out.labels[:20]) == {out.labels[0]}
    assert set(out.labels[20:]) == {out.labels[20]}


def test_small_blob_filtered_by_min_cluster_size(rng):
    pts = _blob(rng, [0, 0, 0], 8)
    out = dbscan(PointCloud(pts), eps=0.75, min_samples=5, min_cluster_size=10)
    assert out.n_clusters == 0
    assert np.all(out.labels == -1)


def test_matches_reference_on_multi_object_scene(rng):
    parts = [
        _blob(rng, [0, 0, 0], 40),
        _blob(rng, [4, 0, 0], 35),
        _blob(rng, [0, 4, 0], 30),
        _blob(rng, [4, 4, 2], 25),
        rng.uniform(-8, 12, size=(40, 3)),  # sparse noise
    ]
    pts = np.vstack(parts)
    got = dbscan(PointCloud(pts), eps=0.75, min_samples=5, min_cluster_size=10)
    expected = reference_dbscan(pts, 0.75, 5, 10)
    np.testing.assert_array_equal(got.labels, expected)


def test_matches_reference_on_random_draws(rng):
    for _ in range(10):
        pts = rng.uniform(0.0, 4.0, size=(120, 3))
        eps = rng.uniform(0.3, 0.8)
        ms = int(rng.integers(2, 6))
        mcs = int(rng.integers(1, 8))
        got = dbscan(PointCloud(pts), eps=eps, min_samples=ms, min_cluster_size=mcs)
        np.testing.assert_array_equal(got.labels, reference_dbscan(pts, eps, ms, mcs))


def test_permutation_invariance_as_partition(rng):
    pts = np.vstack([_blob(rng, [0, 0, 0], 25), _blob(rng, [3, 3, 0], 25)])
    base = dbscan(PointCloud(pts), eps=0.75, min_samples=4, min_cluster_size=5)
    perm = rng.permutation(len(pts))
    shuffled = dbscan(PointCloud(pts[perm]), eps=0.75, min_samples=4, min_cluster_size=5)

    def partition(labels):
        return {
            frozenset(np.flatnonzero(labels == k).tolist())
            for k in range(labels.max() + 1)
        }

    unshuffled = np.full(len(pts), -1, dtype=int)
    unshuffled[perm] = shuffled.labels
    got = partition(unshuffled)
    assert got == partition(base.labels)


def test_empty_input():
    out = dbscan(PointCloud(np.empty((0, 3))), eps=0.5, min_samples=3)
    assert len(out.labels) == 0 and out.n_clusters == 0


def test_cluster_sizes_match_labels(rng):
    pts = np.vstack([_blob(rng, [0, 0, 0], 30), _blob(rng, [5, 5, 5], 12)])
    out = dbscan(PointCloud(pts), eps=0.75, min_samples=4, min_cluster_size=10)
    for k in range(out.n_clusters):
        assert out.cluster_sizes[k] == np.count_nonzero(out.labels == k)
    assert np.all(out.cluster_sizes >= 10)


def test_core_points_within_cluster_are_eps_connected(rng):
    pts = _blob(rng, [0, 0, 0], 50, scale=0.4)
    out = dbscan(PointCloud(pts), eps=0.5, min_samples=4, min_cluster_size=1)
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    core = (dist <= 0.5).sum(axis=1) >= 4
    for k in range(out.n_clusters):
        members = np.flatnonzero((out.labels == k) & core)
        if len(members) < 2:
            continue
        # BFS over the eps-graph restricted to this cluster's cores
        seen = {members[0]}
        frontier = [members[0]]
        while frontier:
            i = frontier.pop()
            for j in members:
                if j not in seen and dist[i, j] <= 0.5:
                    seen.add(j)
                    frontier.append(j)
        assert seen == set(members.tolist())


def test_no_cross_cluster_core_pairs_within_eps(rng):
    pts = np.vstack([_blob(rng, [0, 0, 0], 30), _blob(rng, [4, 0, 0], 30)])
    eps = 0.75
    out = dbscan(PointCloud(pts), eps=eps, min_samples=4, min_cluster_size=1)
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    core = (dist <= eps).sum(axis=1) >= 4
    cores = np.flatnonzero(core)
    for i in cores:
        for j in cores:
            if dist[i, j] <= eps:
                assert out.labels[i] == out.labels[j]


def test_invalid_parameters():
    pc = PointCloud(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        dbscan(pc, eps=0.0, min_samples=3)
    with pytest.raises(ValueError):
        dbscan(pc, eps=0.5, min_samples=0)


# ------------------------------------------- bit-identity with the loop DBSCAN


def loop_dbscan(points, eps, min_samples, min_cluster_size):
    """The former flood-fill implementation over `query_ball_point` lists.

    Kept as the reference for `dbscan`, whose labels and sizes must match it
    exactly, numbering and border rule included.
    """
    n = len(points)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    neighbors = cKDTree(points).query_ball_point(points, r=eps)
    core = np.array([len(nb) >= min_samples for nb in neighbors])
    labels = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for seed in range(n):
        if not core[seed] or labels[seed] != -1:
            continue
        labels[seed] = next_id
        stack = [seed]
        while stack:
            j = stack.pop()
            for q in neighbors[j]:
                if core[q] and labels[q] == -1:
                    labels[q] = next_id
                    stack.append(q)
        next_id += 1
    for i in range(n):
        if not core[i]:
            claiming = [q for q in neighbors[i] if core[q]]
            if claiming:
                labels[i] = labels[min(claiming)]
    if next_id == 0:
        return labels, np.empty(0, dtype=np.int64)
    sizes = np.bincount(labels[labels >= 0], minlength=next_id)
    keep = sizes >= min_cluster_size
    remap = np.full(next_id, -1, dtype=np.int64)
    remap[keep] = np.arange(int(keep.sum()))
    return np.where(labels >= 0, remap[labels], -1), sizes[keep]


def _contested_border(interleaved):
    """Two chains of points on the x axis and one border point between them.

    With eps=0.55 and min_samples=4 the border point at x=0.5 (listed last)
    is not core but lies within eps of a core of each chain: x=1.0 of the
    right chain and x=0.0 of the left one. Listed chain by chain, the right
    chain is cluster 0 and its x=1.0 core (index 4) comes first. Interleaved,
    the left chain is cluster 0 (its core x=-0.6 comes first) but the right
    chain's x=1.0 core (index 1) is still the border's lowest-indexed core.
    """
    if interleaved:
        xs = [-0.6, 1.0, -0.8, -0.4, -0.2, 0.0, 1.8, 1.6, 1.4, 1.2]
    else:
        xs = [1.8, 1.6, 1.4, 1.2, 1.0, -0.8, -0.6, -0.4, -0.2, 0.0]
    xs = xs + [0.5]
    return np.column_stack([xs, np.zeros(len(xs)), np.zeros(len(xs))])


def _random_cloud(seed, n=300, low=0.0, high=6.0):
    return np.random.default_rng(seed).uniform(low, high, size=(n, 3))


@pytest.mark.parametrize(
    "points, eps, min_samples, min_cluster_size",
    [
        *[(_random_cloud(seed), 0.3 + 0.1 * seed, 2 + seed % 4, 1 + seed % 5) for seed in range(6)],
        (_contested_border(False), 0.55, 4, 1),
        (_contested_border(True), 0.55, 4, 1),
        (_random_cloud(11), 0.5, 1, 1),
        (_random_cloud(12), 0.5, 1, 3),
        (_random_cloud(13, n=40), 0.2, 5, 1),  # no core point
        (np.empty((0, 3)), 0.5, 3, 1),
        (_random_cloud(14, low=-9.0, high=-3.0), 0.6, 3, 2),
        (np.vstack([_random_cloud(15, n=50)] * 2), 0.4, 3, 1),  # exact duplicates
    ],
    ids=[
        *[f"random-{seed}" for seed in range(6)],
        "contested-border",
        "contested-border-interleaved",
        "min-samples-1",
        "min-samples-1-size-filter",
        "no-core",
        "empty",
        "negative-coordinates",
        "duplicates",
    ],
)
def test_bit_identical_to_loop_dbscan(points, eps, min_samples, min_cluster_size):
    got = dbscan(PointCloud(points), eps=eps, min_samples=min_samples, min_cluster_size=min_cluster_size)
    labels, sizes = loop_dbscan(points, eps, min_samples, min_cluster_size)
    assert np.array_equal(got.labels, labels)
    assert np.array_equal(got.cluster_sizes, sizes)


@pytest.mark.parametrize("interleaved, right_core, left_core", [(False, 4, 9), (True, 1, 5)])
def test_contested_border_joins_lowest_indexed_core(interleaved, right_core, left_core):
    out = dbscan(PointCloud(_contested_border(interleaved)), eps=0.55, min_samples=4)
    assert out.n_clusters == 2
    assert out.labels[right_core] != out.labels[left_core]
    assert out.labels[-1] == out.labels[right_core] == (1 if interleaved else 0)
