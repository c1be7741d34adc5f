import numpy as np
import pytest

from rigidflow.energy import rigidity_loss
from rigidflow.geom import FlowField
from rigidflow.rigidfit import fit_cluster_transform
from rigidflow.synthetic import SceneSpec, generate_scene


def test_static_world_is_untouched():
    spec = SceneSpec(
        n_objects=0, ego_rotation_deg=0.0, ego_translation=0.0,
        noise_sigma=0.0, dropout=0.0, seed=1,
    )
    scene = generate_scene(spec)
    np.testing.assert_array_equal(scene.frame_y.points, scene.frame_x.points)
    np.testing.assert_array_equal(scene.gt_flow.vectors, 0.0)
    assert not scene.gt_fg_mask.any()


def test_single_translated_object():
    spec = SceneSpec(
        n_objects=1, ego_rotation_deg=0.0, ego_translation=0.0,
        object_rotation_deg=0.0, object_translation=1.0,
        noise_sigma=0.0, dropout=0.0, seed=2,
    )
    scene = generate_scene(spec)
    fg = scene.gt_fg_mask
    np.testing.assert_allclose(scene.gt_flow.vectors[~fg], 0.0, atol=1e-15)
    fg_flow = scene.gt_flow.vectors[fg]
    # pure translation: every object point carries one identical vector
    np.testing.assert_allclose(
        fg_flow, np.broadcast_to(fg_flow[0], fg_flow.shape), atol=1e-12
    )
    assert 0.0 < np.linalg.norm(fg_flow[0]) <= 1.0


def test_gt_flow_is_segment_rigid():
    scene = generate_scene(SceneSpec(seed=7))
    fg = scene.gt_fg_mask
    loss = rigidity_loss(
        scene.gt_cluster_labels,
        scene.frame_x.select(np.flatnonzero(fg)),
        FlowField(scene.gt_flow.vectors[fg]),
    )
    assert loss < 1e-10


def test_segment_refits_recover_generators():
    scene = generate_scene(SceneSpec(seed=4, noise_sigma=0.0, dropout=0.0))
    fg_idx = np.flatnonzero(scene.gt_fg_mask)
    for k, t_gt in enumerate(scene.gt_object_transforms):
        sel = fg_idx[scene.gt_cluster_labels.labels == k]
        sub = scene.frame_x.select(sel)
        refit = fit_cluster_transform(sub, FlowField(scene.gt_flow.vectors[sel]))
        np.testing.assert_allclose(refit.rotation, t_gt.rotation, atol=1e-9)
        np.testing.assert_allclose(refit.translation, t_gt.translation, atol=1e-9)


def test_correspondence_map_consistency():
    spec = SceneSpec(seed=5, noise_sigma=0.003, dropout=0.15)
    scene = generate_scene(spec)
    cm = scene.correspondence_map
    paired = cm >= 0
    assert np.all(np.sort(cm[paired]) == np.arange(len(scene.frame_y)))
    # paired target position equals transformed source within the noise level
    moved = scene.frame_x.points[paired] + scene.gt_flow.vectors[paired]
    gap = np.linalg.norm(scene.frame_y.points[cm[paired]] - moved, axis=1)
    assert gap.max() < 6.0 * spec.noise_sigma
    # features are shared across true pairs
    np.testing.assert_array_equal(
        scene.frame_y.features[cm[paired]], scene.frame_x.features[paired]
    )


def test_determinism_per_seed():
    a = generate_scene(SceneSpec(seed=11))
    b = generate_scene(SceneSpec(seed=11))
    np.testing.assert_array_equal(a.frame_x.points, b.frame_x.points)
    np.testing.assert_array_equal(a.frame_y.points, b.frame_y.points)
    np.testing.assert_array_equal(a.frame_x.features, b.frame_x.features)
    c = generate_scene(SceneSpec(seed=12))
    assert not np.array_equal(a.frame_x.points, c.frame_x.points)


def test_objects_respect_gap():
    spec = SceneSpec(seed=6)
    scene = generate_scene(spec)
    fg_idx = np.flatnonzero(scene.gt_fg_mask)
    labels = scene.gt_cluster_labels.labels
    pts = scene.frame_x.points
    for a in range(spec.n_objects):
        pa = pts[fg_idx[labels == a]]
        # gap to background
        bg = pts[~scene.gt_fg_mask]
        d_bg = np.linalg.norm(pa[:, None] - bg[None, :], axis=2).min()
        assert d_bg >= spec.min_object_gap - 1e-9
        for b in range(a + 1, spec.n_objects):
            pb = pts[fg_idx[labels == b]]
            d = np.linalg.norm(pa[:, None] - pb[None, :], axis=2).min()
            assert d >= spec.min_object_gap - 1e-9


def test_masks_and_labels_align():
    scene = generate_scene(SceneSpec(seed=8))
    full = scene.frame_x.cluster_id
    assert np.array_equal(full >= 0, scene.gt_fg_mask)
    np.testing.assert_array_equal(
        full[scene.gt_fg_mask], scene.gt_cluster_labels.labels
    )
    np.testing.assert_array_equal(
        scene.frame_x.fg_prob, scene.gt_fg_mask.astype(float)
    )


def test_invalid_specs_rejected():
    with pytest.raises(ValueError, match="inconsistent scene spec"):
        generate_scene(SceneSpec(points_per_object=2))
    with pytest.raises(ValueError, match="inconsistent scene spec"):
        generate_scene(SceneSpec(dropout=1.0))
    with pytest.raises(ValueError, match="inconsistent scene spec"):
        generate_scene(SceneSpec(noise_sigma=-0.1))
    with pytest.raises(ValueError, match="inconsistent scene spec"):
        generate_scene(SceneSpec(background_points=2))
    with pytest.raises(ValueError, match="inconsistent scene spec: seed must be non-negative"):
        SceneSpec(seed=-1)
    # NaN fails every comparison, so only a finiteness check catches it
    for name, value in [
        ("background_extent", np.nan),
        ("min_object_gap", np.nan),
        ("ego_rotation_deg", np.nan),
        ("ego_translation", np.nan),
        ("object_rotation_deg", np.inf),
        ("noise_sigma", np.nan),
    ]:
        with pytest.raises(ValueError, match=f"inconsistent scene spec: {name} must be finite"):
            SceneSpec(**{name: value})


def test_nearby_features_are_similar_far_features_are_not():
    scene = generate_scene(SceneSpec(seed=9, dropout=0.0))
    pts = scene.frame_x.points
    feats = scene.frame_x.features
    d_space = np.linalg.norm(pts[:200, None] - pts[None, :200], axis=2)
    d_feat = np.linalg.norm(feats[:200, None] - feats[None, :200], axis=2)
    near = (d_space < 0.05) & (d_space > 0)
    far = d_space > 5.0
    if near.any():
        assert d_feat[near].mean() < 0.3
    assert d_feat[far].mean() > 0.8
