"""The objective terms as diagnostics.

Evaluates every term on ground-truth predictions (everything should sit at
or near zero) and then perturbs one input at a time to show which term
notices which error.
"""

import numpy as np

from rigidflow import (
    FlowField,
    PointCloud,
    bce_mask_loss,
    chamfer_loss,
    ego_translation_loss,
    rigidity_loss,
    rotation_about_axis,
    RigidTransform,
    compose,
)
from rigidflow.synthetic import SceneSpec, generate_scene
from rigidflow.transport import pruned_soft_correspondences

scene = generate_scene(SceneSpec(seed=3, noise_sigma=0.0, dropout=0.0))
fg_idx = np.flatnonzero(scene.gt_fg_mask)
fg = scene.frame_x.select(fg_idx)
gt_fg = scene.gt_fg_mask.astype(float)
bg = scene.frame_x.select(np.flatnonzero(~scene.gt_fg_mask))
gt_flow_fg = FlowField(scene.gt_flow.vectors[fg_idx])

print("== ground-truth predictions ==")
clamped = np.clip(gt_fg, 1e-7, 1 - 1e-7)
print("mask cross-entropy:", bce_mask_loss(clamped, gt_fg))
print("ego discrepancy:", ego_translation_loss(bg, scene.gt_ego, scene.gt_ego))
print("rigidity:", rigidity_loss(scene.gt_cluster_labels, fg, gt_flow_fg))

print("== perturbed predictions ==")
# wrong mask on 10% of the points
noisy_mask = gt_fg.copy()
flip = np.random.default_rng(0).choice(len(gt_fg), size=len(gt_fg) // 10, replace=False)
noisy_mask[flip] = 1.0 - noisy_mask[flip]
print("mask cross-entropy @10% flips:", bce_mask_loss(np.clip(noisy_mask, 1e-7, 1 - 1e-7), gt_fg))

# ego off by 2 cm
off = RigidTransform(rotation_about_axis([0, 1, 0], 0.0), [0.02, 0.0, 0.0])
print("ego discrepancy @2 cm offset:", ego_translation_loss(bg, compose(off, scene.gt_ego), scene.gt_ego))

# bend one object's flow
bent = gt_flow_fg.vectors.copy()
bent[scene.gt_cluster_labels.labels == 0] += np.random.default_rng(1).normal(
    scale=0.05, size=bent[scene.gt_cluster_labels.labels == 0].shape
)
print("rigidity @bent object 0:", rigidity_loss(scene.gt_cluster_labels, fg, FlowField(bent)))

# slack mass shows up as a drop in the mass each row keeps, its match weight
n = 6
cloud = PointCloud(np.zeros((n, 3)), features=10.0 * np.eye(n))  # one real match per row
for label, slack_logit in (("slack out of reach", -800.0), ("30% slack leak", np.log(0.3 / 0.7))):
    _, kept = pruned_soft_correspondences(cloud, cloud, 0.01, slack_logit, iterations=0)
    print(f"kept mass, {label}:", kept.mean())

# two-way chamfer between warped foreground and the target foreground
warped = PointCloud(fg.points + gt_flow_fg.vectors)
target_fg = scene.frame_y.select(np.flatnonzero(scene.frame_y.fg_prob > 0.5))
print("chamfer, true warp:", chamfer_loss(warped, target_fg))
shifted = PointCloud(warped.points + np.array([0.3, 0.0, 0.0]))
print("chamfer, warp shifted 0.3 m:", chamfer_loss(shifted, target_fg))
