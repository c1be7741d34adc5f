"""Soft correspondences through a slack-augmented assignment matrix.

Builds the feature-space soft assignment with a slack row/column, normalized
by a few alternating row/column sweeps, and reads out barycentric matches
plus per-point confidence weights. Outliers (points with no true
counterpart) lose their mass to slack instead of being force-matched.
"""

import numpy as np

from rigidflow import PointCloud, soft_assignment, soft_correspondences

rng = np.random.default_rng(1)

n = 12
points_y = PointCloud(rng.normal(size=(n, 3)))
perm = rng.permutation(n)

# Oracle descriptors: x point i carries the feature of its match perm[i].
features_y = rng.normal(size=(n, 6))
features_y /= np.linalg.norm(features_y, axis=1, keepdims=True)
features_x = features_y[perm]

# Two outliers get fresh descriptors that match nothing.
features_x[3] = rng.normal(size=6)
features_x[3] /= np.linalg.norm(features_x[3])
features_x[8] = rng.normal(size=6)
features_x[8] /= np.linalg.norm(features_x[8])

# Slack competes like a real match at feature distance 2 tau.
assignment = soft_assignment(features_x, features_y, tau=0.05, slack_logit=-2.0, iterations=3)
matched, weights = soft_correspondences(assignment, points_y)

print("row  argmax  true  weight")
for i in range(n):
    tag = "outlier" if i in (3, 8) else ""
    print(
        f"{i:3d}  {assignment.real[i].argmax():6d}  {perm[i]:4d}  {weights[i]:.4f}  {tag}"
    )

clean = [i for i in range(n) if i not in (3, 8)]
gap = np.linalg.norm(matched.points[clean] - points_y.points[perm[clean]], axis=1)
print("match position error on clean rows:", gap.max())
print("mean weight clean vs outlier:", weights[clean].mean(), "vs", weights[[3, 8]].mean())
