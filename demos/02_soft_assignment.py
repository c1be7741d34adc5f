"""Soft correspondences through slack-augmented transport.

Matches two feature sets the way the ego-motion does: the affinity
exp(-||f_i - g_j|| / tau) against a slack row and column, normalized by
three alternating row/column sweeps, read out as barycentric matches plus
per-point confidence weights (the mass each row keeps off slack). Outliers
(points with no true counterpart) lose their mass to slack instead of being
force-matched. The script exits nonzero if either claim fails.
"""

import numpy as np

from rigidflow import PointCloud
from rigidflow.transport import pruned_soft_correspondences

rng = np.random.default_rng(1)

n = 12
points_y = rng.normal(size=(n, 3))
perm = rng.permutation(n)

# Oracle descriptors: x point i carries the feature of its match perm[i].
features_y = rng.normal(size=(n, 6))
features_y /= np.linalg.norm(features_y, axis=1, keepdims=True)
features_x = features_y[perm]

# Two outliers get fresh descriptors that match nothing.
outliers = [3, 8]
for i in outliers:
    features_x[i] = rng.normal(size=6)
    features_x[i] /= np.linalg.norm(features_x[i])

# The pipeline's ego temperature; slack competes like a real match at
# feature distance 2 tau.
tau = 0.005
source = PointCloud(rng.normal(size=(n, 3)), features=features_x)
target = PointCloud(points_y, features=features_y)
matched, weights = pruned_soft_correspondences(source, target, tau, slack_logit=-2.0, iterations=3)

nearest = np.linalg.norm(matched.points[:, None] - points_y[None], axis=2).argmin(axis=1)
print("row  nearest  true  weight")
for i in range(n):
    tag = "outlier" if i in outliers else ""
    print(f"{i:3d}  {nearest[i]:7d}  {perm[i]:4d}  {weights[i]:.4f}  {tag}")

clean = [i for i in range(n) if i not in outliers]
gap = np.linalg.norm(matched.points[clean] - points_y[perm[clean]], axis=1)
print("match position error on clean rows:", gap.max())
print("weight clean (lowest) vs outlier (highest):", weights[clean].min(), "vs", weights[outliers].max())

if not weights[outliers].max() < weights[clean].min():
    raise SystemExit("an outlier row kept more mass than a clean row")
if not gap.max() < 1e-6:
    raise SystemExit("a clean row's match is more than 1e-6 m off its counterpart")
