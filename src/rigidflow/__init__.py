"""rigidflow: rigid multi-body 3D scene flow estimation on point clouds.

The library decomposes a pair of frames into a static background moved by
one ego-motion and a set of foreground clusters each moved by its own rigid
transform. Soft correspondences come from feature-space affinities
normalized by a slack-augmented Sinkhorn scheme; transforms come from a
closed-form weighted rigid fit; optional test-time ICP tightens every
transform. Per-point flow is recovered from the segment transforms, so
points of the same body can never drift apart.

The top level re-exports what the demos and the README use; everything else
is imported from its module (`rigidflow.pipeline`, `rigidflow.synthetic`,
and `rigidflow.transport` for the soft matching itself).
"""

from .cluster import dbscan
from .energy import (
    bce_mask_loss,
    chamfer_loss,
    ego_translation_loss,
    rigidity_loss,
)
from .geom import (
    FlowField,
    PointCloud,
    RigidTransform,
    apply_transform,
    compose,
    rotation_about_axis,
)
from .metrics import ego_metrics, flow_metrics
from .pipeline import PipelineConfig, infer_rigid_flow, preprocess
from .refine import IcpConfig, icp_refine
from .rigidfit import WeightedCorrespondenceSet, fit_cluster_transform, weighted_kabsch

__version__ = "0.1.0"

__all__ = [
    "FlowField",
    "IcpConfig",
    "PipelineConfig",
    "PointCloud",
    "RigidTransform",
    "WeightedCorrespondenceSet",
    "apply_transform",
    "bce_mask_loss",
    "chamfer_loss",
    "compose",
    "dbscan",
    "ego_metrics",
    "ego_translation_loss",
    "fit_cluster_transform",
    "flow_metrics",
    "icp_refine",
    "infer_rigid_flow",
    "preprocess",
    "rigidity_loss",
    "rotation_about_axis",
    "weighted_kabsch",
]
