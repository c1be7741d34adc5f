"""rigidflow: rigid multi-body 3D scene flow estimation on point clouds.

The library decomposes a pair of frames into a static background moved by
one ego-motion and a set of foreground clusters each moved by its own rigid
transform. Soft correspondences come from feature-space affinities
normalized by a slack-augmented Sinkhorn scheme; transforms come from a
closed-form weighted rigid fit; optional test-time ICP tightens every
transform. Per-point flow is recovered from the segment transforms, so
points of the same body can never drift apart.
"""

from .cluster import ClusterLabeling, dbscan
from .energy import (
    EnergyBreakdown,
    bce_mask_loss,
    chamfer_loss,
    ego_translation_loss,
    inlier_loss,
    rigidity_loss,
    total_energy,
)
from .flowhead import smooth_flow, soft_flow
from .geom import (
    FlowField,
    PointCloud,
    RigidTransform,
    VoxelGrid,
    apply_transform,
    compose,
    invert,
    rotation_about_axis,
    transfer_flow_to_points,
    voxelize,
)
from .metrics import EgoMetrics, FlowMetrics, ego_metrics, flow_metrics, segmentation_counts
from .pipeline import (
    PipelineConfig,
    SceneDecomposition,
    assemble_rigid_flow,
    infer_rigid_flow,
    preprocess,
    with_height_mask,
    with_xyz_features,
)
from .refine import IcpConfig, IcpResult, icp_refine, refine_scene
from .rigidfit import (
    WeightedCorrespondenceSet,
    estimate_ego_motion,
    fit_cluster_transform,
    weighted_kabsch,
)
from .synthetic import SceneSpec, SyntheticScene, generate_scene, random_transform
from .transport import AssignmentMatrix, sinkhorn, soft_assignment, soft_correspondences

__version__ = "0.1.0"

__all__ = [
    "AssignmentMatrix",
    "ClusterLabeling",
    "EgoMetrics",
    "EnergyBreakdown",
    "FlowField",
    "FlowMetrics",
    "IcpConfig",
    "IcpResult",
    "PipelineConfig",
    "PointCloud",
    "RigidTransform",
    "SceneDecomposition",
    "SceneSpec",
    "SyntheticScene",
    "VoxelGrid",
    "WeightedCorrespondenceSet",
    "apply_transform",
    "assemble_rigid_flow",
    "bce_mask_loss",
    "chamfer_loss",
    "compose",
    "dbscan",
    "ego_metrics",
    "ego_translation_loss",
    "estimate_ego_motion",
    "fit_cluster_transform",
    "flow_metrics",
    "generate_scene",
    "icp_refine",
    "infer_rigid_flow",
    "inlier_loss",
    "invert",
    "preprocess",
    "random_transform",
    "refine_scene",
    "rigidity_loss",
    "rotation_about_axis",
    "segmentation_counts",
    "sinkhorn",
    "smooth_flow",
    "soft_correspondences",
    "soft_assignment",
    "soft_flow",
    "total_energy",
    "transfer_flow_to_points",
    "voxelize",
    "weighted_kabsch",
    "with_height_mask",
    "with_xyz_features",
]
