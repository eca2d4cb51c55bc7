"""LiDAR point-cloud domain augmentation toolkit.

Sensor distribution matching, polar sector mixing with boundary-aware box
filtering, adversarial point perturbation with a consistency loss, and a
two-stage teacher-student pipeline over scene collections.
"""

from .adversarial import (
    GradientField,
    GradientProvider,
    OneSidedEmpty,
    PerturbationConfig,
    adversarial_perturb_detailed,
    advmix_sample,
    consistency_loss,
    perturbation_delta,
    point_mixup,
    surrogate_loss,
)
from .geometry import (
    Box3D,
    BoxSet,
    DomainTag,
    Scene,
    apply_rigid_transform,
    assign_points,
    normalize_yaw,
    points_in_box,
    spherical_from_xyz,
    wrap_azimuth,
    xyz_from_spherical,
)
from .oracle import DetectorOracle, GridClusterOracle
from .pipeline import (
    DatasetBundle,
    EpochStats,
    PipelineConfig,
    StageReport,
    generate_pseudo_labels,
    run_advmix_stage,
    run_full,
    run_targetmix_stage,
)
from .sector_mix import (
    SectorMask,
    SectorParams,
    box_crosses_boundary,
    boxes_cross_boundary,
    enhanced_filter,
    polar_mix,
    sample_sectors,
    targetmix_sample,
)
from .sensor import (
    NUSCENES_32,
    WAYMO_64,
    RangeImage,
    SensorSpec,
    UpsampleRequired,
    backproject,
    build_range_image,
    downsample_factors,
    downsample_range_image,
    lidar_distribution_match,
)
from .synth import synthesize_dataset, synthesize_scene

__version__ = "0.1.0"
