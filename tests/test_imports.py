"""The runtime import graph is numpy only; scipy is a test dependency. The
package's public names are pinned."""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType


def test_import_does_not_load_scipy():
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    code = (
        "import sys, lidarmix, lidarmix.cli, lidarmix.gradcheck; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_public_names():
    # a public symbol added to or deleted from the package shows up in this
    # list; submodules are left out, since other imports bind them
    import lidarmix

    public = (n for n, v in vars(lidarmix).items() if not isinstance(v, ModuleType))
    assert sorted(n for n in public if not n.startswith("_")) == [
        "Box3D",
        "BoxSet",
        "DatasetBundle",
        "DetectorOracle",
        "DomainTag",
        "EpochStats",
        "GradientField",
        "GradientProvider",
        "GridClusterOracle",
        "NUSCENES_32",
        "OneSidedEmpty",
        "PerturbationConfig",
        "PipelineConfig",
        "RangeImage",
        "Scene",
        "SectorMask",
        "SectorParams",
        "SensorSpec",
        "StageReport",
        "UpsampleRequired",
        "WAYMO_64",
        "adversarial_perturb_detailed",
        "advmix_sample",
        "apply_rigid_transform",
        "assign_points",
        "backproject",
        "box_crosses_boundary",
        "boxes_cross_boundary",
        "build_range_image",
        "consistency_loss",
        "downsample_factors",
        "downsample_range_image",
        "enhanced_filter",
        "generate_pseudo_labels",
        "lidar_distribution_match",
        "normalize_yaw",
        "perturbation_delta",
        "point_mixup",
        "points_in_box",
        "polar_mix",
        "run_advmix_stage",
        "run_full",
        "run_targetmix_stage",
        "sample_sectors",
        "spherical_from_xyz",
        "surrogate_loss",
        "synthesize_dataset",
        "synthesize_scene",
        "targetmix_sample",
        "wrap_azimuth",
        "xyz_from_spherical",
    ]
