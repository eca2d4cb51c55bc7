"""File formats and configuration.

Clouds are headerless little-endian float32 (x, y, z, intensity) streams;
labels are line-oriented text records "cx cy cz w l h yaw class_id [score]"
with '#' comments. Config files are flat key = value text with angles in
degrees; everything is radians internally, converted once at parse time.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .adversarial import PerturbationConfig
from .geometry import Box3D, DomainTag, Scene
from .pipeline import DatasetBundle, PipelineConfig
from .sector_mix import SectorParams
from .sensor import SensorSpec


class TruncatedFile(ValueError):
    """Cloud file byte length is not a multiple of the record size."""


class NonFiniteValue(ValueError):
    """A cloud holds NaN or infinite values."""


class MalformedRecord(ValueError):
    """A label record could not be parsed."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigError(ValueError):
    """Invalid configuration key or value."""


RECORD_BYTES = 16  # four little-endian float32 per point


def read_cloud(path: str | Path, domain_tag: DomainTag = DomainTag.SOURCE) -> Scene:
    raw = Path(path).read_bytes()
    if len(raw) % RECORD_BYTES != 0:
        raise TruncatedFile(
            f"{path}: {len(raw)} bytes is not a multiple of {RECORD_BYTES}"
        )
    data = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    if not np.isfinite(data).all():
        raise NonFiniteValue(f"{path}: cloud contains non-finite values")
    return Scene(data.reshape(-1, 4), [], domain_tag)


def write_cloud(scene: Scene, path: str | Path) -> None:
    if not np.isfinite(scene.points).all():
        raise NonFiniteValue("refusing to write non-finite points")
    Path(path).write_bytes(scene.points.astype("<f4").tobytes())


def read_labels(path: str | Path) -> list[Box3D]:
    boxes = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            tokens = text.split()
            if len(tokens) not in (8, 9):
                raise MalformedRecord(lineno, f"expected 8 or 9 fields, got {len(tokens)}")
            try:
                cx, cy, cz, w, l, h, yaw = (float(t) for t in tokens[:7])
                class_id = int(float(tokens[7]))
                score = float(tokens[8]) if len(tokens) == 9 else None
                boxes.append(Box3D(cx, cy, cz, w, l, h, yaw, class_id, score))
            except ValueError as exc:
                raise MalformedRecord(lineno, str(exc)) from exc
    return boxes


def write_labels(boxes: Sequence[Box3D], path: str | Path) -> None:
    lines = []
    for b in boxes:
        fields = [f"{v:.9g}" for v in (b.cx, b.cy, b.cz, b.w, b.l, b.h, b.yaw)]
        fields.append(str(b.class_id))
        if b.score is not None:
            fields.append(f"{b.score:.9g}")
        lines.append(" ".join(fields))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _config_values(cfg: PipelineConfig) -> dict:
    """Every config key with its value in file units, in file order."""
    return {
        "source_channels": cfg.source_spec.channels,
        "source_points_per_channel": cfg.source_spec.points_per_channel,
        "source_vfov_min_deg": math.degrees(cfg.source_spec.vfov_min),
        "source_vfov_max_deg": math.degrees(cfg.source_spec.vfov_max),
        "target_channels": cfg.target_spec.channels,
        "target_points_per_channel": cfg.target_spec.points_per_channel,
        "target_vfov_min_deg": math.degrees(cfg.target_spec.vfov_min),
        "target_vfov_max_deg": math.degrees(cfg.target_spec.vfov_max),
        "p_tm": cfg.p_tm,
        "p_am": cfg.p_am,
        "lambda": cfg.lam,
        "epsilon": cfg.perturbation.epsilon,
        "rho": cfg.perturbation.rho,
        "k_sectors": cfg.sectors.k,
        "sector_min_width_deg": math.degrees(cfg.sectors.min_width),
        "sector_max_width_deg": math.degrees(cfg.sectors.max_width),
        "epochs_tm": cfg.epochs_tm,
        "epochs_am": cfg.epochs_am,
        "seed": cfg.seed,
        "pseudo_score_threshold": cfg.pseudo_score_threshold,
        "mode_weight_translate": cfg.perturbation.mode_weights[0],
        "mode_weight_add": cfg.perturbation.mode_weights[1],
        "mode_weight_remove": cfg.perturbation.mode_weights[2],
        "smooth_l1_knee": cfg.smooth_l1_knee,
        "random_stride": cfg.random_stride,
        "augment_labeled": cfg.augment_labeled,
    }


def parse_config(text: str, defaults: PipelineConfig | None = None) -> PipelineConfig:
    """Parse flat key = value text into a PipelineConfig. Unknown keys are
    rejected; values are validated by the config dataclasses."""
    values = _config_values(defaults if defaults is not None else PipelineConfig())
    # each key's parser is the type of its default; bool("false") is True,
    # so booleans get _parse_bool
    parsers = {
        key: _parse_bool if isinstance(value, bool) else type(value)
        for key, value in _config_values(PipelineConfig()).items()
    }
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in parsers:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = parsers[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    try:
        return PipelineConfig(
            source_spec=SensorSpec.from_degrees(
                values["source_channels"],
                values["source_points_per_channel"],
                values["source_vfov_min_deg"],
                values["source_vfov_max_deg"],
            ),
            target_spec=SensorSpec.from_degrees(
                values["target_channels"],
                values["target_points_per_channel"],
                values["target_vfov_min_deg"],
                values["target_vfov_max_deg"],
            ),
            p_tm=values["p_tm"],
            p_am=values["p_am"],
            lam=values["lambda"],
            perturbation=PerturbationConfig(
                epsilon=values["epsilon"],
                rho=values["rho"],
                mode_weights=(
                    values["mode_weight_translate"],
                    values["mode_weight_add"],
                    values["mode_weight_remove"],
                ),
            ),
            sectors=SectorParams(
                k=values["k_sectors"],
                min_width=math.radians(values["sector_min_width_deg"]),
                max_width=math.radians(values["sector_max_width_deg"]),
            ),
            epochs_tm=values["epochs_tm"],
            epochs_am=values["epochs_am"],
            pseudo_score_threshold=values["pseudo_score_threshold"],
            seed=values["seed"],
            smooth_l1_knee=values["smooth_l1_knee"],
            random_stride=values["random_stride"],
            augment_labeled=values["augment_labeled"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def format_config(cfg: PipelineConfig) -> str:
    """Floats are written with repr, so they read back exactly. Angles in
    degrees are rounded to 9 significant digits, which hides the rounding
    of radians -> degrees for a value that was read from a file."""
    lines = []
    for key, value in _config_values(cfg).items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = f"{value:.9g}" if key.endswith("_deg") else repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def load_config(path: str | Path, defaults: PipelineConfig | None = None) -> PipelineConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"), defaults)


def save_config(cfg: PipelineConfig, path: str | Path) -> None:
    Path(path).write_text(format_config(cfg), encoding="utf-8")


def _load_role(
    directory: Path, domain_tag: DomainTag, labels: str
) -> list[Scene]:
    """labels: 'required', 'optional', or 'none'."""
    scenes = []
    for cloud_path in sorted(directory.glob("*.bin")):
        scene = read_cloud(cloud_path, domain_tag)
        label_path = cloud_path.with_suffix(".txt")
        if labels == "required" and not label_path.exists():
            raise FileNotFoundError(f"missing labels for {cloud_path}")
        if labels in ("required", "optional") and label_path.exists():
            scene.boxes = read_labels(label_path)
        scenes.append(scene)
    return scenes


def load_manifest(root: str | Path) -> tuple[DatasetBundle, PipelineConfig]:
    """Load a manifest directory: source/*.bin (labels optional),
    target_labeled/*.bin + .txt, target_unlabeled/*.bin, config.txt."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"manifest directory not found: {root}")
    cfg = load_config(root / "config.txt")
    bundle = DatasetBundle(
        source=_load_role(root / "source", DomainTag.SOURCE, labels="optional"),
        target_labeled=_load_role(
            root / "target_labeled", DomainTag.TARGET_LABELED, labels="required"
        ),
        target_unlabeled=_load_role(
            root / "target_unlabeled", DomainTag.TARGET_UNLABELED, labels="none"
        ),
    )
    return bundle, cfg


def save_manifest(bundle: DatasetBundle, cfg: PipelineConfig, root: str | Path) -> None:
    root = Path(root)
    for role, scenes, with_labels in (
        ("source", bundle.source, True),
        ("target_labeled", bundle.target_labeled, True),
        ("target_unlabeled", bundle.target_unlabeled, False),
    ):
        directory = root / role
        directory.mkdir(parents=True, exist_ok=True)
        for i, scene in enumerate(scenes):
            write_cloud(scene, directory / f"{i:04d}.bin")
            if with_labels:
                write_labels(scene.boxes, directory / f"{i:04d}.txt")
    save_config(cfg, root / "config.txt")
