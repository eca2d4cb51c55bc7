"""File formats and configuration.

Clouds are headerless little-endian float32 (x, y, z, intensity) streams;
labels are line-oriented text records "cx cy cz w l h yaw class_id [score]"
with '#' comments. Config files are flat key = value text with angles in
degrees; everything is radians internally, converted once at parse time.
A value the config dataclasses refuse is restated in keys and file units
from the refusal's fields (`geometry._Refused`), never from its message.

Every file this package writes goes through `_replace_file`, which replaces
an existing output with a new file instead of truncating it in place.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .geometry import Box3D, BoxSet, DomainTag, Scene, _JointRefused, _Refused
from .pipeline import DatasetBundle, PipelineConfig


class MalformedRecord(ValueError):
    """A cloud or label file that cannot be read or written: a cloud cut
    mid-record or not finite in float32, or a label line that is not UTF-8
    or does not parse, whose message then starts "line N: "."""


RECORD_BYTES = 16  # four little-endian float32 per point


def _replace_file(path: str | Path, data: bytes | np.ndarray) -> None:
    """Write `data` to `path` as a new file, replacing any regular file there.

    Callers validate and format before calling, so a refused write never
    touches the path. Symlinks are resolved first, so the link stays and its
    target is replaced. The old file is unlinked rather than truncated:
    ext4, XFS and btrfs start writeback when a file truncated to zero is
    closed, and the next truncation of it waits for that writeback, so
    rewriting an output in place waits on the disk. A reader that has the
    old file open, or a hard link to it, keeps the old bytes. A device or
    FIFO is written in place, never deleted; a directory raises OSError.
    """
    target = Path(path).resolve()
    if target.is_file():
        target.unlink(missing_ok=True)
    target.write_bytes(data)


def read_cloud(path: str | Path, domain_tag: DomainTag = DomainTag.SOURCE) -> Scene:
    raw = Path(path).read_bytes()
    if len(raw) % RECORD_BYTES != 0:
        raise MalformedRecord(f"{path}: {len(raw)} bytes is not a multiple of {RECORD_BYTES}")
    # widening keeps finiteness, so the float32 values are checked: half the bytes
    data = np.frombuffer(raw, dtype="<f4")
    if not np.isfinite(data).all():
        raise MalformedRecord(f"{path}: cloud contains non-finite values")
    return Scene(data.astype(np.float64).reshape(-1, 4), [], domain_tag)


def write_cloud(scene: Scene, path: str | Path) -> None:
    # check the float32 values: a finite coordinate beyond float32 range
    # casts to inf, which read_cloud would reject
    with np.errstate(over="ignore"):
        data = scene.points.astype("<f4")
    if not np.isfinite(data).all():
        raise MalformedRecord("refusing to write points that are not finite in float32")
    _replace_file(path, data)


def read_labels(path: str | Path) -> BoxSet:
    rows, lines = [], []
    # a byte that is not UTF-8 reads as a lone surrogate, refused by its line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(raw[exc.start]) - 0xDC00
                raise MalformedRecord(f"line {lineno}: byte 0x{byte:02x} is not UTF-8") from None
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            tokens = text.split()
            if len(tokens) not in (8, 9):
                raise MalformedRecord(f"line {lineno}: expected 8 or 9 fields, got {len(tokens)}")
            try:
                row = [float(t) for t in tokens]
            except ValueError as exc:
                raise MalformedRecord(f"line {lineno}: {exc}") from exc
            if len(row) == 8:
                row.append(math.nan)  # no score
            elif math.isnan(row[8]):
                raise MalformedRecord(f"line {lineno}: score must be in [0, 1], got {row[8]}")
            rows.append(row)
            lines.append(lineno)
    try:
        return BoxSet(rows)
    except ValueError:
        for lineno, row in zip(lines, rows):
            try:
                BoxSet([row])
            except ValueError as exc:
                raise MalformedRecord(f"line {lineno}: {exc}") from exc
        raise


def write_labels(boxes: Sequence[Box3D], path: str | Path) -> None:
    lines = []
    for row in BoxSet.of(boxes).data.tolist():
        line = "%.9g %.9g %.9g %.9g %.9g %.9g %.9g %d" % tuple(row[:8])
        lines.append(line if math.isnan(row[8]) else f"{line} {row[8]:.9g}")
    text = "\n".join(lines) + ("\n" if lines else "")
    _replace_file(path, text.encode("utf-8"))


# Every config key and the PipelineConfig attribute it sets, in file order.
# A numeric path part indexes a tuple. A key ending in _deg holds degrees of
# an attribute in radians.
_CONFIG_KEYS = {
    "source_channels": "source_spec.channels",
    "source_points_per_channel": "source_spec.points_per_channel",
    "source_vfov_min_deg": "source_spec.vfov_min",
    "source_vfov_max_deg": "source_spec.vfov_max",
    "target_channels": "target_spec.channels",
    "target_points_per_channel": "target_spec.points_per_channel",
    "target_vfov_min_deg": "target_spec.vfov_min",
    "target_vfov_max_deg": "target_spec.vfov_max",
    "p_tm": "p_tm",
    "p_am": "p_am",
    "lambda": "lam",
    "epsilon": "perturbation.epsilon",
    "rho": "perturbation.rho",
    "k_sectors": "sectors.k",
    "sector_min_width_deg": "sectors.min_width",
    "sector_max_width_deg": "sectors.max_width",
    "epochs_tm": "epochs_tm",
    "epochs_am": "epochs_am",
    "seed": "seed",
    "pseudo_score_threshold": "pseudo_score_threshold",
    "mode_weight_translate": "perturbation.mode_weights.0",
    "mode_weight_add": "perturbation.mode_weights.1",
    "mode_weight_remove": "perturbation.mode_weights.2",
}
_KEY_OF = {path: key for key, path in _CONFIG_KEYS.items()}


def _part(obj, name: str):
    return obj[int(name)] if isinstance(obj, tuple) else getattr(obj, name)


def _config_value(cfg: PipelineConfig, key: str):
    """The value of a config key in file units."""
    value = functools.reduce(_part, _CONFIG_KEYS[key].split("."), cfg)
    return math.degrees(value) if key.endswith("_deg") else value


def _replaced(obj, changes: dict):
    """A copy of obj with each attribute path in `changes` set to its value.
    Each nested value is rebuilt once, so its joint checks (vfov_min <
    vfov_max, mode weights summing to 1) see all of its changes together."""
    groups = {}  # head -> {rest of path: value}; a leaf's rest is ""
    for path, value in changes.items():
        head, _, rest = path.partition(".")
        groups.setdefault(head, {})[rest] = value
    fields = {
        head: sub[""] if "" in sub else _replaced(_part(obj, head), sub)
        for head, sub in groups.items()
    }
    if isinstance(obj, tuple):
        return tuple(fields.get(str(i), old) for i, old in enumerate(obj))
    return dataclasses.replace(obj, **fields)


def _restated(exc: ValueError, path: str) -> str:
    """exc in file terms: a `_Refused` of fields that keys set is restated
    from its fields with those keys, in their units; other messages are kept."""
    if not isinstance(exc, _Refused):
        return str(exc)
    # the dataclass that refused: the owner of the line's attribute, or of its
    # tuple for a tuple item
    owner = path.split(".")[: -2 if path[-1].isdigit() else -1]
    joint = isinstance(exc, _JointRefused)
    keys = [_KEY_OF.get(".".join([*owner, p])) for p in (exc.paths if joint else [exc.path])]
    if None in keys:
        return str(exc)
    degrees = any(key.endswith("_deg") for key in keys)
    unit = (lambda x: float(f"{math.degrees(x):.9g}")) if degrees else (lambda x: x)
    if not joint:
        return str(_Refused(keys[0], unit(exc.value), unit(exc.lo), unit(exc.hi), exc.above, exc.count))
    if exc.op == "*":
        return f"{' * '.join(keys)} = {unit(exc.value):.9g} must stay below {unit(exc.bound):.9g}"
    return f"{' + '.join(keys)} must sum to {exc.bound:g}, got {exc.value}"


def parse_config(text: str) -> PipelineConfig:
    """Parse flat key = value text into a PipelineConfig. Unknown keys and
    non-finite floats are rejected; values are validated by the config
    dataclasses. A value they refuse is reported at the line after which no
    later line makes the config valid again, with the key and the bound in
    file units where the refused field has a key."""
    defaults = PipelineConfig()
    entries = []  # (line, key, value as written, attribute path, parsed value)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        try:  # each key's parser is the type of its default, int or float
            parsed = type(_config_value(defaults, key))(value)
            if isinstance(parsed, float) and not math.isfinite(parsed):
                raise ValueError(f"{value!r} is not finite")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        parsed = math.radians(parsed) if key.endswith("_deg") else parsed
        entries.append((lineno, key, value, _CONFIG_KEYS[key], parsed))
    # all lines, then ever shorter prefixes until one builds; the defaults do
    for end in range(len(entries), -1, -1):
        try:
            cfg = _replaced(defaults, {path: x for *_, path, x in entries[:end]})
        except ValueError as exc:
            error, (lineno, key, value, path, _) = exc, entries[end - 1]
            continue
        if end == len(entries):
            return cfg
        raise ValueError(f"line {lineno}: {key} = {value}: {_restated(error, path)}") from error


def format_config(cfg: PipelineConfig) -> str:
    """Floats are written with repr, so they read back exactly. Angles in
    degrees are rounded to 9 significant digits, which hides the rounding
    of radians -> degrees for a value that was read from a file. A value not
    finite in file units, such as an angle too large for degrees, raises
    ValueError: parse_config would refuse the file."""
    lines = []
    for key in _CONFIG_KEYS:
        value = _config_value(cfg, key)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} = {value} is not finite")
        if isinstance(value, float):
            value = f"{value:.9g}" if key.endswith("_deg") else repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def load_config(path: str | Path) -> PipelineConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def save_config(cfg: PipelineConfig, path: str | Path) -> None:
    _replace_file(path, format_config(cfg).encode("utf-8"))


# Each manifest role (its directory and DatasetBundle field), the tag of its
# scenes, and whether its clouds carry labels: "required", "optional" or "none".
_ROLES = (
    ("source", DomainTag.SOURCE, "optional"),
    ("target_labeled", DomainTag.TARGET_LABELED, "required"),
    ("target_unlabeled", DomainTag.TARGET_UNLABELED, "none"),
)


def _load_role(directory: Path, domain_tag: DomainTag, labels: str) -> list[Scene]:
    scenes = []
    for cloud_path in sorted(directory.glob("*.bin")):
        scene = read_cloud(cloud_path, domain_tag)
        label_path = cloud_path.with_suffix(".txt")
        if labels == "required" and not label_path.exists():
            raise FileNotFoundError(f"missing labels for {cloud_path}")
        if labels != "none" and label_path.exists():
            scene.boxes = read_labels(label_path)
        scenes.append(scene)
    return scenes


def load_bundle(root: str | Path) -> DatasetBundle:
    """Load the scenes of a manifest directory: source/*.bin (labels
    optional), target_labeled/*.bin + .txt, target_unlabeled/*.bin."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"manifest directory not found: {root}")
    return DatasetBundle(
        **{role: _load_role(root / role, tag, labels) for role, tag, labels in _ROLES}
    )


def save_manifest(bundle: DatasetBundle, cfg: PipelineConfig, root: str | Path) -> None:
    """Write a manifest directory: load_bundle reads back its scenes and
    load_config its config.txt. Raises FileExistsError, before writing
    anything, when a role directory already holds clouds: load_bundle would
    mix them into the new bundle."""
    root = Path(root)
    for role, _, _ in _ROLES:
        if any((root / role).glob("*.bin")):
            raise FileExistsError(f"{root / role} already holds *.bin clouds")
    for role, _, labels in _ROLES:
        directory = root / role
        directory.mkdir(parents=True, exist_ok=True)
        for i, scene in enumerate(getattr(bundle, role)):
            write_cloud(scene, directory / f"{i:04d}.bin")
            if labels != "none":
                write_labels(scene.boxes, directory / f"{i:04d}.txt")
    save_config(cfg, root / "config.txt")
