"""Two-stage augmentation pipeline over scene collections.

Stage 1 distribution-matches the source scenes once, then trains on a
mix of matched-source, target-labeled, and polar-mixed samples. Stage 2
pseudo-labels the unlabeled target scenes with the stage-1 oracle acting
as a frozen teacher, perturbs them adversarially, and evaluates the
student on mixup pairs with a weighted consistency term.

The reference oracle has no trainable parameters, so "update the model"
steps are realized as loss evaluation plus report accumulation; a real
detector plugs in via the DetectorOracle / GradientProvider contracts.
"""

from __future__ import annotations

import json
import logging
import math
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .adversarial import (
    OneSidedEmpty,
    PerturbationConfig,
    adversarial_perturb_detailed,
    advmix_sample,
    consistency_loss,
)
from .geometry import (
    BoxSet, DomainTag, Scene, _check_count, _check_real, _is_integer, apply_rigid_transform
)
from .oracle import DetectorOracle, GridClusterOracle
from .sector_mix import SectorParams, targetmix_sample
from .sensor import NUSCENES_32, WAYMO_64, SensorSpec, lidar_distribution_match

logger = logging.getLogger("lidarmix.pipeline")

# Set by run_full for the length of one call: each pseudo-labeled scene it
# made, keyed by the scene object, mapped to the teacher's full prediction.
_teacher_predictions: ContextVar[dict[Scene, BoxSet] | None] = ContextVar(
    "_teacher_predictions", default=None
)


@dataclass
class DatasetBundle:
    source: list[Scene]
    target_labeled: list[Scene]
    target_unlabeled: list[Scene]


@dataclass(frozen=True)
class PipelineConfig:
    source_spec: SensorSpec = WAYMO_64
    target_spec: SensorSpec = NUSCENES_32
    p_tm: float = 0.4
    p_am: float = 0.6
    lam: float = 1.0
    perturbation: PerturbationConfig = PerturbationConfig()
    sectors: SectorParams = SectorParams()
    epochs_tm: int = 1
    epochs_am: int = 1
    pseudo_score_threshold: float = 0.3
    seed: int = 0

    def __post_init__(self):
        upper = {"p_tm": 1.0, "p_am": 1.0, "lam": math.inf, "pseudo_score_threshold": 1.0}
        for name, hi in upper.items():
            object.__setattr__(self, name, _check_real(name, getattr(self, name), 0.0, hi))
        _check_count("epochs_tm", self.epochs_tm)
        _check_count("epochs_am", self.epochs_am)
        object.__setattr__(self, "seed", _check_seed(self.seed))


@dataclass
class EpochStats:
    epoch: int
    scenes_processed: int = 0
    mixed_scenes: int = 0
    mixed_fraction: float = 0.0
    mean_detection_loss: float = 0.0
    mean_consistency_loss: float = 0.0
    mean_total_loss: float = 0.0
    consistency_samples: int = 0
    consistency_skipped: int = 0
    points_total: int = 0
    points_candidates: int = 0
    points_perturbed: int = 0
    points_added: int = 0
    points_removed: int = 0


@dataclass
class StageReport:
    stage: str
    seed: int
    epochs: list[EpochStats] = field(default_factory=list)
    pseudo_boxes_kept: int = 0
    pseudo_boxes_discarded: int = 0
    max_delta_norm_error: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _check_seed(seed: int) -> int:
    """The seed as a Python int, which JSON reports need; ValueError unless
    it is an integer in [-2**63, 2**64)."""
    if not (_is_integer(seed) and -(1 << 63) <= int(seed) < 1 << 64):
        raise ValueError(f"seed must be an integer in [-2**63, 2**64), got {seed!r}")
    return int(seed)


def seeded_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """Every random stream in the package starts here. A seed is in [-2**63,
    2**64); a negative one selects the stream of its unsigned 64-bit twin, a
    non-negative one with no spawn key gives default_rng(seed)."""
    entropy = _check_seed(seed) & 0xFFFFFFFFFFFFFFFF
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=spawn_key))


def _detection_loss(oracle: DetectorOracle, scene: Scene) -> float:
    if not scene.boxes:
        return 0.0
    loss, _ = oracle.loss_and_gradient(scene, scene.boxes)
    return _check_real("loss", float(loss))


def _close_epoch(
    report: StageReport, stats: EpochStats, det_losses: list, total_losses: list
) -> None:
    """Set the epoch's mixed fraction and mean losses, then append and log it."""
    stats.mixed_fraction = stats.mixed_scenes / stats.scenes_processed
    stats.mean_detection_loss = float(np.mean(det_losses))
    stats.mean_total_loss = float(np.mean(total_losses))
    report.epochs.append(stats)
    logger.info(
        "stage=%s epoch=%d scenes=%d mixed=%.3f det_loss=%.6f cons_loss=%.6f "
        "perturbed=%d added=%d removed=%d",
        report.stage,
        stats.epoch,
        stats.scenes_processed,
        stats.mixed_fraction,
        stats.mean_detection_loss,
        stats.mean_consistency_loss,
        stats.points_perturbed,
        stats.points_added,
        stats.points_removed,
    )


def _slot_pairs(
    rng: np.random.Generator, a: Sequence[Scene], b: Sequence[Scene]
) -> Iterator[tuple[Scene, Scene, Scene]]:
    """One epoch of slots: every scene of `a` and of `b` once, in a seeded
    permutation order, each paired with a scene drawn uniformly from the
    other set. Yields (scene of a, scene of b, the slot's own scene)."""
    n_a = len(a)
    for slot in rng.permutation(n_a + len(b)).tolist():
        if slot < n_a:
            yield a[slot], b[int(rng.integers(len(b)))], a[slot]
        else:
            own = b[slot - n_a]
            yield a[int(rng.integers(n_a))], own, own


def run_targetmix_stage(
    cfg: PipelineConfig,
    source_scenes: Sequence[Scene],
    target_labeled_scenes: Sequence[Scene],
    oracle: DetectorOracle,
) -> StageReport:
    """Stage 1: match all source scenes to the target sensor once, then per
    epoch walk the source + target slots (`_slot_pairs`), drawing a polar mix
    of the slot's pair with probability p_tm and the slot's own scene
    otherwise, and evaluate the oracle's detection loss on each."""
    if not source_scenes or not target_labeled_scenes:
        raise ValueError("stage 1 needs non-empty source and target-labeled sets")
    rng = seeded_rng(cfg.seed, 1)
    matched = [lidar_distribution_match(s, cfg.source_spec, cfg.target_spec) for s in source_scenes]
    report = StageReport("targetmix", cfg.seed)
    for epoch in range(1, cfg.epochs_tm + 1):
        stats = EpochStats(epoch=epoch)
        losses = []
        for source, target, own in _slot_pairs(rng, matched, target_labeled_scenes):
            scene = targetmix_sample(rng, cfg.p_tm, source, target, cfg.sectors)
            if scene.domain_tag is DomainTag.MIXED:
                stats.mixed_scenes += 1
            else:
                scene = own
            losses.append(_detection_loss(oracle, scene))
            stats.scenes_processed += 1
            stats.points_total += scene.n_points
        _close_epoch(report, stats, losses, losses)
    return report


def generate_pseudo_labels(
    oracle: DetectorOracle,
    unlabeled_scenes: Sequence[Scene],
    threshold: float,
) -> list[Scene]:
    """Attach the oracle's predictions with score >= threshold to each
    scene; scenes stay TARGET_UNLABELED with the pseudo flag set. A box
    without a score is dropped."""
    _check_real("threshold", threshold, 0.0, 1.0)
    teacher = _teacher_predictions.get()
    annotated = []
    for scene in unlabeled_scenes:
        preds = BoxSet.of(oracle.predict(scene))
        kept = preds[preds.data[:, 8] >= threshold]  # a missing score is NaN
        pseudo = Scene(scene.points.copy(), kept, DomainTag.TARGET_UNLABELED, pseudo_labeled=True)
        if teacher is not None:
            teacher[pseudo] = preds
        annotated.append(pseudo)
    return annotated


def _random_rigid_params(rng: np.random.Generator) -> tuple[bool, bool, float, float]:
    return (
        bool(rng.random() < 0.5),
        bool(rng.random() < 0.5),
        float(rng.uniform(-math.pi / 4, math.pi / 4)),
        float(rng.uniform(0.95, 1.05)),
    )


def run_advmix_stage(
    cfg: PipelineConfig,
    target_labeled: Sequence[Scene],
    pseudo_labeled: Sequence[Scene],
    oracle: DetectorOracle,
) -> StageReport:
    """Stage 2: per sample, perturb an unlabeled scene adversarially along
    the oracle's gradient, form the (AM, PM) branch pair (mixup with a
    labeled scene with probability p_am), and evaluate the oracle's
    detection losses plus the weighted consistency term. The one oracle is
    both the frozen teacher and the student: nothing trains.

    The labeled scene of each sample gets a random rigid transform; the
    unlabeled one does not. One-sided-empty consistency samples are
    skipped: they count in consistency_skipped and stay out of
    mean_consistency_loss.

    Under `run_full`, an unmixed sample's AM branch is the pseudo scene
    itself: its prediction is the teacher's, which `run_full` hands over,
    and its detection loss is the one the perturbation just took against
    the same boxes, `PerturbOutcome.loss` (a scene without points took none
    and is asked). Called on its own, the stage asks the oracle for both
    branches of every sample. A non-finite loss raises ValueError.
    """
    if not target_labeled or not pseudo_labeled:
        raise ValueError("stage 2 needs non-empty target-labeled and pseudo-labeled sets")
    teacher = _teacher_predictions.get() or {}
    rng = seeded_rng(cfg.seed, 2)
    report = StageReport("advmix", cfg.seed)
    report.pseudo_boxes_kept = sum(len(s.boxes) for s in pseudo_labeled)
    for epoch in range(1, cfg.epochs_am + 1):
        stats = EpochStats(epoch=epoch)
        det_losses = []
        total_losses = []
        cons_values = []
        for labeled, unlabeled, _ in _slot_pairs(rng, target_labeled, pseudo_labeled):
            labeled = apply_rigid_transform(labeled, *_random_rigid_params(rng))
            adv, outcome = adversarial_perturb_detailed(
                unlabeled, unlabeled.boxes, oracle, cfg.perturbation, rng
            )
            stats.points_total += unlabeled.n_points
            stats.points_candidates += outcome.candidates
            stats.points_perturbed += outcome.translated
            stats.points_added += outcome.added
            stats.points_removed += outcome.removed
            report.max_delta_norm_error = max(
                report.max_delta_norm_error, outcome.max_norm_deviation
            )

            scene_am, scene_pm, mixed = advmix_sample(rng, cfg.p_am, labeled, adv, unlabeled)
            if mixed:
                stats.mixed_scenes += 1
            # Unmixed, AM is the pseudo scene itself: under run_full the
            # teacher has predicted it and the perturbation took its loss.
            preds_am = None if mixed else teacher.get(scene_am)
            if preds_am is None or outcome.loss is None:  # a scene without points took none
                det_am = _detection_loss(oracle, scene_am)
            else:
                det_am = outcome.loss
            det = det_am + _detection_loss(oracle, scene_pm)
            det_losses.append(det)
            try:
                if preds_am is None:
                    preds_am = oracle.predict(scene_am)
                cons = consistency_loss(preds_am, oracle.predict(scene_pm))
                cons_values.append(cons)
                total_losses.append(det + cfg.lam * cons)
            except OneSidedEmpty:
                stats.consistency_skipped += 1
                total_losses.append(det)
            stats.scenes_processed += 1
        if cons_values:
            stats.mean_consistency_loss = float(np.mean(cons_values))
            stats.consistency_samples = len(cons_values)
        _close_epoch(report, stats, det_losses, total_losses)
    return report


def run_full(
    cfg: PipelineConfig, datasets: DatasetBundle, oracle: DetectorOracle | None = None
) -> tuple[StageReport, StageReport]:
    """Stage 1, pseudo-labeling, then stage 2. One oracle object plays every
    role: the stage-1 detector, the teacher that pseudo-labels and perturbs,
    and the student; nothing trains, so a copy would be equal. An empty role
    raises ValueError before any stage runs.

    For the length of the call, the teacher's full prediction on each pseudo
    scene is kept, keyed by the scene object, for stage 2 to reuse (see
    `run_advmix_stage`); nothing is kept from one call to the next. Their
    box count less the stage-2 `pseudo_boxes_kept` is the report's
    `pseudo_boxes_discarded`."""
    empty = [role for role, scenes in vars(datasets).items() if not scenes]
    if empty:
        raise ValueError(f"run_full needs scenes in every role; empty: {', '.join(empty)}")
    oracle = oracle if oracle is not None else GridClusterOracle()
    report_tm = run_targetmix_stage(cfg, datasets.source, datasets.target_labeled, oracle)
    teacher: dict[Scene, BoxSet] = {}
    token = _teacher_predictions.set(teacher)
    try:
        threshold = cfg.pseudo_score_threshold
        pseudo = generate_pseudo_labels(oracle, datasets.target_unlabeled, threshold)
        report_am = run_advmix_stage(cfg, datasets.target_labeled, pseudo, oracle)
    finally:
        _teacher_predictions.reset(token)
    predicted = sum(len(preds) for preds in teacher.values())
    report_am.pseudo_boxes_discarded = predicted - report_am.pseudo_boxes_kept
    logger.info(
        "pipeline done: pseudo kept=%d discarded=%d",
        report_am.pseudo_boxes_kept,
        report_am.pseudo_boxes_discarded,
    )
    return report_tm, report_am
