"""Adversarial point augmentation and the consistency loss.

Points inside pseudo-label boxes are nudged along the normalized negative
gradient of a detection loss. The bundled surrogate loss aligns the in-box
point centroid (in box frame) with the box center through a smooth-L1
penalty; its gradient is closed form, and any real detector can stand in
via the GradientProvider contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .geometry import Box3D, DomainTag, Scene, points_in_box


class EmptyBoxList(ValueError):
    """The surrogate loss needs at least one box."""


class OneSidedEmpty(ValueError):
    """Exactly one prediction set is empty; nearest-box distances are
    undefined. Pipeline policy: skip the sample."""


@dataclass
class GradientField:
    """Per-point gradients of a detection loss with respect to point
    coordinates, aligned index-for-index with a scene's points."""

    grads: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grads, dtype=np.float64)
        if g.size == 0:
            g = g.reshape(0, 3)
        if g.ndim != 2 or g.shape[1] != 3:
            raise ValueError(f"gradients must have shape (N, 3), got {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("gradient field contains non-finite entries")
        self.grads = g

    def __len__(self) -> int:
        return self.grads.shape[0]


@dataclass(frozen=True)
class PerturbationConfig:
    """Magnitude epsilon (meters), per-point selection probability rho,
    and mode weights for translate / add / remove."""

    epsilon: float = 0.001
    rho: float = 0.5
    mode_weights: tuple[float, float, float] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        w = tuple(float(x) for x in self.mode_weights)
        if len(w) != 3 or any(x < 0 for x in w):
            raise ValueError(f"mode_weights must be 3 non-negative values, got {w}")
        total = sum(w)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mode_weights must sum to 1, got {total}")
        object.__setattr__(self, "mode_weights", tuple(x / total for x in w))


class GradientProvider(Protocol):
    """Anything that evaluates a detection loss and its exact per-point
    coordinate gradient on a scene against a box list."""

    def loss_and_gradient(
        self, scene: Scene, boxes: Sequence[Box3D]
    ) -> tuple[float, GradientField]: ...


def _smooth_l1(r: float, knee: float) -> tuple[float, float]:
    """Value and derivative of the smooth-L1 penalty at radius r."""
    if r < knee:
        return 0.5 * r * r / knee, r / knee
    return r - 0.5 * knee, 1.0


def surrogate_loss(
    scene: Scene, boxes: Sequence[Box3D], knee: float = 1.0
) -> tuple[float, GradientField]:
    """Centroid-alignment detection loss with analytic gradient.

    Per box, the in-box points' centroid is expressed in the box frame and
    its distance to the box center is penalized with smooth-L1; the loss is
    the mean over boxes (empty boxes contribute 0). The returned field is
    the exact gradient with respect to each point's world coordinates,
    zero for points outside every box.
    """
    boxes = list(boxes)
    if not boxes:
        raise EmptyBoxList("surrogate loss needs at least one box")
    if not knee > 0:
        raise ValueError(f"knee must be > 0, got {knee}")
    grads = np.zeros((scene.n_points, 3))
    total = 0.0
    for box in boxes:
        idx = points_in_box(scene, box)
        if idx.size == 0:
            continue
        rot = box.rotation()
        local = (scene.xyz[idx] - box.center()) @ rot
        centroid = local.mean(axis=0)
        r = float(np.linalg.norm(centroid))
        value, slope = _smooth_l1(r, knee)
        total += value
        if r > 0.0:
            # d(loss)/d(centroid), then chain through the mean and rotation.
            u = (slope / r) * centroid
            grads[idx] += (u / idx.size) @ rot.T
    n = len(boxes)
    return total / n, GradientField(grads / n)


def perturbation_delta(field: GradientField, epsilon: float) -> np.ndarray:
    """Per-point displacement of magnitude epsilon along the normalized
    negative loss gradient; zero where the gradient vanishes."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    g = field.grads
    norms = np.linalg.norm(g, axis=1)
    delta = np.zeros_like(g)
    nz = norms > 0.0
    delta[nz] = -epsilon * g[nz] / norms[nz, None]
    return delta


@dataclass
class PerturbOutcome:
    """Bookkeeping from one adversarial_perturb_detailed call."""

    candidates: int = 0
    translated: int = 0
    added: int = 0
    removed: int = 0
    max_norm_deviation: float = 0.0


def adversarial_perturb_detailed(
    scene: Scene,
    pseudo_boxes: Sequence[Box3D],
    provider: GradientProvider,
    cfg: PerturbationConfig,
    rng: np.random.Generator,
) -> tuple[Scene, PerturbOutcome]:
    """Perturb points inside the pseudo-label boxes.

    Each in-box point is selected independently with probability rho; a
    selected point is translated by delta, duplicated at its position plus
    delta, or removed, according to the mode weights. Selected points with
    a zero gradient have nothing to move along, so translate and add skip
    them. Points outside every box are untouched, and the pseudo boxes ride
    along as the output's labels. Returns the perturbed scene and its
    counters.
    """
    if scene.domain_tag is not DomainTag.TARGET_UNLABELED:
        raise ValueError(f"expected a TARGET_UNLABELED scene, got {scene.domain_tag}")
    boxes = list(pseudo_boxes)
    outcome = PerturbOutcome()
    if not boxes or scene.n_points == 0:
        out = Scene(scene.points.copy(), boxes, DomainTag.TARGET_UNLABELED, pseudo_labeled=True)
        return out, outcome

    _, field = provider.loss_and_gradient(scene, boxes)
    delta = perturbation_delta(field, cfg.epsilon)

    candidates = np.unique(np.concatenate([points_in_box(scene, b) for b in boxes]))
    outcome.candidates = int(candidates.size)
    selected = candidates[rng.random(candidates.size) < cfg.rho]
    modes = rng.choice(3, size=selected.size, p=cfg.mode_weights)

    moving = delta[selected].any(axis=1)
    translate = selected[(modes == 0) & moving]
    add = selected[(modes == 1) & moving]
    remove = selected[modes == 2]
    outcome.translated, outcome.added, outcome.removed = translate.size, add.size, remove.size
    moved = delta[np.concatenate([translate, add])]
    if moved.size:
        # row @ column takes the same BLAS dot as np.linalg.norm of one row
        norms = np.sqrt((moved[:, None, :] @ moved[:, :, None]).ravel())
        outcome.max_norm_deviation = float(np.abs(norms - cfg.epsilon).max())

    pts = scene.points.copy()
    pts[translate, :3] += delta[translate]
    added = scene.points[add]
    added[:, :3] += delta[add]
    keep = np.ones(scene.n_points, dtype=bool)
    keep[remove] = False
    out = Scene(
        np.vstack([pts[keep], added]), boxes, DomainTag.TARGET_UNLABELED, pseudo_labeled=True
    )
    return out, outcome


def point_mixup(a: Scene, b: Scene) -> Scene:
    """Global concatenation of two target-domain scenes and their labels
    (a's elements first)."""
    target_tags = (DomainTag.TARGET_LABELED, DomainTag.TARGET_UNLABELED)
    for scene in (a, b):
        if scene.domain_tag not in target_tags:
            raise ValueError(f"point_mixup needs target-domain scenes, got {scene.domain_tag}")
    points = np.vstack([a.points, b.points])
    return Scene(points, a.boxes + b.boxes, DomainTag.MIXED, a.pseudo_labeled or b.pseudo_labeled)


def _box_vectors(boxes: Sequence[Box3D]) -> np.ndarray:
    return np.array([[b.cx, b.cy, b.cz, b.w, b.l, b.h] for b in boxes])


def consistency_loss(boxes_am: Sequence[Box3D], boxes_pm: Sequence[Box3D]) -> float:
    """Bidirectional nearest-box distance between two prediction sets.

    Each box is a 6-vector (center, sizes); yaw, class, and score do not
    participate. Sum of each side's nearest-neighbor distances divided by
    the total box count. Two empty sets give 0; exactly one empty set
    raises OneSidedEmpty.
    """
    n_am, n_pm = len(boxes_am), len(boxes_pm)
    if n_am == 0 and n_pm == 0:
        return 0.0
    if n_am == 0 or n_pm == 0:
        raise OneSidedEmpty(f"one prediction set is empty ({n_am} vs {n_pm} boxes)")
    a = _box_vectors(boxes_am)
    b = _box_vectors(boxes_pm)
    dist = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    return float((dist.min(axis=1).sum() + dist.min(axis=0).sum()) / (n_am + n_pm))


def advmix_sample(
    rng: np.random.Generator,
    p_am: float,
    labeled: Scene,
    adversarial: Scene,
    raw_unlabeled: Scene,
) -> tuple[Scene, Scene, bool]:
    """Form the (AM, PM) scene pair for one training sample.

    With probability p_am both branches are mixups with the labeled scene:
    AM = labeled + adversarial, PM = labeled + raw. Otherwise no mixup is
    applied and the branches are AM = raw, PM = adversarial.
    """
    if not 0.0 <= p_am <= 1.0:
        raise ValueError(f"p_am must be in [0, 1], got {p_am}")
    if rng.random() < p_am:
        return point_mixup(labeled, adversarial), point_mixup(labeled, raw_unlabeled), True
    return raw_unlabeled, adversarial, False
