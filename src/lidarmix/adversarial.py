"""Adversarial point augmentation and the consistency loss.

Points inside pseudo-label boxes are nudged along the normalized negative
gradient of a detection loss. The bundled surrogate loss aligns the in-box
point centroid (in box frame) with the box center through a smooth-L1
penalty; its gradient is closed form, and any real detector can stand in
via the GradientProvider contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .geometry import Box3D, BoxSet, DomainTag, Scene, _JointRefused, _assign_local, _check_real, assign_points


class OneSidedEmpty(ValueError):
    """Exactly one prediction set is empty; nearest-box distances are
    undefined. Pipeline policy: skip the sample."""


@dataclass
class GradientField:
    """Per-point gradients of a detection loss with respect to point
    coordinates, aligned index-for-index with a scene's points. members,
    if given, is `assign_points(scene.xyz, boxes)` for the boxes the loss
    was taken against, which `adversarial_perturb_detailed` then reuses."""

    grads: np.ndarray
    members: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        g = np.asarray(self.grads, dtype=np.float64)
        if g.size == 0:
            g = g.reshape(0, 3)
        if g.ndim != 2 or g.shape[1] != 3:
            raise ValueError(f"gradients must have shape (N, 3), got {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("gradient field contains non-finite entries")
        self.grads = g


@dataclass(frozen=True)
class PerturbationConfig:
    """Magnitude epsilon (meters), per-point selection probability rho,
    and mode weights for translate / add / remove."""

    epsilon: float = 0.001
    rho: float = 0.5
    mode_weights: tuple[float, float, float] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _check_real("epsilon", self.epsilon, 0.0, above=True))
        object.__setattr__(self, "rho", _check_real("rho", self.rho, 0.0, 1.0))
        if len(self.mode_weights) != 3:
            raise ValueError(f"mode_weights must be 3 values, got {self.mode_weights!r}")
        paths = tuple(f"mode_weights.{i}" for i in range(3))
        w = tuple(_check_real(path, x, 0.0) for path, x in zip(paths, self.mode_weights))
        total = sum(w)
        if abs(total - 1.0) > 1e-9:
            raise _JointRefused(paths, "+", total)
        # kept as given, not divided by total: a total 1 ulp off 1 would move
        # the weights on every rebuild, and rng.choice rescales them anyway
        object.__setattr__(self, "mode_weights", w)


class GradientProvider(Protocol):
    """Anything that evaluates a detection loss and its exact per-point
    coordinate gradient on a scene against a box list. A field without
    `members` costs the perturbation one more point-to-box pass, same bits."""

    def loss_and_gradient(
        self, scene: Scene, boxes: Sequence[Box3D]
    ) -> tuple[float, GradientField]: ...


def surrogate_loss(scene: Scene, boxes: Sequence[Box3D]) -> tuple[float, GradientField]:
    """Centroid-alignment detection loss with analytic gradient.

    Per box, the in-box points' centroid is expressed in the box frame and
    its distance r to the box center is penalized with smooth-L1, knee at
    1 m: r^2 / 2 below 1, r - 1/2 from 1 on. The loss is the mean over
    boxes (empty boxes contribute 0). The returned field is the exact
    gradient with respect to each point's world coordinates,
    zero for points outside every box. The in-box points of all boxes and
    their box-frame coordinates come from one `assign_points` pass, whose
    `(indptr, indices)` the field returns as `members`.
    """
    boxes = BoxSet.of(boxes)
    if not len(boxes):
        raise ValueError("surrogate loss needs at least one box")
    grads = np.zeros((scene.n_points, 3))
    total = 0.0
    indptr, indices, local = _assign_local(scene.xyz, boxes)
    bounds = indptr.tolist()
    for rotation, start, stop in zip(boxes.frames()[1], bounds, bounds[1:]):
        if stop == start:
            continue
        # add.reduce / n is .mean(axis=0), and the dot is np.linalg.norm's,
        # bit for bit, without their Python overhead.
        centroid = np.add.reduce(local[start:stop]) / (stop - start)
        r = math.sqrt(centroid @ centroid)
        if r < 1.0:
            total += 0.5 * r * r
            slope = r
        else:
            total += r - 0.5
            slope = 1.0
        if r > 0.0:
            # d(loss)/d(centroid), then chain through the mean and rotation.
            u = (slope / r) * centroid
            grads[indices[start:stop]] += (u / (stop - start)) @ rotation.T
    n = len(boxes)
    grads /= n  # in place: no second (N, 3) array
    return total / n, GradientField(grads, (indptr, indices))


def _perturbation_delta(g: np.ndarray, epsilon: float) -> np.ndarray:
    """Per-row displacement of magnitude epsilon along the normalized
    negative loss gradient g, (N, 3); zero where the gradient vanishes."""
    _check_real("epsilon", epsilon, 0.0, above=True)
    norms = np.linalg.norm(g, axis=1)[:, None]
    return np.divide(-epsilon * g, norms, out=np.zeros_like(g), where=norms > 0.0)


@dataclass
class PerturbOutcome:
    """Bookkeeping from one adversarial_perturb_detailed call. `loss` is the
    provider's loss, None when the call took none (no boxes or no points)."""

    candidates: int = 0
    translated: int = 0
    added: int = 0
    removed: int = 0
    max_norm_deviation: float = 0.0
    loss: float | None = None


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
    counters, with the provider's loss; a non-finite loss raises ValueError.
    """
    if scene.domain_tag is not DomainTag.TARGET_UNLABELED:
        raise ValueError(f"expected a TARGET_UNLABELED scene, got {scene.domain_tag}")
    boxes = BoxSet.of(pseudo_boxes)
    outcome = PerturbOutcome()
    if not len(boxes) or scene.n_points == 0:
        return Scene(scene.points.copy(), boxes, DomainTag.TARGET_UNLABELED, True), outcome

    loss, field = provider.loss_and_gradient(scene, boxes)
    outcome.loss = _check_real("loss", float(loss))
    if len(field.grads) != scene.n_points:
        raise ValueError(f"{len(field.grads)} gradient rows for {scene.n_points} points")
    members = field.members or assign_points(scene.xyz, boxes)
    if len(members[0]) != len(boxes) + 1:
        raise ValueError(f"members have {len(members[0])} indptr entries for {len(boxes)} boxes")
    indices = np.asarray(members[1])
    if indices.dtype.kind not in "iu":
        raise ValueError(f"members must be integer point indices, got dtype {indices.dtype}")
    if indices.size and (indices.min() < 0 or indices.max() >= scene.n_points):
        raise ValueError(f"members name points outside [0, {scene.n_points}), which would wrap")
    is_member = np.zeros(scene.n_points, dtype=bool)
    is_member[indices] = True
    candidates = np.flatnonzero(is_member)
    outcome.candidates = int(candidates.size)
    selected = candidates[rng.random(candidates.size) < cfg.rho]
    modes = rng.choice(3, size=selected.size, p=cfg.mode_weights)
    # _perturbation_delta works row by row, so the selected rows suffice
    # (take and compress copy rows far faster than fancy or mask indexing).
    step = _perturbation_delta(field.grads.take(selected, axis=0), cfg.epsilon)
    del field  # its (N, 3) gradients, freed before the output is built

    moving = step.any(axis=1)
    is_translate, is_add = (modes == 0) & moving, (modes == 1) & moving
    translate, add, remove = selected[is_translate], selected[is_add], selected[modes == 2]
    outcome.translated, outcome.added, outcome.removed = translate.size, add.size, remove.size
    moved = np.concatenate([step.compress(is_translate, axis=0), step.compress(is_add, axis=0)])
    if moved.size:
        # row @ column takes the same BLAS dot as np.linalg.norm of one row
        norms = np.sqrt((moved[:, None, :] @ moved[:, :, None]).ravel())
        outcome.max_norm_deviation = float(np.abs(norms - cfg.epsilon).max())

    # One gather builds the output: kept rows, then added ones. selected is
    # ascending, so a translated row moves up by the removed rows before it.
    keep = np.ones(scene.n_points, dtype=bool)
    keep[remove] = False
    pts = scene.points.take(np.concatenate([np.flatnonzero(keep), add]), axis=0)
    pts[translate - np.searchsorted(remove, translate), :3] += moved[: translate.size]
    pts[pts.shape[0] - add.size :, :3] += moved[translate.size :]
    return Scene(pts, boxes, DomainTag.TARGET_UNLABELED, True), outcome


def point_mixup(a: Scene, b: Scene) -> Scene:
    """Global concatenation of two target-domain scenes and their labels
    (a's elements first)."""
    target_tags = (DomainTag.TARGET_LABELED, DomainTag.TARGET_UNLABELED)
    for scene in (a, b):
        if scene.domain_tag not in target_tags:
            raise ValueError(f"point_mixup needs target-domain scenes, got {scene.domain_tag}")
    points = np.vstack([a.points, b.points])
    return Scene(points, a.boxes + b.boxes, DomainTag.MIXED, a.pseudo_labeled or b.pseudo_labeled)


# From this many (AM, PM) box pairs on, looking up exact twins costs less
# than the pass it saves.
_TWIN_LOOKUP_PAIRS = 2048


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared distances between the first six columns of
    box rows, as the six per-coordinate squares added in order: the same
    sums, bit for bit, as an (A, B, 6) difference summed over its last axis,
    but with two (A, B) buffers instead of a 6-wide temporary."""
    sq = np.subtract.outer(a[:, 0], b[:, 0])
    sq *= sq
    diff = np.empty_like(sq)
    for k in range(1, 6):
        np.subtract.outer(a[:, k], b[:, k], out=diff)
        diff *= diff
        sq += diff
    return sq


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
    a, b = BoxSet.of(boxes_am).data, BoxSet.of(boxes_pm).data
    n = n_am + n_pm
    if n_am * n_pm >= _TWIN_LOOKUP_PAIRS:
        # A row equal in all six columns to a row of the other set is at
        # squared distance +0.0 from it (x - x is +0.0, also across signed
        # zeros), so only the other rows go through the pass, still against
        # the whole other set. The lookup may miss a twin whose cx other
        # rows share; the pass then finds the same +0.0.
        order = b[:, 0].argsort()
        cand = order[np.searchsorted(b[order, 0], a[:, 0]).clip(max=n_pm - 1)]
        twin = (b[cand, :6] == a[:, :6]).all(axis=1)
        twin_pm = np.zeros(n_pm, dtype=bool)
        twin_pm[cand[twin]] = True
        rest_am, rest_pm = np.flatnonzero(~twin), np.flatnonzero(~twin_pm)
        n_rest = rest_am.size
        if (n_rest + rest_pm.size) * n < n_am * n_pm:
            # one pass of the rest rows of both sets against both sets;
            # (b - a)^2 is (a - b)^2 bit for bit
            sq = _squared_distances(np.concatenate((a[rest_am], b[rest_pm])), np.concatenate((b, a)))
            nearest_am, nearest_pm = np.zeros(n_am), np.zeros(n_pm)
            nearest_am[rest_am] = np.sqrt(sq[:n_rest, :n_pm].min(axis=1))
            nearest_pm[rest_pm] = np.sqrt(sq[n_rest:, n_pm:].min(axis=1))
            return float((nearest_am.sum() + nearest_pm.sum()) / n)
    sq = _squared_distances(a, b)
    # sqrt is monotone, so the root of each minimum is the minimum root.
    nearest_am, nearest_pm = np.sqrt(sq.min(axis=1)), np.sqrt(sq.min(axis=0))
    return float((nearest_am.sum() + nearest_pm.sum()) / n)


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
    _check_real("p_am", p_am, 0.0, 1.0)
    if rng.random() < p_am:
        return point_mixup(labeled, adversarial), point_mixup(labeled, raw_unlabeled), True
    return raw_unlabeled, adversarial, False
