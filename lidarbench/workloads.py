"""The three workloads. Each builds its input pool from the workload seed
in its constructor (the set-up), runs one item per `run(slot, oracle)`
call and checks that item's outputs in `check`.

Library functions are looked up through their modules at call time
(`sensor.lidar_distribution_match`, not a name imported here), so the
tracer's rebinding sees every call. Every item draws from its own
generator, seeded by (workload seed, slot), so each pass over the pool
repeats the same work exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from lidarmix import adversarial, geometry, pipeline, sector_mix, sensor, synth
from lidarmix import io as lio
from lidarmix.geometry import Box3D, DomainTag, Scene

import scans


class CheckFailed(Exception):
    """An item's output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _item_rng(seed: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, slot])


def summary_json(report_tm, report_am) -> str:
    """The `lidarmix pipeline` summary JSON of a run_full result."""
    return json.dumps(
        {"targetmix": report_tm.to_dict(), "advmix": report_am.to_dict()}, sort_keys=True, indent=2
    )


def default_pipeline_digest() -> str:
    """sha256 of the summary JSON of run_full with the default config on
    synthesize_dataset(0)."""
    reports = pipeline.run_full(pipeline.PipelineConfig(seed=0), synth.synthesize_dataset(0))
    return hashlib.sha256(summary_json(*reports).encode()).hexdigest()


def _check_perturb_counts(n_in: int, adv: Scene, outcome) -> None:
    expected = n_in - outcome.removed + outcome.added
    _require(
        adv.n_points == expected,
        f"perturbed scene has {adv.n_points} points, expected {n_in} - "
        f"{outcome.removed} + {outcome.added} = {expected}",
    )


class PipelineSynth:
    """run_full with the default config on the default 40-scene synthetic
    bundle, one bundle and config seed per slot. Items on different
    bundles differ by about 12% (coefficient of variation), so a pass
    averages over 32 of them."""

    slots = 32

    def __init__(self, seed: int, workdir: Path):
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(self.slots)]
        self.bundles = [synth.synthesize_dataset(s) for s in self.seeds]
        self.summaries: dict[int, str] = {}
        self.repeated = False

    def warmup(self, oracle) -> None:
        small = synth.synthesize_dataset(self.seeds[0], n_source=2, n_labeled=1, n_unlabeled=2)
        pipeline.run_full(pipeline.PipelineConfig(seed=self.seeds[0]), small, oracle)

    def run(self, slot: int, oracle):
        return pipeline.run_full(pipeline.PipelineConfig(seed=self.seeds[slot]), self.bundles[slot], oracle)

    def check(self, slot: int, out) -> None:
        report_tm, report_am = out
        _require(
            report_am.max_delta_norm_error <= 1e-9,
            f"max_delta_norm_error {report_am.max_delta_norm_error} > 1e-9",
        )
        text = summary_json(report_tm, report_am)
        self.repeated |= slot in self.summaries
        first = self.summaries.setdefault(slot, text)
        _require(text == first, f"slot {slot}: the same bundle gave a different summary JSON")

    def finish(self, oracle) -> dict:
        while not self.repeated:  # no slot ran twice in the measured window
            self.check(0, self.run(0, oracle))
        return {"default_pipeline_sha256": default_pipeline_digest()}


# Bounds a matched 64x2200 scan can never exceed: the strides from
# WAYMO_64 to NUSCENES_32 are 4 (rows) and 2 (columns).
MATCHED_MAX_POINTS = (64 // 4) * (2200 // 2)
SCAN_POOL = 4
CARS_PER_SCAN = 25


def _mask_edge_crossings(boxes: list[Box3D], mask: sector_mix.SectorMask) -> int:
    edges = mask.boundary_angles()
    crossings = 0
    for box in boxes:
        center, lo, hi = scans.azimuth_arc(box)
        rel = np.mod(edges - center + math.pi, 2.0 * math.pi) - math.pi
        crossings += bool(np.any((rel >= lo) & (rel <= hi)))
    return crossings


def _read_back_equal(path: Path, scene: Scene) -> bool:
    return np.array_equal(np.fromfile(path, dtype="<f4"), scene.points.astype("<f4").ravel())


class ScanDense:
    """The `lidarmix mix` then `lidarmix adv` file-to-file paths on
    real-scan-sized ray-cast clouds: read a 64x2200 source and a labeled
    32x1100 target, match, sample sectors, polar-mix, write; read an
    unlabeled 32x1100 scan and its pseudo-labels, perturb, write."""

    slots = SCAN_POOL * SCAN_POOL

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        roles = (
            ("source", sensor.WAYMO_64, DomainTag.SOURCE),
            ("target", sensor.NUSCENES_32, DomainTag.TARGET_LABELED),
            ("unlabeled", sensor.NUSCENES_32, DomainTag.TARGET_UNLABELED),
        )
        for role, spec, tag in roles:
            for i in range(SCAN_POOL):
                boxes = scans.place_cars(rng, CARS_PER_SCAN)
                scene = scans.raycast_scan(rng, spec, boxes, tag)
                if tag is DomainTag.TARGET_UNLABELED:
                    # A detector's pseudo-labels: a little loose, with scores.
                    boxes = [
                        Box3D(b.cx, b.cy, b.cz, b.w + 0.2, b.l + 0.2, b.h + 0.2, b.yaw, 0, 0.9)
                        for b in boxes
                    ]
                lio.write_cloud(scene, self._path(role, i, "bin"))
                lio.write_labels(boxes, self._path(role, i, "txt"))
        # Every slot pairs a distinct (source, target, unlabeled) triple.
        self.triples = [(k % SCAN_POOL, k // SCAN_POOL, (k + k // SCAN_POOL) % SCAN_POOL) for k in range(self.slots)]

    def _path(self, role: str, index: int, ext: str) -> Path:
        return self.dir / f"{role}{index}.{ext}"

    def warmup(self, oracle) -> None:
        self.run(0, oracle)

    def run(self, slot: int, oracle):
        rng = _item_rng(self.seed, slot)
        si, ti, ui = self.triples[slot]
        source = lio.read_cloud(self._path("source", si, "bin"), DomainTag.SOURCE)
        source.boxes = lio.read_labels(self._path("source", si, "txt"))
        target = lio.read_cloud(self._path("target", ti, "bin"), DomainTag.TARGET_LABELED)
        target.boxes = lio.read_labels(self._path("target", ti, "txt"))
        matched = sensor.lidar_distribution_match(source, sensor.WAYMO_64, sensor.NUSCENES_32)
        params = sector_mix.SectorParams()
        mask = sector_mix.sample_sectors(rng, params.k, params.min_width, params.max_width)
        mixed = sector_mix.polar_mix(matched, target, mask)
        lio.write_cloud(mixed, self.dir / "mixed.bin")
        lio.write_labels(mixed.boxes, self.dir / "mixed.txt")

        scene = lio.read_cloud(self._path("unlabeled", ui, "bin"), DomainTag.TARGET_UNLABELED)
        pseudo = lio.read_labels(self._path("unlabeled", ui, "txt"))
        adv, outcome = adversarial.adversarial_perturb_detailed(
            scene, pseudo, oracle, adversarial.PerturbationConfig(), rng
        )
        lio.write_cloud(adv, self.dir / "adv.bin")
        lio.write_labels(adv.boxes, self.dir / "adv.txt")
        return matched, mask, mixed, scene.n_points, adv, outcome

    def check(self, slot: int, out) -> None:
        matched, mask, mixed, n_in, adv, outcome = out
        _require(
            matched.n_points <= MATCHED_MAX_POINTS,
            f"matched scan has {matched.n_points} > {MATCHED_MAX_POINTS} points",
        )
        _check_perturb_counts(n_in, adv, outcome)
        _require(_read_back_equal(self.dir / "mixed.bin", mixed), "mixed.bin differs from what was written")
        _require(_read_back_equal(self.dir / "adv.bin", adv), "adv.bin differs from what was written")
        crossings = _mask_edge_crossings(mixed.boxes, mask)
        _require(crossings == 0, f"{crossings} kept boxes cross a sector edge")

    def finish(self, oracle) -> dict:
        return {}


class AugmentSmall:
    """One training sample's augmentation on default-size synthetic
    scenes: targetmix with p_tm=1, a random rigid transform of the labeled
    scene, adversarial perturbation with ground-truth boxes as
    pseudo-labels, advmix with p_am=1 and the consistency term. With no
    predictor in the loop each branch's labels stand in for its
    predictions; both branches carry the same labels, so the term is
    consistency_loss(x, x).

    Item cost grows with the number of objects in a scene, so every role's
    pool holds equally many scenes with 1, 2, 3 and 4 objects, and a pass
    over the slots uses each pooled scene once: passes of different seeds
    then differ only in where points and boxes fall."""

    slots = 64
    max_objects = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        # Four candidates per slot and role leave a balanced selection
        # short with a probability below 1e-9.
        n = 4 * self.slots
        bundle = synth.synthesize_dataset(seed, n_source=n, n_labeled=2 * n, n_unlabeled=0)
        self.sources = [
            sensor.lidar_distribution_match(s, sensor.WAYMO_64, sensor.NUSCENES_32)
            for s in self._balanced(bundle.source)
        ]
        self.labeled = self._balanced(bundle.target_labeled[:n])
        self.unlabeled = [
            Scene(s.points, s.boxes, DomainTag.TARGET_UNLABELED, pseudo_labeled=True)
            for s in self._balanced(bundle.target_labeled[n:])
        ]
        order = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
        self.triples = list(zip(*(order.permutation(self.slots).tolist() for _ in range(3))))

    def _balanced(self, scenes: list[Scene]) -> list[Scene]:
        """The first slots / max_objects scenes with each object count."""
        per_count = self.slots // self.max_objects
        by_count: dict[int, list[Scene]] = {n: [] for n in range(1, self.max_objects + 1)}
        for scene in scenes:
            group = by_count[len(scene.boxes)]
            if len(group) < per_count:
                group.append(scene)
        if any(len(group) < per_count for group in by_count.values()):
            raise RuntimeError("synthetic pool too small for a balanced selection")
        return [scene for n in sorted(by_count) for scene in by_count[n]]

    def warmup(self, oracle) -> None:
        for slot in range(8):
            self.run(slot, oracle)

    def run(self, slot: int, oracle):
        rng = _item_rng(self.seed, slot)
        si, li, ui = self.triples[slot]
        mixed = sector_mix.targetmix_sample(rng, 1.0, self.sources[si], self.labeled[li])
        labeled = geometry.apply_rigid_transform(
            self.labeled[li],
            bool(rng.random() < 0.5),
            bool(rng.random() < 0.5),
            float(rng.uniform(-math.pi / 4, math.pi / 4)),
            float(rng.uniform(0.95, 1.05)),
        )
        scene = self.unlabeled[ui]
        adv, outcome = adversarial.adversarial_perturb_detailed(
            scene, scene.boxes, oracle, adversarial.PerturbationConfig(), rng
        )
        scene_am, scene_pm, _ = adversarial.advmix_sample(rng, 1.0, labeled, adv, scene)
        consistency = adversarial.consistency_loss(scene_am.boxes, scene_pm.boxes)
        return mixed, scene.n_points, adv, outcome, scene_am, scene_pm, consistency

    def check(self, slot: int, out) -> None:
        mixed, n_in, adv, outcome, scene_am, scene_pm, consistency = out
        _require(mixed.domain_tag is DomainTag.MIXED, "targetmix with p_tm=1 did not mix")
        _check_perturb_counts(n_in, adv, outcome)
        _require(scene_am.boxes == scene_pm.boxes, "advmix branches carry different labels")
        _require(consistency == 0.0, f"consistency_loss(x, x) = {consistency}, expected 0")

    def finish(self, oracle) -> dict:
        return {}


WORKLOADS = {
    "pipeline-synth": PipelineSynth,
    "scan-dense": ScanDense,
    "augment-small": AugmentSmall,
}
