import dataclasses
import hashlib
import math
import weakref

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from conftest import cluster_scene
from lidarmix import pipeline
from lidarmix.adversarial import GradientField, PerturbationConfig
from lidarmix.geometry import Box3D, DomainTag, Scene
from lidarmix.oracle import GridClusterOracle
from lidarmix.pipeline import (
    DatasetBundle,
    PipelineConfig,
    _slot_pairs,
    generate_pseudo_labels,
    run_advmix_stage,
    run_full,
    run_targetmix_stage,
    seeded_rng,
)
from lidarmix.sector_mix import SectorParams
from lidarmix.sensor import SensorSpec, lidar_distribution_match
from lidarmix.synth import synthesize_dataset

SMALL = SensorSpec(16, 64, -0.3, 0.1)


def small_cfg(**overrides):
    defaults = dict(source_spec=SMALL, target_spec=SMALL, seed=42)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="module")
def bundle():
    return synthesize_dataset(
        5,
        n_source=5,
        n_labeled=2,
        n_unlabeled=4,
        source_spec=SMALL,
        target_spec=SMALL,
        ground_points=300,
    )


class TestTargetmixStage:
    def test_p_zero_never_mixes(self, bundle):
        cfg = small_cfg(p_tm=0.0)
        report = run_targetmix_stage(cfg, bundle.source, bundle.target_labeled, GridClusterOracle())
        assert report.epochs[0].mixed_fraction == 0.0

    def test_deterministic_reports(self, bundle):
        cfg = small_cfg(epochs_tm=2)
        oracle = GridClusterOracle()
        r1 = run_targetmix_stage(cfg, bundle.source, bundle.target_labeled, oracle)
        r2 = run_targetmix_stage(cfg, bundle.source, bundle.target_labeled, oracle)
        assert r1.to_json() == r2.to_json()

    def test_mixed_fraction_tracks_p_tm(self, bundle):
        cfg = small_cfg(p_tm=0.4, epochs_tm=40)
        report = run_targetmix_stage(cfg, bundle.source, bundle.target_labeled, GridClusterOracle())
        draws = sum(e.scenes_processed for e in report.epochs)
        mixed = sum(e.mixed_scenes for e in report.epochs)
        assert draws == 40 * 7
        assert abs(mixed / draws - 0.4) < 0.06

    def test_p_zero_evaluates_every_scene_once_per_epoch(self, bundle):
        # an unmixed slot keeps its own scene: the matched source scene in a
        # source slot, the target scene in a target slot
        recorder = RecordingOracle()
        run_targetmix_stage(
            small_cfg(p_tm=0.0, epochs_tm=3), bundle.source, bundle.target_labeled, recorder
        )
        matched = [lidar_distribution_match(s, SMALL, SMALL) for s in bundle.source]
        expected = sorted(s.points.tobytes() for s in matched + bundle.target_labeled)
        seen = [s.points.tobytes() for s in recorder.evaluated]
        n = len(expected)
        assert len(seen) == 3 * n
        for epoch in range(3):
            assert sorted(seen[epoch * n : (epoch + 1) * n]) == expected

    def test_p_one_mixes_every_sample(self, bundle):
        recorder = RecordingOracle()
        report = run_targetmix_stage(
            small_cfg(p_tm=1.0, epochs_tm=3), bundle.source, bundle.target_labeled, recorder
        )
        for e in report.epochs:
            assert e.mixed_scenes == e.scenes_processed == 7
        assert recorder.evaluated
        assert all(s.domain_tag is DomainTag.MIXED for s in recorder.evaluated)

    def test_empty_dataset_rejected(self, bundle):
        refusal = "^stage 1 needs non-empty source and target-labeled sets$"
        with pytest.raises(ValueError, match=refusal):
            run_targetmix_stage(small_cfg(), [], bundle.target_labeled, GridClusterOracle())
        with pytest.raises(ValueError, match=refusal):
            run_targetmix_stage(small_cfg(), bundle.source, [], GridClusterOracle())

    def test_losses_finite_nonnegative(self, bundle):
        report = run_targetmix_stage(
            small_cfg(), bundle.source, bundle.target_labeled, GridClusterOracle()
        )
        for e in report.epochs:
            assert np.isfinite(e.mean_detection_loss)
            assert e.mean_detection_loss >= 0.0


class TestGeneratePseudoLabels:
    def test_threshold_one_keeps_only_saturated(self, rng):
        scenes = [cluster_scene(rng, [(10, 0, 0)], n_per=60)]  # score 1.0
        scenes[0].boxes = []
        out = generate_pseudo_labels(GridClusterOracle(), scenes, 1.0)
        assert len(out[0].boxes) == 1
        weak = [cluster_scene(rng, [(10, 0, 0)], n_per=30)]  # score 0.6
        weak[0].boxes = []
        out = generate_pseudo_labels(GridClusterOracle(), weak, 1.0)
        assert out[0].boxes == []

    def test_threshold_zero_keeps_all(self, rng):
        scene = cluster_scene(rng, [(10, 0, 0), (0, 15, 0)], n_per=30)
        scene.boxes = []
        out = generate_pseudo_labels(GridClusterOracle(), [scene], 0.0)
        assert len(out[0].boxes) == 2

    def test_planted_clusters_with_default_threshold(self, rng):
        scene = cluster_scene(rng, [(10, 0, 0), (0, 15, 0), (-12, -12, 0)], n_per=60)
        scene.boxes = []
        out = generate_pseudo_labels(GridClusterOracle(), [scene], 0.3)
        assert len(out[0].boxes) == len(GridClusterOracle().predict(scene)) == 3
        assert out[0].pseudo_labeled
        assert out[0].domain_tag is DomainTag.TARGET_UNLABELED

    def test_threshold_monotone(self, rng):
        scene = cluster_scene(rng, [(10, 0, 0), (0, 15, 0)], n_per=25)  # scores 0.5
        scene.boxes = []
        oracle = GridClusterOracle()
        kept = [
            sum(len(s.boxes) for s in generate_pseudo_labels(oracle, [scene], t))
            for t in (0.0, 0.4, 0.6, 1.0)
        ]
        assert kept == sorted(kept, reverse=True)

    def test_bad_threshold(self, rng):
        with pytest.raises(ValueError):
            generate_pseudo_labels(GridClusterOracle(), [], 1.5)


class RecordingOracle:
    """Stub detector: no boxes, zero gradients, records every scene it
    predicts on and every scene it evaluates a loss on."""

    def __init__(self):
        self.predicted = []
        self.evaluated = []

    @property
    def gradient_calls(self):
        return len(self.evaluated)

    def predict(self, scene):
        self.predicted.append(scene)
        return []

    def loss_and_gradient(self, scene, boxes):
        self.evaluated.append(scene)
        return 0.0, GradientField(np.zeros((scene.n_points, 3)))


class TestAdvmixStage:
    def make_sets(self, rng):
        labeled = [cluster_scene(rng, [(8, 0, 0)], domain_tag=DomainTag.TARGET_LABELED)]
        pseudo = [
            Scene(
                cluster_scene(rng, [(0, 9, 0)]).points,
                cluster_scene(rng, [(0, 9, 0)]).boxes,
                DomainTag.TARGET_UNLABELED,
                pseudo_labeled=True,
            )
        ]
        return labeled, pseudo

    def test_lambda_zero_total_equals_detection(self, bundle):
        oracle = GridClusterOracle()
        pseudo = generate_pseudo_labels(oracle, bundle.target_unlabeled, 0.3)
        cfg = small_cfg(lam=0.0)
        report = run_advmix_stage(cfg, bundle.target_labeled, pseudo, oracle)
        for e in report.epochs:
            assert e.mean_total_loss == pytest.approx(e.mean_detection_loss, abs=1e-12)

    def test_deterministic(self, bundle):
        oracle = GridClusterOracle()
        pseudo = generate_pseudo_labels(oracle, bundle.target_unlabeled, 0.3)
        cfg = small_cfg(epochs_am=2)
        r1 = run_advmix_stage(cfg, bundle.target_labeled, pseudo, oracle)
        r2 = run_advmix_stage(cfg, bundle.target_labeled, pseudo, oracle)
        assert r1.to_json() == r2.to_json()

    def test_requires_labeled_set(self, bundle):
        with pytest.raises(ValueError, match="^stage 2 needs non-empty target-labeled"):
            run_advmix_stage(small_cfg(), [], [], GridClusterOracle())

    def test_zero_unlabeled_raises(self, bundle):
        # an epoch over no samples would report all-zero losses
        with pytest.raises(ValueError, match="^stage 2 needs non-empty target-labeled"):
            run_advmix_stage(small_cfg(), bundle.target_labeled, [], GridClusterOracle())

    def test_augmentation_gated_to_labeled_scenes(self, rng):
        labeled, pseudo = self.make_sets(rng)
        recorder = RecordingOracle()
        cfg = small_cfg(p_am=1.0, perturbation=PerturbationConfig(rho=0.0))
        run_advmix_stage(cfg, labeled, pseudo, recorder)
        n_lab = labeled[0].n_points
        n_unlab = pseudo[0].n_points
        assert recorder.predicted, "stub oracle never saw a scene"
        for scene in recorder.predicted:
            # mixup order is labeled part then unlabeled part; with rho=0 the
            # unlabeled block must be bit-identical to the raw scene while
            # the labeled block is rigid-transformed
            assert scene.n_points == n_lab + n_unlab
            assert np.array_equal(scene.points[n_lab:], pseudo[0].points)
            assert not np.array_equal(scene.points[:n_lab], labeled[0].points)

    def test_every_scene_has_its_own_slot_each_epoch(self, rng):
        # constant intensities tag each scene; with p_am = 1 and rho = 0
        # both branches of a sample hold exactly its labeled and unlabeled
        # scene, and every scene must own one of the epoch's samples
        def tagged(tag, domain_tag, pseudo=False):
            scene = cluster_scene(rng, [(8, 0, 0)], n_per=30, domain_tag=domain_tag)
            scene.points[:, 3] = tag
            scene.pseudo_labeled = pseudo
            return scene

        labeled = [tagged(i, DomainTag.TARGET_LABELED) for i in range(2)]
        pseudo = [tagged(10 + j, DomainTag.TARGET_UNLABELED, True) for j in range(3)]
        slots = [0, 1, 10, 11, 12]
        recorder = RecordingOracle()
        cfg = small_cfg(p_am=1.0, perturbation=PerturbationConfig(rho=0.0), epochs_am=4)
        report = run_advmix_stage(cfg, labeled, pseudo, recorder)
        samples = [sorted(set(s.intensities.tolist())) for s in recorder.predicted[::2]]
        assert [e.scenes_processed for e in report.epochs] == [5] * 4
        assert len(samples) == 4 * 5
        for epoch in range(4):
            epoch_samples = samples[epoch * 5 : (epoch + 1) * 5]
            assert all(tag_l < 10 <= tag_u for tag_l, tag_u in epoch_samples)
            cost = [[0 if slot in pair else 1 for slot in slots] for pair in epoch_samples]
            rows, cols = linear_sum_assignment(cost)
            assert np.asarray(cost)[rows, cols].sum() == 0

    def test_perturbation_counts_ordering(self, bundle):
        oracle = GridClusterOracle()
        pseudo = generate_pseudo_labels(oracle, bundle.target_unlabeled, 0.3)
        report = run_advmix_stage(small_cfg(), bundle.target_labeled, pseudo, oracle)
        for e in report.epochs:
            assert e.points_perturbed + e.points_added + e.points_removed <= e.points_candidates
            assert e.points_candidates <= e.points_total


class TestRunFull:
    def test_smoke_and_structure(self, bundle):
        r1, r2 = run_full(small_cfg(), bundle)
        assert r1.stage == "targetmix"
        assert r2.stage == "advmix"
        assert len(r1.epochs) == 1
        assert r2.pseudo_boxes_kept >= 0
        assert r2.pseudo_boxes_discarded >= 0

    def test_zero_unlabeled_raises(self, bundle):
        empty = DatasetBundle(bundle.source, bundle.target_labeled, [])
        with pytest.raises(ValueError, match="^run_full needs .*; empty: target_unlabeled$"):
            run_full(small_cfg(), empty)

    @pytest.mark.parametrize("role", ["source", "target_labeled", "target_unlabeled"])
    def test_empty_role_fails_before_any_stage(self, bundle, role):
        roles = dict(vars(bundle), **{role: []})
        recorder = RecordingOracle()
        with pytest.raises(ValueError, match=f"^run_full needs .*; empty: {role}$"):
            run_full(small_cfg(), DatasetBundle(**roles), recorder)
        assert recorder.predicted == []
        assert recorder.gradient_calls == 0

    def test_one_oracle_plays_teacher_and_student(self, bundle, monkeypatch):
        # nothing trains, so stage 2 gets the very object that pseudo-labeled
        seen = {}

        def pseudo_label(oracle, *args):
            seen["pseudo"] = oracle
            return generate_pseudo_labels(oracle, *args)

        def advmix(cfg, labeled, pseudo, oracle):
            seen["advmix"] = oracle
            return run_advmix_stage(cfg, labeled, pseudo, oracle)

        monkeypatch.setattr(pipeline, "generate_pseudo_labels", pseudo_label)
        monkeypatch.setattr(pipeline, "run_advmix_stage", advmix)
        oracle = GridClusterOracle()
        run_full(small_cfg(), bundle, oracle)
        assert seen["pseudo"] is seen["advmix"] is oracle
        run_full(small_cfg(), bundle)
        assert seen["pseudo"] is seen["advmix"]

    def test_deterministic_end_to_end(self, bundle):
        a = run_full(small_cfg(), bundle)
        b = run_full(small_cfg(), bundle)
        assert a[0].to_json() == b[0].to_json()
        assert a[1].to_json() == b[1].to_json()

    def test_counts_satisfy_ordering(self, bundle):
        _, r2 = run_full(small_cfg(), bundle)
        for e in r2.epochs:
            assert e.points_perturbed <= e.points_candidates <= e.points_total

    @pytest.mark.parametrize("seed", range(4))
    def test_pseudo_boxes_kept_and_discarded_are_the_teacher_boxes(self, seed):
        bundle = synthesize_dataset(seed)
        _, report = run_full(PipelineConfig(seed=seed), bundle)
        predicted = sum(len(GridClusterOracle().predict(s)) for s in bundle.target_unlabeled)
        assert report.pseudo_boxes_kept + report.pseudo_boxes_discarded == predicted
        assert report.pseudo_boxes_discarded > 0

    @pytest.mark.parametrize("loss", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("pseudo_only", [False, True])
    def test_non_finite_loss_is_refused(self, loss, pseudo_only):
        # everywhere, stage 1's detection loss meets it first; on pseudo
        # scenes only, the stage-2 perturbation does
        oracle = NonFiniteLossOracle(loss, pseudo_only)
        bundle = synthesize_dataset(0, n_source=2, n_labeled=2, n_unlabeled=2)
        with pytest.raises(ValueError, match=f"^loss must be finite, got {loss!r}$"):
            run_full(PipelineConfig(), bundle, oracle)
        assert any(s.pseudo_labeled for s in oracle.evaluated) == pseudo_only


class CountingOracle:
    """GridClusterOracle behind a proxy that counts its calls and keeps the
    scenes it took a loss on."""

    def __init__(self):
        self.inner = GridClusterOracle()
        self.predict_calls = 0
        self.evaluated = []

    def counts(self):
        return self.predict_calls, len(self.evaluated)

    def predict(self, scene):
        self.predict_calls += 1
        return self.inner.predict(scene)

    def loss_and_gradient(self, scene, boxes):
        self.evaluated.append(scene)
        return self.inner.loss_and_gradient(scene, boxes)


class FieldTrackingOracle(CountingOracle):
    """Records, at each loss call, how many earlier gradient fields live."""

    def __init__(self):
        super().__init__()
        self.fields = []
        self.most_alive = 0

    def loss_and_gradient(self, scene, boxes):
        alive = sum(ref() is not None for ref in self.fields)
        self.most_alive = max(self.most_alive, alive)
        loss, field = super().loss_and_gradient(scene, boxes)
        self.fields.append(weakref.ref(field))
        return loss, field


class NonFiniteLossOracle(CountingOracle):
    """Takes `loss` in place of the oracle's own, on pseudo-labeled scenes
    only if `pseudo_only` is set."""

    def __init__(self, loss, pseudo_only):
        super().__init__()
        self.loss, self.pseudo_only = loss, pseudo_only

    def loss_and_gradient(self, scene, boxes):
        loss, field = super().loss_and_gradient(scene, boxes)
        return (loss if self.pseudo_only and not scene.pseudo_labeled else self.loss), field


class EmptySceneTeacher(CountingOracle):
    """Detects one box in a scene without points and takes a loss of 1.25
    there, where GridClusterOracle would find nothing."""

    def predict(self, scene):
        if scene.n_points:
            return super().predict(scene)
        self.predict_calls += 1
        return [Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, score=1.0)]

    def loss_and_gradient(self, scene, boxes):
        if scene.n_points:
            return super().loss_and_gradient(scene, boxes)
        self.evaluated.append(scene)
        return 1.25, GradientField(np.zeros((0, 3)))


class TestStageTwoReuse:
    """Within one run_full, an unmixed AM branch is the pseudo scene itself:
    stage 2 takes its prediction from the teacher and its detection loss
    from the perturbation, with the reports unchanged."""

    # (predict, loss_and_gradient) calls of one run_full on the default
    # bundle; every seed made (56, 84) before the reuse.
    PINNED_CALLS = {0: (46, 74), 1: (51, 79), 2: (50, 78), 3: (47, 75)}

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_calls_are_pinned(self, seed):
        proxy = CountingOracle()
        bundle = synthesize_dataset(seed)
        first = run_full(PipelineConfig(seed=seed), bundle, proxy)
        assert proxy.counts() == self.PINNED_CALLS[seed]
        # a second call repeats the first: nothing carries over between calls
        second = run_full(PipelineConfig(seed=seed), bundle, proxy)
        assert proxy.counts() == tuple(2 * n for n in self.PINNED_CALLS[seed])
        assert [r.to_json() for r in first] == [r.to_json() for r in second]

    def test_standalone_stage_predicts_both_branches(self, bundle):
        proxy = CountingOracle()
        run_full(small_cfg(), bundle, proxy)
        pseudo = generate_pseudo_labels(proxy, bundle.target_unlabeled, 0.3)
        before = proxy.predict_calls
        cfg = small_cfg(p_am=0.0, epochs_am=2)
        report = run_advmix_stage(cfg, bundle.target_labeled, pseudo, proxy)
        samples = sum(e.scenes_processed for e in report.epochs)
        assert proxy.predict_calls - before == 2 * samples

    @pytest.mark.parametrize("seed", range(2))
    def test_no_gradient_field_is_kept(self, seed):
        oracle = FieldTrackingOracle()
        run_full(PipelineConfig(seed=seed), synthesize_dataset(seed), oracle)
        assert len(oracle.fields) == self.PINNED_CALLS[seed][1]
        assert oracle.most_alive <= 1

    def test_redrawn_pseudo_scene_recomputes_its_gradient(self, monkeypatch):
        drawn = []

        def perturb(scene, *args):
            drawn.append(scene)
            return pipeline_adversarial_perturb(scene, *args)

        pipeline_adversarial_perturb = pipeline.adversarial_perturb_detailed
        monkeypatch.setattr(pipeline, "adversarial_perturb_detailed", perturb)
        oracle = CountingOracle()
        run_full(PipelineConfig(seed=0), synthesize_dataset(0), oracle)
        redrawn = {id(s) for s in drawn if sum(d is s for d in drawn) > 1}
        assert redrawn
        for scene in drawn:
            # one gradient per draw, from the perturbation; an unmixed AM
            # branch reuses that draw's loss
            draws = sum(d is scene for d in drawn)
            assert sum(s is scene for s in oracle.evaluated) == draws * bool(scene.boxes)

    def test_pseudo_scene_without_points_takes_its_am_loss(self, bundle):
        # the perturbation returns early on a scene without points and takes
        # no loss, so the AM branch takes its own, as a standalone stage does
        empty = Scene(np.zeros((0, 4)), [], DomainTag.TARGET_UNLABELED)
        roles = DatasetBundle(bundle.source, bundle.target_labeled, [empty, bundle.target_unlabeled[0]])
        cfg = small_cfg(p_am=0.0)  # every AM branch is its pseudo scene
        oracle = EmptySceneTeacher()
        _, report = run_full(cfg, roles, oracle)

        teacher = EmptySceneTeacher()
        pseudo = generate_pseudo_labels(teacher, roles.target_unlabeled, 0.3)
        expected = run_advmix_stage(cfg, roles.target_labeled, pseudo, teacher)
        predicted = sum(len(teacher.predict(s)) for s in roles.target_unlabeled)
        expected.pseudo_boxes_discarded = predicted - expected.pseudo_boxes_kept
        assert pseudo[0].boxes and pseudo[0].n_points == 0
        assert report.to_json() == expected.to_json()
        losses_on_empty = [s for s in oracle.evaluated if s.n_points == 0]
        assert len(losses_on_empty) == sum(s.n_points == 0 for s in teacher.evaluated) > 0
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == EMPTY_SCENE_REPORT_SHA256


# The stage-2 report of the test above as computed before the reuse.
EMPTY_SCENE_REPORT_SHA256 = "3a6e023eae44b8b136765d3450340ee189431c61971a27bc34f1f2b0f0d0bc3e"


class TestSlotPairs:
    def test_each_scene_owns_one_slot_paired_across_sets(self):
        a, b = ["a0", "a1", "a2"], ["b0", "b1"]
        rng = seeded_rng(4)
        partners = set()
        for _ in range(50):
            slots = list(_slot_pairs(rng, a, b))
            assert sorted(own for _, _, own in slots) == sorted(a + b)
            for x, y, own in slots:
                assert x in a and y in b and own in (x, y)
                partners.add(y if own == x else x)
        assert partners == set(a + b)


class TestPipelineConfig:
    def test_default_hyperparameters(self):
        cfg = PipelineConfig()
        assert cfg.p_tm == 0.4
        assert cfg.p_am == 0.6
        assert cfg.lam == 1.0
        assert cfg.perturbation.rho == 0.5
        assert cfg.perturbation.epsilon == 0.001

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(p_tm=1.2)
        with pytest.raises(ValueError):
            PipelineConfig(epochs_tm=0)
        with pytest.raises(ValueError):
            PipelineConfig(lam=-0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 1.5),
            ("epochs_tm", 1.5),
            ("epochs_am", 2.0),
            ("seed", "3"),
            ("seed", True),
            ("epochs_tm", True),
        ],
    )
    def test_integer_fields_refuse_non_integers(self, field, value):
        # these used to construct and then fail mid-run with a TypeError
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            PipelineConfig(**{field: value})

    def test_numpy_integer_seed_is_stored_as_int(self):
        cfg = PipelineConfig(seed=np.int64(-5), epochs_tm=np.int64(2))
        assert type(cfg.seed) is int and cfg == PipelineConfig(seed=-5, epochs_tm=2)
        assert seeded_rng(np.uint64(2**64 - 5)).random() == seeded_rng(-5).random()

    @pytest.mark.parametrize("seed", [2**64, -(2**63) - 1, 2**100])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            PipelineConfig(seed=seed)
        with pytest.raises(ValueError, match="seed"):
            seeded_rng(seed)

    def test_seed_range_bounds_accepted(self):
        for seed in (-(2**63), 2**64 - 1):
            assert PipelineConfig(seed=seed).seed == seed
        twin = seeded_rng(2**63).random(4)
        assert np.array_equal(seeded_rng(-(2**63)).random(4), twin)
        assert seeded_rng(2**64 - 1).random() != seeded_rng(0).random()

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: PipelineConfig(lam=math.nan), id="lam-nan"),
            pytest.param(lambda: PipelineConfig(lam=math.inf), id="lam-inf"),
            pytest.param(lambda: PerturbationConfig(epsilon=math.inf), id="epsilon-inf"),
            pytest.param(
                lambda: PerturbationConfig(mode_weights=(math.nan, 0.5, 0.5)), id="weight-nan"
            ),
            pytest.param(lambda: SectorParams(max_width=math.inf), id="max-width-inf"),
            pytest.param(lambda: SensorSpec(16, 64, -0.3, math.inf), id="vfov-max-inf"),
            pytest.param(lambda: SensorSpec(16, 64, -math.inf, 0.1), id="vfov-min-inf"),
        ],
    )
    def test_non_finite_floats_refused(self, build):
        # parse_config refuses these in a file; built in code they used to
        # pass, and lam=inf turned a zero consistency term into NaN
        with pytest.raises(ValueError, match="finite"):
            build()

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize(
        "base", [PipelineConfig(), PerturbationConfig(), SectorParams(), SMALL, GridClusterOracle()],
        ids=lambda base: type(base).__name__,
    )
    def test_float_fields_refuse_bool(self, base, flag):
        # PipelineConfig(p_tm=True) was accepted and saved as `p_tm = True`,
        # which load_config then refused; every float field is checked alike
        names = [f.name for f in dataclasses.fields(base) if f.type in ("float", float)]
        assert names
        for name in names:
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                dataclasses.replace(base, **{name: flag})

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("i", range(3))
    def test_mode_weights_refuse_bool(self, i, flag):
        # the weights still sum to 1, so only the type check can refuse them;
        # True used to become a weight of 1.0
        weights = [0.0, 0.0, 0.0]
        weights[i], weights[(i + 1) % 3] = flag, float(not flag)
        with pytest.raises(ValueError, match=rf"^mode_weights\[{i}\] must be finite"):
            PerturbationConfig(mode_weights=tuple(weights))
