import numpy as np
import pytest

from conftest import cluster_scene
from lidarmix.adversarial import GradientField, PerturbationConfig
from lidarmix.geometry import DomainTag, Scene
from lidarmix.oracle import GridClusterOracle
from lidarmix.pipeline import (
    DatasetBundle,
    EmptyDataset,
    PipelineConfig,
    PseudoLabelStats,
    generate_pseudo_labels,
    run_advmix_stage,
    run_full,
    run_targetmix_stage,
)
from lidarmix.sensor import SensorSpec
from lidarmix.synth import NoiseParams, synthesize_dataset

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
        noise=NoiseParams(ground_points=300),
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

    def test_empty_dataset_rejected(self, bundle):
        with pytest.raises(EmptyDataset):
            run_targetmix_stage(small_cfg(), [], bundle.target_labeled, GridClusterOracle())
        with pytest.raises(EmptyDataset):
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
        stats = PseudoLabelStats()
        out = generate_pseudo_labels(GridClusterOracle(), [scene], 0.3, stats)
        assert len(out[0].boxes) == 3
        assert stats.kept == 3
        assert stats.discarded == 0
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
    """Stub detector: no boxes, zero gradients, records every scene it sees."""

    def __init__(self):
        self.predicted = []

    def predict(self, scene):
        self.predicted.append(scene)
        return []

    def loss_and_gradient(self, scene, boxes):
        return 0.0, GradientField(np.zeros((scene.n_points, 3)))

    def clone(self):
        return self


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
        teacher = GridClusterOracle()
        pseudo = generate_pseudo_labels(teacher, bundle.target_unlabeled, 0.3)
        cfg = small_cfg(lam=0.0)
        report = run_advmix_stage(cfg, bundle.target_labeled, pseudo, teacher, teacher.clone())
        for e in report.epochs:
            assert e.mean_total_loss == pytest.approx(e.mean_detection_loss, abs=1e-12)

    def test_deterministic(self, bundle):
        teacher = GridClusterOracle()
        pseudo = generate_pseudo_labels(teacher, bundle.target_unlabeled, 0.3)
        cfg = small_cfg(epochs_am=2)
        r1 = run_advmix_stage(cfg, bundle.target_labeled, pseudo, teacher, teacher.clone())
        r2 = run_advmix_stage(cfg, bundle.target_labeled, pseudo, teacher, teacher.clone())
        assert r1.to_json() == r2.to_json()

    def test_requires_labeled_set(self, bundle):
        with pytest.raises(EmptyDataset):
            run_advmix_stage(small_cfg(), [], [], GridClusterOracle(), GridClusterOracle())

    def test_zero_unlabeled_raises(self, bundle):
        # an epoch over no samples would report all-zero losses
        with pytest.raises(EmptyDataset):
            run_advmix_stage(
                small_cfg(), bundle.target_labeled, [], GridClusterOracle(), GridClusterOracle()
            )

    def test_augmentation_gated_to_labeled_scenes(self, rng):
        labeled, pseudo = self.make_sets(rng)
        recorder = RecordingOracle()
        cfg = small_cfg(
            p_am=1.0,
            perturbation=PerturbationConfig(rho=0.0),
            augment_labeled=True,
        )
        run_advmix_stage(cfg, labeled, pseudo, recorder, recorder)
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

    def test_augmentation_disabled_passes_labeled_through(self, rng):
        labeled, pseudo = self.make_sets(rng)
        recorder = RecordingOracle()
        cfg = small_cfg(
            p_am=1.0,
            perturbation=PerturbationConfig(rho=0.0),
            augment_labeled=False,
        )
        run_advmix_stage(cfg, labeled, pseudo, recorder, recorder)
        for scene in recorder.predicted:
            assert np.array_equal(scene.points[: labeled[0].n_points], labeled[0].points)

    def test_perturbation_counts_ordering(self, bundle):
        teacher = GridClusterOracle()
        pseudo = generate_pseudo_labels(teacher, bundle.target_unlabeled, 0.3)
        report = run_advmix_stage(
            small_cfg(), bundle.target_labeled, pseudo, teacher, teacher.clone()
        )
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
        with pytest.raises(EmptyDataset):
            run_full(small_cfg(), empty)

    def test_deterministic_end_to_end(self, bundle):
        a = run_full(small_cfg(), bundle)
        b = run_full(small_cfg(), bundle)
        assert a[0].to_json() == b[0].to_json()
        assert a[1].to_json() == b[1].to_json()

    def test_counts_satisfy_ordering(self, bundle):
        _, r2 = run_full(small_cfg(), bundle)
        for e in r2.epochs:
            assert e.points_perturbed <= e.points_candidates <= e.points_total


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
