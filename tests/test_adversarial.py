import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cluster_scene, random_box, raycast_world, reference_points_in_box
from lidarmix import adversarial, geometry, pipeline, synth
from lidarmix.adversarial import (
    GradientField,
    OneSidedEmpty,
    PerturbationConfig,
    PerturbOutcome,
    _perturbation_delta,
    adversarial_perturb_detailed,
    advmix_sample,
    consistency_loss,
    point_mixup,
    surrogate_loss,
)
from lidarmix.geometry import Box3D, DomainTag, Scene, points_in_box
from lidarmix.gradcheck import gradient_relative_error, make_gradcheck_fixture
from lidarmix.oracle import GridClusterOracle
from lidarmix.pipeline import PipelineConfig, run_advmix_stage


class SurrogateProvider:
    def loss_and_gradient(self, scene, boxes):
        return surrogate_loss(scene, boxes)


def off_center(rng, boxes):
    """Each box moved 0 to 2.5 m along its heading axis and lengthened to
    keep its old footprint, so its centroid offset falls below or above
    the smooth-L1 knee at 1 m."""
    offsets = rng.uniform(0.0, 2.5, size=len(boxes))
    return [
        dataclasses.replace(b, cx=b.cx + d, l=b.l + 2.0 * d) for b, d in zip(boxes, offsets)
    ]


def reference_smooth_l1(r):
    """Loss and slope of smooth-L1 with its knee at 1."""
    return (0.5 * r * r, r) if r < 1.0 else (r - 0.5, 1.0)


class TestSurrogateLoss:
    def test_requires_boxes(self):
        with pytest.raises(ValueError, match="at least one box"):
            surrogate_loss(Scene(np.empty((0, 4))), [])

    def test_symmetric_points_zero_loss(self):
        box = Box3D(5.0, 0.0, 0.0, w=2, l=2, h=2, yaw=0.3)
        offsets = np.array([[0.4, 0.1, -0.2], [-0.4, -0.1, 0.2]])
        world = box.center() + offsets @ box.rotation().T
        scene = Scene(np.column_stack([world, np.zeros(2)]))
        loss, field = surrogate_loss(scene, [box])
        assert loss == 0.0
        assert np.all(field.grads == 0.0)

    def test_single_point_below_knee(self):
        # centroid at offset d along the heading axis: loss d^2/2,
        # gradient magnitude d, aligned with the heading direction
        d = 0.4
        box = Box3D(3.0, -2.0, 1.0, w=2, l=2, h=2, yaw=0.7)
        world = box.center() + np.array([d, 0.0, 0.0]) @ box.rotation().T
        scene = Scene(np.array([[*world, 0.0]]))
        loss, field = surrogate_loss(scene, [box])
        assert loss == pytest.approx(d * d / 2, abs=1e-12)
        grad = field.grads[0]
        assert np.linalg.norm(grad) == pytest.approx(d, abs=1e-12)
        heading = box.rotation()[:, 0]
        assert grad @ heading == pytest.approx(d, abs=1e-12)

    def test_empty_box_contributes_zero(self):
        near = Box3D(5.0, 0.0, 0.0, w=2, l=2, h=2, yaw=0.0)
        far = Box3D(-20.0, 0.0, 0.0, w=1, l=1, h=1, yaw=0.0)
        scene = Scene(np.array([[5.4, 0.0, 0.0, 0.0]]))
        loss_one, _ = surrogate_loss(scene, [near])
        loss_two, _ = surrogate_loss(scene, [near, far])
        assert loss_two == pytest.approx(loss_one / 2)

    def test_out_of_box_gradient_zero(self, rng):
        scene, boxes = make_gradcheck_fixture(rng)
        _, field = surrogate_loss(scene, boxes)
        inside = np.zeros(scene.n_points, dtype=bool)
        for b in boxes:
            inside[points_in_box(scene, b)] = True
        assert np.all(field.grads[~inside] == 0.0)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(5):
            scene, boxes = make_gradcheck_fixture(rng)
            assert gradient_relative_error(scene, boxes) < 1e-5

    def test_matches_per_box_reference(self):
        # the loss loop as it was before the shared assignment, bit for bit
        offsets = []

        def reference(scene, boxes):
            grads = np.zeros((scene.n_points, 3))
            total = 0.0
            for box in boxes:
                idx = reference_points_in_box(scene.xyz, box)
                if idx.size == 0:
                    continue
                rot = box.rotation()
                local = (scene.xyz[idx] - box.center()) @ rot
                centroid = local.mean(axis=0)
                r = float(np.linalg.norm(centroid))
                offsets.append(r)
                loss, slope = reference_smooth_l1(r)
                total += loss
                if r > 0.0:
                    grads[idx] += ((slope / r) * centroid / idx.size) @ rot.T
            return total / len(boxes), grads / len(boxes)

        for seed in range(30):
            rng = np.random.default_rng(seed)
            centers = [(rng.uniform(5, 9), rng.uniform(-2, 2), 0.0) for _ in range(4)]
            scene = cluster_scene(rng, centers, n_per=int(rng.integers(1, 40)))
            # off-centre, overlapping, rotated and empty boxes
            boxes = off_center(rng, scene.boxes)
            boxes += [random_box(rng, dist_range=(4.0, 10.0)) for _ in range(3)]
            loss, field = surrogate_loss(scene, boxes)
            ref_loss, ref_grads = reference(scene, boxes)
            assert loss == ref_loss
            assert np.array_equal(field.grads, ref_grads)
        # both smooth-L1 branches, many times over
        assert sum(r < 1.0 for r in offsets) > 20 and sum(r >= 1.0 for r in offsets) > 20

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_per=st.integers(1, 300),
        extra=st.integers(0, 4),
    )
    def test_matches_mean_and_norm_loop(self, seed, n_per, extra):
        # the loop over one shared assignment with .mean(axis=0) and
        # np.linalg.norm, bit for bit
        def reference(scene, boxes):
            grads = np.zeros((scene.n_points, 3))
            total = 0.0
            indptr, indices, local = geometry._assign_local(scene.xyz, boxes)
            for box, start, stop in zip(boxes, indptr[:-1].tolist(), indptr[1:].tolist()):
                if stop == start:
                    continue
                idx = indices[start:stop]
                centroid = local[start:stop].mean(axis=0)
                r = float(np.linalg.norm(centroid))
                loss, slope = reference_smooth_l1(r)
                total += loss
                if r > 0.0:
                    grads[idx] += ((slope / r) * centroid / idx.size) @ box.rotation().T
            return total / len(boxes), grads / len(boxes)

        rng = np.random.default_rng(seed)
        centers = [(rng.uniform(5, 9), rng.uniform(-2, 2), 0.0) for _ in range(4)]
        scene = cluster_scene(rng, centers, n_per=n_per)
        boxes = off_center(rng, scene.boxes)
        boxes += [random_box(rng, dist_range=(4.0, 10.0)) for _ in range(extra)]
        loss, field = surrogate_loss(scene, boxes)
        ref_loss, ref_grads = reference(scene, boxes)
        assert loss == ref_loss
        assert field.grads.tobytes() == ref_grads.tobytes()

    def test_above_knee_branch(self):
        # single point 3 m off-center: loss = 3 - 0.5, slope 1
        box = Box3D(0.0, 10.0, 0.0, w=8, l=8, h=8, yaw=0.0)
        scene = Scene(np.array([[3.0, 10.0, 0.0, 0.0]]))
        loss, field = surrogate_loss(scene, [box])
        assert loss == pytest.approx(2.5, abs=1e-12)
        assert np.linalg.norm(field.grads[0]) == pytest.approx(1.0, abs=1e-12)


class TestPerturbationDelta:
    def test_norms_equal_epsilon(self, rng):
        grads = rng.normal(size=(100, 3))
        grads[::7] = 0.0
        delta = _perturbation_delta(grads, 0.001)
        norms = np.linalg.norm(delta, axis=1)
        nz = np.linalg.norm(grads, axis=1) > 0
        assert np.abs(norms[nz] - 0.001).max() < 1e-9
        assert np.all(norms[~nz] == 0.0)

    def test_opposes_gradient_componentwise(self, rng):
        grads = rng.normal(size=(50, 3))
        delta = _perturbation_delta(grads, 0.5)
        assert np.all(delta * grads <= 0.0)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            _perturbation_delta(np.zeros((1, 3)), 0.0)

    @pytest.mark.parametrize("epsilon", [np.inf, np.nan])
    def test_rejects_non_finite_epsilon(self, rng, epsilon):
        # an inf epsilon gave NaN deltas wherever a gradient component is 0
        grads = rng.normal(size=(4, 3))
        grads[0, 0] = 0.0
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            _perturbation_delta(grads, epsilon)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(*[st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0, 5e-324])] * 3)
            | st.just((0.0, 0.0, 0.0)),
            min_size=1,
            max_size=40,
        ),
        data=st.data(),
        epsilon=st.floats(1e-6, 10.0),
    )
    def test_row_subset_matches_full_field(self, rows, data, epsilon):
        # the rows of the full-field delta, byte for byte, zero rows included
        g = np.array(rows)
        subset = np.array(
            data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=len(rows))), dtype=np.intp
        )
        part = _perturbation_delta(g[subset], epsilon)
        full = _perturbation_delta(g, epsilon)
        assert part.tobytes() == full[subset].tobytes()

    def test_default_hyperparameters(self):
        cfg = PerturbationConfig()
        assert cfg.epsilon == 0.001
        assert cfg.rho == 0.5
        assert cfg.mode_weights == (1 / 3, 1 / 3, 1 / 3)

    def test_mode_weights_kept_as_given(self):
        # dividing by a sum 1 ulp off 1 moved these weights on every rebuild
        weights = (0.3, 0.650117356456145, (1.0 - 0.3) - 0.650117356456145)
        cfg = PerturbationConfig(mode_weights=weights)
        assert cfg.mode_weights == weights
        assert PerturbationConfig(mode_weights=cfg.mode_weights) == cfg


class ZeroingProvider(SurrogateProvider):
    """Surrogate loss with the gradient zeroed on the rows in zero_rows."""

    def __init__(self, zero_rows):
        super().__init__()
        self.zero_rows = zero_rows

    def loss_and_gradient(self, scene, boxes):
        loss, field = super().loss_and_gradient(scene, boxes)
        grads = field.grads.copy()
        grads[self.zero_rows] = 0.0
        return loss, GradientField(grads)


class MembersLessProvider:
    """A two-argument provider that knows nothing of box members: the
    oracle's gradient, handed over without them."""

    def __init__(self, inner):
        self.inner = inner

    def loss_and_gradient(self, scene, boxes):
        loss, field = self.inner.loss_and_gradient(scene, boxes)
        return loss, GradientField(field.grads)


class ShortMembersProvider(SurrogateProvider):
    """Surrogate loss whose members miss the last box."""

    def loss_and_gradient(self, scene, boxes):
        loss, field = super().loss_and_gradient(scene, boxes)
        indptr, indices = field.members
        return loss, GradientField(field.grads, (indptr[:-1], indices))


class PaddedFieldProvider(SurrogateProvider):
    """Surrogate loss whose gradient field carries 5 extra rows."""

    def loss_and_gradient(self, scene, boxes):
        loss, field = super().loss_and_gradient(scene, boxes)
        return loss, GradientField(np.vstack([np.ones((5, 3)), field.grads]), field.members)


class WrappingMembersProvider(SurrogateProvider):
    """Surrogate loss whose first member is point -1, which numpy would wrap
    onto the last point, or with `past_the_end` point n_points."""

    def __init__(self, past_the_end=False):
        self.past_the_end = past_the_end

    def loss_and_gradient(self, scene, boxes):
        loss, field = super().loss_and_gradient(scene, boxes)
        indptr, indices = field.members
        indices = indices.copy()
        indices[0] = scene.n_points if self.past_the_end else -1
        return loss, GradientField(field.grads, (indptr, indices))


class FixedLossProvider(SurrogateProvider):
    """Surrogate gradient with `loss` in place of the surrogate loss; records
    the scenes it is asked about."""

    def __init__(self, loss):
        self.loss, self.asked = loss, []

    def loss_and_gradient(self, scene, boxes):
        self.asked.append(scene)
        return self.loss, super().loss_and_gradient(scene, boxes)[1]


class RetypedMembersProvider(SurrogateProvider):
    """Surrogate loss whose member indices are cast to `dtype`."""

    def __init__(self, dtype):
        self.dtype = dtype

    def loss_and_gradient(self, scene, boxes):
        loss, field = super().loss_and_gradient(scene, boxes)
        indptr, indices = field.members
        return loss, GradientField(field.grads, (indptr, indices.astype(self.dtype)))


def reference_perturb(scene, boxes, provider, cfg, rng):
    """Per-selected-point reference for adversarial_perturb_detailed with
    the same draws: remove counts every selected point, translate and add
    skip points with a zero gradient."""
    loss, field = provider.loss_and_gradient(scene, boxes)
    delta = _perturbation_delta(field.grads, cfg.epsilon)
    candidates = np.unique(np.concatenate([reference_points_in_box(scene.xyz, b) for b in boxes]))
    outcome = PerturbOutcome(candidates=int(candidates.size), loss=float(loss))
    selected = candidates[rng.random(candidates.size) < cfg.rho]
    modes = rng.choice(3, size=selected.size, p=cfg.mode_weights)
    pts = scene.points.copy()
    keep = np.ones(scene.n_points, dtype=bool)
    added_rows = []
    for idx, mode in zip(selected, modes):
        d = delta[idx]
        if mode == 2:
            keep[idx] = False
            outcome.removed += 1
            continue
        if not d.any():
            continue
        dev = abs(float(np.linalg.norm(d)) - cfg.epsilon)
        outcome.max_norm_deviation = max(outcome.max_norm_deviation, dev)
        if mode == 0:
            pts[idx, :3] += d
            outcome.translated += 1
        else:
            row = scene.points[idx].copy()
            row[:3] += d
            added_rows.append(row)
            outcome.added += 1
    return np.vstack([pts[keep], *added_rows]), outcome


class TestAdversarialPerturb:
    def test_rho_zero_only_attaches_labels(self, rng):
        scene = cluster_scene(rng, [(10, 0, 0), (0, 12, 0)])
        boxes = scene.boxes
        bare = Scene(scene.points, [], DomainTag.TARGET_UNLABELED)
        cfg = PerturbationConfig(rho=0.0)
        out, _ = adversarial_perturb_detailed(bare, boxes, SurrogateProvider(), cfg, rng)
        assert np.array_equal(out.points, bare.points)
        assert out.boxes == boxes
        assert out.pseudo_labeled

    def test_outside_points_bit_identical(self, rng):
        scene = cluster_scene(rng, [(10, 0, 0)])
        outside = np.array([[30.0, 30.0, 0.0, 0.5], [-25.0, 5.0, 1.0, 0.1]])
        merged = Scene(
            np.vstack([outside, scene.points]), [], DomainTag.TARGET_UNLABELED
        )
        cfg = PerturbationConfig(rho=1.0)
        out, _ = adversarial_perturb_detailed(merged, scene.boxes, SurrogateProvider(), cfg, rng)
        assert np.array_equal(out.points[:2], outside)

    def test_point_count_accounting(self, rng):
        scene = cluster_scene(rng, [(10, 0, 0), (0, 12, 0), (-9, -9, 0)])
        bare = Scene(scene.points, [], DomainTag.TARGET_UNLABELED)
        cfg = PerturbationConfig(rho=0.7)
        out, outcome = adversarial_perturb_detailed(
            bare, scene.boxes, SurrogateProvider(), cfg, rng
        )
        assert out.n_points == bare.n_points - outcome.removed + outcome.added
        assert outcome.translated + outcome.added + outcome.removed <= outcome.candidates

    def test_translate_only_descends(self, rng):
        provider = SurrogateProvider()
        cfg = PerturbationConfig(epsilon=0.001, rho=0.5, mode_weights=(1.0, 0.0, 0.0))
        decreased = 0
        trials = 50
        for _ in range(trials):
            centers = [(rng.uniform(5, 20), rng.uniform(-10, 10), 0.0) for _ in range(2)]
            scene = cluster_scene(rng, centers, n_per=30)
            bare = Scene(scene.points, [], DomainTag.TARGET_UNLABELED)
            before, _ = provider.loss_and_gradient(bare, scene.boxes)
            out, _ = adversarial_perturb_detailed(bare, scene.boxes, provider, cfg, rng)
            after, _ = provider.loss_and_gradient(out, scene.boxes)
            if after <= before:
                decreased += 1
        assert decreased >= 0.95 * trials

    def test_requires_unlabeled_tag(self, rng):
        scene = cluster_scene(rng, [(10, 0, 0)], domain_tag=DomainTag.SOURCE)
        with pytest.raises(ValueError):
            adversarial_perturb_detailed(
                scene, scene.boxes, SurrogateProvider(), PerturbationConfig(), rng
            )

    def test_matches_per_point_reference(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            centers = [(rng.uniform(5, 15), rng.uniform(-5, 5), 0.0) for _ in range(3)]
            scene = cluster_scene(rng, centers, n_per=int(rng.integers(5, 40)))
            outside = np.column_stack([rng.uniform(30, 40, (10, 3)), rng.uniform(0, 1, 10)])
            bare = Scene(np.vstack([scene.points, outside]), [], DomainTag.TARGET_UNLABELED)
            cfg = PerturbationConfig(
                epsilon=float(rng.uniform(1e-4, 0.5)),
                rho=float(rng.uniform(0.2, 1.0)),
                mode_weights=tuple(rng.dirichlet(np.ones(3))),
            )
            providers = (
                # members-less: in-box rows (among others) with a zero gradient
                ZeroingProvider(rng.random(bare.n_points) < 0.3),
                # the field carries the loss's own box members
                SurrogateProvider(),
            )
            for provider in providers:
                out, outcome = adversarial_perturb_detailed(
                    bare, scene.boxes, provider, cfg, np.random.default_rng(seed + 1000)
                )
                ref_points, ref_outcome = reference_perturb(
                    bare, scene.boxes, provider, cfg, np.random.default_rng(seed + 1000)
                )
                assert np.array_equal(out.points, ref_points)
                assert outcome == ref_outcome
                assert out.boxes == scene.boxes

    def test_one_assignment_pass(self, rng, monkeypatch):
        # the oracle's loss assigns the points; the perturbation reuses them
        calls = []
        inner = geometry._assign_local

        def counted(xyz, boxes):
            calls.append(len(boxes))
            return inner(xyz, boxes)

        monkeypatch.setattr(geometry, "_assign_local", counted)
        monkeypatch.setattr(adversarial, "_assign_local", counted)
        scene = cluster_scene(rng, [(10, 0, 0), (0, 12, 0), (-9, -9, 0)])
        bare = Scene(scene.points, [], DomainTag.TARGET_UNLABELED)
        adversarial_perturb_detailed(
            bare, scene.boxes, GridClusterOracle(), PerturbationConfig(rho=0.7), rng
        )
        assert calls == [3]

    def test_members_less_provider_gives_same_bits(self):
        oracle = GridClusterOracle()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            centers = [(rng.uniform(5, 15), rng.uniform(-5, 5), 0.0) for _ in range(3)]
            scene = cluster_scene(rng, centers, n_per=int(rng.integers(5, 40)))
            bare = Scene(scene.points, [], DomainTag.TARGET_UNLABELED)
            boxes = oracle.predict(scene) + scene.boxes
            cfg = PerturbationConfig(rho=float(rng.uniform(0.2, 1.0)))
            out, outcome = adversarial_perturb_detailed(
                bare, boxes, oracle, cfg, np.random.default_rng(seed)
            )
            stub_out, stub_outcome = adversarial_perturb_detailed(
                bare, boxes, MembersLessProvider(oracle), cfg, np.random.default_rng(seed)
            )
            assert out.points.tobytes() == stub_out.points.tobytes()
            assert outcome == stub_outcome

    def test_rejects_members_for_other_boxes(self, rng):
        scene = cluster_scene(rng, [(10, 0, 0), (0, 12, 0), (-9, -9, 0)])
        bare = Scene(scene.points, [], DomainTag.TARGET_UNLABELED)
        with pytest.raises(ValueError, match=r"\b3 indptr entries for 3 boxes"):
            adversarial_perturb_detailed(
                bare, scene.boxes, ShortMembersProvider(), PerturbationConfig(), rng
            )

    def test_rejects_field_of_another_size(self, rng):
        scene = cluster_scene(rng, [(10, 0, 0), (0, 12, 0)])
        bare = Scene(scene.points, [], DomainTag.TARGET_UNLABELED)
        with pytest.raises(ValueError, match=rf"{bare.n_points + 5} gradient rows for {bare.n_points} points"):
            adversarial_perturb_detailed(
                bare, scene.boxes, PaddedFieldProvider(), PerturbationConfig(), rng
            )

    def test_rejects_members_outside_the_scene(self, rng):
        scene = cluster_scene(rng, [(10, 0, 0), (0, 12, 0)])
        bare = Scene(scene.points, [], DomainTag.TARGET_UNLABELED)
        with pytest.raises(ValueError, match="members name points outside"):
            adversarial_perturb_detailed(
                bare, scene.boxes, WrappingMembersProvider(), PerturbationConfig(), rng
            )

    def test_rejects_member_one_past_the_last_point(self, rng):
        scene = cluster_scene(rng, [(10, 0, 0), (0, 12, 0)])
        bare = Scene(scene.points, [], DomainTag.TARGET_UNLABELED)
        with pytest.raises(ValueError, match="members name points outside"):
            adversarial_perturb_detailed(
                bare, scene.boxes, WrappingMembersProvider(past_the_end=True), PerturbationConfig(), rng
            )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool])
    def test_rejects_members_that_are_not_integers(self, dtype):
        # float indices used to fail with a bare IndexError from numpy
        labeled = synth.synthesize_dataset(0).target_labeled[0]
        scene = Scene(labeled.points, [], DomainTag.TARGET_UNLABELED)
        with pytest.raises(ValueError, match="members must be integer point indices"):
            adversarial_perturb_detailed(
                scene, labeled.boxes, RetypedMembersProvider(dtype), PerturbationConfig(), np.random.default_rng(0)
            )

    def test_no_boxes_is_noop(self, rng):
        scene = cluster_scene(rng, [(10, 0, 0)])
        bare = Scene(scene.points, [], DomainTag.TARGET_UNLABELED)
        out, outcome = adversarial_perturb_detailed(
            bare, [], SurrogateProvider(), PerturbationConfig(), rng
        )
        assert np.array_equal(out.points, bare.points)
        assert outcome.candidates == 0
        assert outcome.loss is None

    def test_outcome_keeps_the_provider_loss(self, rng):
        scene = cluster_scene(rng, [(10, 0, 0), (0, 12, 0)])
        bare = Scene(scene.points, [], DomainTag.TARGET_UNLABELED)
        provider = FixedLossProvider(np.float32(0.7))
        _, outcome = adversarial_perturb_detailed(bare, scene.boxes, provider, PerturbationConfig(), rng)
        assert type(outcome.loss) is float
        assert outcome.loss == float(np.float32(0.7)) != 0.7
        _, outcome = adversarial_perturb_detailed(
            bare, scene.boxes, SurrogateProvider(), PerturbationConfig(), rng
        )
        assert outcome.loss == surrogate_loss(bare, scene.boxes)[0]

    def test_scene_without_points_takes_no_loss(self, rng):
        boxes = cluster_scene(rng, [(10, 0, 0)]).boxes
        empty = Scene(np.empty((0, 4)), [], DomainTag.TARGET_UNLABELED)
        provider = FixedLossProvider(1.0)
        out, outcome = adversarial_perturb_detailed(empty, boxes, provider, PerturbationConfig(), rng)
        assert out.n_points == 0 and out.boxes == boxes
        assert outcome == PerturbOutcome()
        assert outcome.loss is None and provider.asked == []

    @pytest.mark.parametrize("loss", [math.nan, math.inf, -math.inf])
    def test_non_finite_loss_is_refused(self, rng, loss):
        scene = cluster_scene(rng, [(10, 0, 0)])
        bare = Scene(scene.points, [], DomainTag.TARGET_UNLABELED)
        with pytest.raises(ValueError, match=f"^loss must be finite, got {loss!r}$"):
            adversarial_perturb_detailed(
                bare, scene.boxes, FixedLossProvider(loss), PerturbationConfig(), rng
            )


class TestPerturbAtScanScale:
    """A ray-cast 32-beam scan (about 25k points) with its 25 cars, a little
    loose and scored, as pseudo boxes: the perturbation equals the
    per-point reference bit for bit, with and without the loss's members."""

    @pytest.mark.parametrize(
        "provider",
        [SurrogateProvider(), MembersLessProvider(SurrogateProvider())],
        ids=["members", "members-less"],
    )
    def test_matches_per_point_reference(self, provider):
        _, native, cars = raycast_world(0)
        scene = Scene(native.points, [], DomainTag.TARGET_UNLABELED)
        pseudo = [dataclasses.replace(b, w=b.w + 0.2, l=b.l + 0.2, h=b.h + 0.2, score=0.9) for b in cars]
        cfg = PerturbationConfig()
        out, outcome = adversarial_perturb_detailed(scene, pseudo, provider, cfg, np.random.default_rng(7))
        ref_points, ref_outcome = reference_perturb(scene, pseudo, provider, cfg, np.random.default_rng(7))
        assert out.points.tobytes() == ref_points.tobytes()
        assert outcome == ref_outcome
        assert min(outcome.translated, outcome.added, outcome.removed) > 100


class TestPointMixup:
    def test_empty_b_is_identity(self, rng):
        a = cluster_scene(rng, [(8, 0, 0)], domain_tag=DomainTag.TARGET_LABELED)
        b = Scene(np.empty((0, 4)), [], DomainTag.TARGET_UNLABELED)
        out = point_mixup(a, b)
        assert np.array_equal(out.points, a.points)
        assert out.boxes == a.boxes
        assert out.domain_tag is DomainTag.MIXED

    def test_counts_are_sums(self, rng):
        a = cluster_scene(rng, [(8, 0, 0)], domain_tag=DomainTag.TARGET_LABELED)
        b = cluster_scene(rng, [(0, 9, 0), (-7, 3, 0)], domain_tag=DomainTag.TARGET_UNLABELED)
        out = point_mixup(a, b)
        assert out.n_points == a.n_points + b.n_points
        assert len(out.boxes) == len(a.boxes) + len(b.boxes)
        assert out.boxes == a.boxes + b.boxes

    def test_self_mix_doubles(self, rng):
        a = cluster_scene(rng, [(8, 0, 0)], domain_tag=DomainTag.TARGET_LABELED)
        out = point_mixup(a, a)
        assert out.n_points == 2 * a.n_points
        assert len(out.boxes) == 2 * len(a.boxes)

    def test_rejects_source_scene(self, rng):
        a = cluster_scene(rng, [(8, 0, 0)], domain_tag=DomainTag.TARGET_LABELED)
        s = cluster_scene(rng, [(8, 0, 0)], domain_tag=DomainTag.SOURCE)
        with pytest.raises(ValueError):
            point_mixup(a, s)


def _unit_box(cx, cy=0.0, cz=0.0, yaw=0.0, score=None):
    return Box3D(cx, cy, cz, w=1.5, l=1.5, h=1.5, yaw=yaw, score=score)


def reference_consistency_loss(boxes_am, boxes_pm):
    """Reference: the direct (A, B, 6) broadcast, summed over its last axis."""
    a = np.array([[b.cx, b.cy, b.cz, b.w, b.l, b.h] for b in boxes_am])
    b = np.array([[b.cx, b.cy, b.cz, b.w, b.l, b.h] for b in boxes_pm])
    dist = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    return float((dist.min(axis=1).sum() + dist.min(axis=0).sum()) / (len(a) + len(b)))


@st.composite
def box_sets(draw):
    """1-60 boxes whose fields share one magnitude between 1e-3 and 1e4,
    some repeated within the set."""
    scale = draw(st.sampled_from([1e-3, 1e-2, 1.0, 37.5, 1e3, 1e4]))
    coord = st.floats(-1.0, 1.0, allow_nan=False).map(lambda v: v * scale)
    size = st.floats(0.01, 1.0).map(lambda v: v * scale)
    fields = st.tuples(coord, coord, coord, size, size, size)
    boxes = [Box3D(*f, yaw=0.0) for f in draw(st.lists(fields, min_size=1, max_size=60))]
    repeats = draw(st.lists(st.integers(0, len(boxes) - 1), max_size=10))
    return boxes + [boxes[i] for i in repeats]


class TestConsistencyLoss:
    def test_identical_sets_zero(self, rng):
        boxes = [random_box(rng) for _ in range(4)]
        assert consistency_loss(boxes, list(boxes)) == 0.0

    def test_two_singletons_one_meter(self):
        # each side's nearest distance is 1, so (1 + 1) / 2 = 1
        assert consistency_loss([_unit_box(0.0)], [_unit_box(1.0)]) == pytest.approx(1.0)

    def test_symmetry(self, rng):
        for _ in range(30):
            a = [random_box(rng) for _ in range(rng.integers(1, 5))]
            b = [random_box(rng) for _ in range(rng.integers(1, 5))]
            assert consistency_loss(a, b) == pytest.approx(consistency_loss(b, a), abs=1e-12)

    def test_both_empty(self):
        assert consistency_loss([], []) == 0.0

    def test_one_sided_empty(self):
        with pytest.raises(OneSidedEmpty):
            consistency_loss([_unit_box(0.0)], [])
        with pytest.raises(OneSidedEmpty):
            consistency_loss([], [_unit_box(0.0)])

    def test_yaw_class_score_ignored(self):
        a = [_unit_box(0.0, yaw=0.0)]
        b = [_unit_box(1.0, yaw=0.0)]
        b_rotated = [Box3D(1.0, 0, 0, w=1.5, l=1.5, h=1.5, yaw=2.5, class_id=7, score=0.5)]
        assert consistency_loss(a, b) == consistency_loss(a, b_rotated)

    @given(
        st.lists(st.floats(-20, 20), min_size=1, max_size=5),
        st.lists(st.floats(-20, 20), min_size=1, max_size=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_symmetric(self, xs, ys):
        a = [_unit_box(x) for x in xs]
        b = [_unit_box(y) for y in ys]
        lab = consistency_loss(a, b)
        assert lab >= 0.0
        assert lab == pytest.approx(consistency_loss(b, a), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(box_sets(), box_sets(), st.booleans())
    def test_matches_broadcast_bitwise(self, boxes_am, boxes_pm, share):
        if share:
            boxes_pm = boxes_pm + boxes_am[: len(boxes_am) // 2 + 1]
        assert consistency_loss(boxes_am, boxes_pm) == reference_consistency_loss(
            boxes_am, boxes_pm
        )


def _grid_boxes(rng, n):
    """n distinct boxes on a coarse grid, so some coordinates are exactly 0.0."""
    rows = rng.integers(-3, 4, size=(n, 3)).astype(float)
    rows[:, 0] = np.arange(n) - n // 2  # distinct cx, 0.0 among them
    sizes = rng.uniform(0.5, 3.0, size=(n, 3))
    return [Box3D(*centre, *size, yaw=0.0) for centre, size in zip(rows.tolist(), sizes.tolist())]


def _assert_matches_reference(boxes_am, boxes_pm):
    got = consistency_loss(boxes_am, boxes_pm)
    want = reference_consistency_loss(boxes_am, boxes_pm)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    return got


def _recorded_pipeline_pairs():
    """The (AM, PM) prediction pairs that run_full scores on seeds 0-3."""
    pairs = []

    def record(boxes_am, boxes_pm):
        pairs.append((list(boxes_am), list(boxes_pm)))
        return consistency_loss(boxes_am, boxes_pm)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "consistency_loss", record)
        for seed in range(4):
            pipeline.run_full(PipelineConfig(seed=seed), synth.synthesize_dataset(seed))
    return pairs


@pytest.mark.parametrize("n", [3, 64])  # 64 x 64 pairs reach the twin lookup
class TestConsistencyTwins:
    """Rows equal in all six columns to a row of the other set score 0;
    every case must give the broadcast reference's bits."""

    def test_signed_zero_twins(self, n, rng):
        boxes = _grid_boxes(rng, n)
        flipped = [
            dataclasses.replace(b, **{f: -0.0 for f in ("cx", "cy", "cz") if getattr(b, f) == 0.0})
            for b in boxes
        ]
        assert any(math.copysign(1.0, b.cx) < 0 for b in flipped)
        assert _assert_matches_reference(boxes, flipped) == 0.0
        assert _assert_matches_reference(flipped, boxes + [random_box(rng)]) > 0.0

    def test_equal_cx_other_columns_differ(self, n, rng):
        boxes = _grid_boxes(rng, n)
        # every AM cx also starts a PM row that differs elsewhere, sorted
        # ahead of the true twin or with no twin at all
        decoys = [dataclasses.replace(b, cy=b.cy + 0.25, h=b.h * 2.0) for b in boxes]
        _assert_matches_reference(boxes, decoys + boxes[::2])
        _assert_matches_reference(decoys + boxes[::2], boxes)
        _assert_matches_reference(boxes, decoys)

    def test_near_twins_one_ulp_apart(self, n, rng):
        boxes = _grid_boxes(rng, n)
        for field in ("cx", "cy", "cz", "w", "l", "h"):
            nudged = [
                dataclasses.replace(b, **{field: float(np.nextafter(getattr(b, field), np.inf))})
                for b in boxes
            ]
            assert _assert_matches_reference(boxes, nudged) > 0.0
            _assert_matches_reference(boxes, nudged[: n // 2] + boxes[n // 2 :])

    def test_all_twins(self, n, rng):
        boxes = _grid_boxes(rng, n)
        shuffled = [boxes[i] for i in rng.permutation(n)]
        assert _assert_matches_reference(boxes, shuffled) == 0.0

    def test_no_twins(self, n, rng):
        boxes = _grid_boxes(rng, n)
        _assert_matches_reference(boxes, [random_box(rng) for _ in range(n)])

    def test_repeated_rows(self, n, rng):
        boxes = _grid_boxes(rng, n)
        repeated = boxes[:2] * 3 + boxes
        others = [random_box(rng) for _ in range(4)]
        _assert_matches_reference(repeated, boxes[1:] + others)
        _assert_matches_reference(boxes[1:] + others + boxes[1:2] * 4, repeated)


def test_consistency_matches_reference_on_pipeline_pairs():
    pairs = _recorded_pipeline_pairs()
    assert len(pairs) == 80
    for boxes_am, boxes_pm in pairs:
        _assert_matches_reference(boxes_am, boxes_pm)


class ScriptedStudent:
    """Detector stub for run_advmix_stage. The stage predicts the AM
    branch, then the PM branch, once per sample; the stub answers those
    calls with the scripted (AM boxes, PM boxes) pairs in turn. Its
    detection loss is 0 with a zero gradient."""

    def __init__(self, samples):
        self.answers = iter([boxes for pair in samples for boxes in pair])

    def predict(self, scene):
        return list(next(self.answers))

    def loss_and_gradient(self, scene, boxes):
        return 0.0, GradientField(np.zeros((scene.n_points, 3)))


def _advmix_epoch(rng, samples):
    """The stage-2 epoch over len(samples) slots (one labeled scene plus
    box-free pseudo-labeled scenes), with the student scripted by samples."""
    labeled = [cluster_scene(rng, [(8, 0, 0)], domain_tag=DomainTag.TARGET_LABELED)]
    pseudo = [
        Scene(cluster_scene(rng, [(0, 9, 0)]).points, [], DomainTag.TARGET_UNLABELED, True)
        for _ in range(len(samples) - 1)
    ]
    student = ScriptedStudent(samples)
    (epoch,) = run_advmix_stage(PipelineConfig(), labeled, pseudo, student).epochs
    assert next(student.answers, None) is None, "script and stage disagree on sample count"
    return epoch


class TestBatchConsistency:
    """Stage 2 averages the consistency loss over the samples where it is
    defined; one-sided-empty samples are counted as skipped and left out
    of numerator and denominator."""

    def test_all_identical_zero(self, rng):
        boxes = [random_box(rng) for _ in range(3)]
        epoch = _advmix_epoch(rng, [(boxes, list(boxes))] * 4)
        assert epoch.mean_consistency_loss == 0.0
        assert (epoch.consistency_samples, epoch.consistency_skipped) == (4, 0)

    def test_skipped_sample_excluded(self, rng):
        defined = ([_unit_box(0.0)], [_unit_box(1.0)])  # loss 1
        am_empty = ([], [_unit_box(0.0)])
        pm_empty = ([_unit_box(0.0)], [])
        epoch = _advmix_epoch(rng, [am_empty, defined, pm_empty])
        assert epoch.mean_consistency_loss == pytest.approx(1.0)
        assert (epoch.consistency_samples, epoch.consistency_skipped) == (1, 2)
        assert epoch.scenes_processed == 3

    def test_mean_of_values(self, rng):
        half = ([_unit_box(0.0)], [_unit_box(0.5)])
        one_and_half = ([_unit_box(0.0)], [_unit_box(1.5)])
        epoch = _advmix_epoch(rng, [half, one_and_half])
        assert epoch.mean_consistency_loss == pytest.approx(1.0)
        assert epoch.mean_total_loss == pytest.approx(1.0)  # lambda 1, detection 0

    def test_empty_input(self, rng):
        # no sample defines the loss: its mean is 0 over 0 samples
        epoch = _advmix_epoch(rng, [([_unit_box(0.0)], [])] * 3)
        assert epoch.mean_consistency_loss == 0.0
        assert (epoch.consistency_samples, epoch.consistency_skipped) == (0, 3)


class TestAdvmixSample:
    def make_scenes(self, rng):
        labeled = cluster_scene(rng, [(8, 0, 0)], domain_tag=DomainTag.TARGET_LABELED)
        raw = cluster_scene(rng, [(0, 9, 0)], domain_tag=DomainTag.TARGET_UNLABELED)
        adv = cluster_scene(rng, [(0, 9, 0)], domain_tag=DomainTag.TARGET_UNLABELED)
        return labeled, adv, raw

    def test_mixup_branch(self, rng):
        labeled, adv, raw = self.make_scenes(rng)
        am, pm, mixed = advmix_sample(rng, 1.0, labeled, adv, raw)
        assert mixed
        assert am.n_points == labeled.n_points + adv.n_points
        assert pm.n_points == labeled.n_points + raw.n_points
        assert np.array_equal(pm.points[labeled.n_points :], raw.points)

    def test_no_mixup_branch_swaps_roles(self, rng):
        labeled, adv, raw = self.make_scenes(rng)
        am, pm, mixed = advmix_sample(rng, 0.0, labeled, adv, raw)
        assert not mixed
        assert am is raw
        assert pm is adv
