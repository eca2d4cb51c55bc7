import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_box, random_scene
from lidarmix.adversarial import PerturbationConfig
from lidarmix.geometry import Box3D, DomainTag, Scene
from lidarmix.io import (
    ConfigError,
    MalformedRecord,
    NonFiniteValue,
    TruncatedFile,
    format_config,
    load_config,
    load_manifest,
    parse_config,
    read_cloud,
    read_labels,
    save_config,
    save_manifest,
    write_cloud,
    write_labels,
)
from lidarmix.pipeline import DatasetBundle, PipelineConfig
from lidarmix.synth import NoiseParams, synthesize_dataset


class TestCloudFiles:
    def test_round_trip_bit_identical(self, rng, tmp_path):
        # start from float32-representable values so the trip is exact
        pts = rng.uniform(-50, 50, size=(1000, 4)).astype(np.float32).astype(np.float64)
        scene = Scene(pts)
        path = tmp_path / "cloud.bin"
        write_cloud(scene, path)
        back = read_cloud(path)
        assert np.array_equal(back.points, pts)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        scene = read_cloud(path)
        assert scene.n_points == 0

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(TruncatedFile):
            read_cloud(path)

    def test_non_finite_rejected_on_read(self, tmp_path):
        path = tmp_path / "nan.bin"
        data = np.array([1.0, 2.0, np.nan, 0.5], dtype="<f4")
        path.write_bytes(data.tobytes())
        with pytest.raises(NonFiniteValue):
            read_cloud(path)

    def test_non_finite_rejected_on_write(self, tmp_path):
        scene = Scene(np.array([[1.0, 2.0, np.inf, 0.0]]))
        with pytest.raises(NonFiniteValue):
            write_cloud(scene, tmp_path / "x.bin")

    def test_order_preserved(self, rng, tmp_path):
        pts = np.arange(40, dtype=np.float64).reshape(10, 4)
        path = tmp_path / "ordered.bin"
        write_cloud(Scene(pts), path)
        assert np.array_equal(read_cloud(path).points, pts)


class TestLabelFiles:
    def test_basic_record(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 0 0 2 2 2 0 1\n")
        boxes = read_labels(path)
        assert len(boxes) == 1
        assert boxes[0] == Box3D(0, 0, 0, w=2, l=2, h=2, yaw=0, class_id=1)
        assert boxes[0].score is None

    def test_score_field(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1 2 3 2 4 1.5 0.5 0 0.75\n")
        box = read_labels(path)[0]
        assert box.score == 0.75

    def test_seven_fields_malformed(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("# header\n0 0 0 2 2 2 0\n")
        with pytest.raises(MalformedRecord) as exc:
            read_labels(path)
        assert exc.value.line == 2

    def test_non_numeric_malformed(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("a b c d e f g h\n")
        with pytest.raises(MalformedRecord):
            read_labels(path)

    def test_bad_sizes_malformed(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 0 0 -1 2 2 0 1\n")
        with pytest.raises(MalformedRecord):
            read_labels(path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("# comment\n\n0 0 0 1 1 1 0 0  # trailing\n")
        assert len(read_labels(path)) == 1

    def test_yaw_renormalized_on_read(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 0 0 1 1 1 10 0\n")
        box = read_labels(path)[0]
        assert -math.pi <= box.yaw < math.pi

    def test_round_trip_100_random_boxes(self, rng, tmp_path):
        boxes = [random_box(rng) for _ in range(100)]
        path = tmp_path / "labels.txt"
        write_labels(boxes, path)
        back = read_labels(path)
        for orig, new in zip(boxes, back):
            for name in ("cx", "cy", "cz", "w", "l", "h", "yaw"):
                o, n = getattr(orig, name), getattr(new, name)
                assert n == pytest.approx(o, rel=1e-7, abs=1e-7)
            assert new.class_id == orig.class_id

    def test_empty_list(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_labels([], path)
        assert read_labels(path) == []


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = PipelineConfig()
        assert parse_config(format_config(cfg)) == cfg

    def test_custom_round_trip(self):
        cfg = PipelineConfig(p_tm=0.25, seed=99, epochs_tm=3, random_stride=True)
        assert parse_config(format_config(cfg)) == cfg

    def test_float_precision_survives_save_and_load(self, tmp_path):
        cfg = PipelineConfig(p_tm=0.1234567891234)
        save_config(cfg, tmp_path / "config.txt")
        assert load_config(tmp_path / "config.txt").p_tm == 0.1234567891234

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1e6),
        st.floats(1e-12, 10.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(1e-12, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_float_keys_round_trip_exactly(self, p_tm, p_am, lam, epsilon, rho, threshold, knee):
        cfg = PipelineConfig(
            p_tm=p_tm,
            p_am=p_am,
            lam=lam,
            perturbation=PerturbationConfig(epsilon=epsilon, rho=rho),
            pseudo_score_threshold=threshold,
            smooth_l1_knee=knee,
        )
        assert parse_config(format_config(cfg)) == cfg

    def test_degree_keys_written_to_nine_digits(self):
        cfg = parse_config("sector_min_width_deg = 12.3456789012\n")
        text = format_config(cfg)
        assert "sector_min_width_deg = 12.3456789\n" in text

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("not_a_key = 3\n")

    @pytest.mark.parametrize(
        "line",
        [
            "p_tm = 1.5",
            "p_am = -0.2",
            "rho = -0.1",
            "pseudo_score_threshold = 2",
            "epsilon = 0",
            "lambda = -1",
            "k_sectors = 0",
            "epochs_am = 0",
            "smooth_l1_knee = 0",
            "sector_min_width_deg = 0",
            "source_channels = 0",
            "target_points_per_channel = 0",
            "target_vfov_min_deg = 10\ntarget_vfov_max_deg = -30",
        ],
    )
    def test_out_of_range_values_rejected(self, line):
        with pytest.raises(ConfigError):
            parse_config(line + "\n")

    def test_bad_syntax_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("p_tm 0.4\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("epochs_tm = many\n")
        with pytest.raises(ConfigError):
            parse_config("random_stride = maybe\n")

    def test_degrees_converted_once(self):
        cfg = parse_config("source_vfov_min_deg = -17.6\n")
        assert cfg.source_spec.vfov_min == pytest.approx(math.radians(-17.6))

    def test_mode_weights_validated(self):
        with pytest.raises(ConfigError):
            parse_config("mode_weight_translate = 0.9\n")  # sum != 1

    def test_comments_allowed(self):
        cfg = parse_config("# a comment\np_tm = 0.2  # inline\n")
        assert cfg.p_tm == 0.2


class TestManifest:
    def test_round_trip(self, tmp_path):
        bundle = synthesize_dataset(
            3, n_source=2, n_labeled=1, n_unlabeled=2, noise=NoiseParams(ground_points=100)
        )
        cfg = PipelineConfig(seed=3)
        save_manifest(bundle, cfg, tmp_path)
        back, back_cfg = load_manifest(tmp_path)
        assert back_cfg == cfg
        assert len(back.source) == 2
        assert len(back.target_labeled) == 1
        assert len(back.target_unlabeled) == 2
        for orig, new in zip(bundle.source, back.source):
            assert np.array_equal(
                new.points, orig.points.astype(np.float32).astype(np.float64)
            )
            assert len(new.boxes) == len(orig.boxes)
        assert back.target_labeled[0].domain_tag is DomainTag.TARGET_LABELED
        assert back.target_unlabeled[0].boxes == []

    def test_missing_labeled_labels_is_io_error(self, tmp_path, rng):
        bundle = DatasetBundle([], [random_scene(rng, domain_tag=DomainTag.TARGET_LABELED)], [])
        save_manifest(bundle, PipelineConfig(), tmp_path)
        (tmp_path / "target_labeled" / "0000.txt").unlink()
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "nope")
