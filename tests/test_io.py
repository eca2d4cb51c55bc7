import dataclasses
import math
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_bench_module, random_box, random_scene
from lidarmix.adversarial import PerturbationConfig
from lidarmix.geometry import Box3D, DomainTag, Scene
from lidarmix.io import (
    _CONFIG_KEYS,
    _config_value,
    MalformedRecord,
    format_config,
    load_bundle,
    load_config,
    parse_config,
    read_cloud,
    read_labels,
    save_config,
    save_manifest,
    write_cloud,
    write_labels,
)
from lidarmix.pipeline import DatasetBundle, PipelineConfig
from lidarmix.sector_mix import SectorParams
from lidarmix.sensor import SensorSpec
from lidarmix.synth import synthesize_dataset


# The words of a refusal's rule, besides the names it refuses.
_RULE_WORDS = {"must", "be", "an", "integer", "in", "finite", "and", "got", "sum", "to", "stay", "below"}


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
        with pytest.raises(MalformedRecord, match=r"bad\.bin: 17 bytes is not a multiple of 16$"):
            read_cloud(path)

    def test_non_finite_rejected_on_read(self, tmp_path):
        path = tmp_path / "nan.bin"
        data = np.array([1.0, 2.0, np.nan, 0.5], dtype="<f4")
        path.write_bytes(data.tobytes())
        with pytest.raises(MalformedRecord, match=r"nan\.bin: cloud contains non-finite values$"):
            read_cloud(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refusal_names_the_file(self, tmp_path, bad):
        path = tmp_path / "bad.bin"
        path.write_bytes(np.array([[1.0, 2.0, 3.0, 0.5], [4.0, bad, 6.0, 0.5]], dtype="<f4").tobytes())
        with pytest.raises(MalformedRecord, match=f"^{re.escape(str(path))}: cloud contains non-finite values$"):
            read_cloud(path)

    def test_non_finite_rejected_on_write(self, tmp_path):
        path = tmp_path / "x.bin"
        write_cloud(Scene(np.ones((2, 4))), path)
        before = path.read_bytes()
        # 1e39 is finite in float64 but overflows float32 to inf
        for bad in (np.inf, 1e39):
            with pytest.raises(MalformedRecord, match="^refusing to write points that are not finite"):
                write_cloud(Scene(np.array([[1.0, 2.0, bad, 0.0]])), path)
            assert path.read_bytes() == before

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
        with pytest.raises(MalformedRecord, match=r"^line 2: expected 8 or 9 fields, got 7$"):
            read_labels(path)

    def test_non_numeric_malformed(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("a b c d e f g h\n")
        with pytest.raises(MalformedRecord):
            read_labels(path)
        # the class id must be a finite integral value
        for class_id in ("inf", "1e400", "nan", "2.7"):
            path.write_text(f"# header\n0 0 0 1 1 1 0 {class_id}\n")
            with pytest.raises(MalformedRecord, match=r"^line 2: "):
                read_labels(path)

    @pytest.mark.parametrize("token", ["2", "2.0", "2e0"])
    def test_integral_class_id_accepted(self, tmp_path, token):
        path = tmp_path / "labels.txt"
        path.write_text(f"0 0 0 1 1 1 0 {token}\n")
        assert read_labels(path)[0].class_id == 2

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

    @pytest.mark.parametrize("class_id", [2.5, True, 2**53 + 1])
    def test_class_id_that_cannot_round_trip_is_refused(self, tmp_path, class_id):
        # each of these used to be written, then refused (or changed) on read
        path = tmp_path / "labels.txt"
        try:
            write_labels([Box3D(0, 0, 0, 1, 1, 1, 0, class_id)], path)
        except ValueError:
            return
        assert read_labels(path)[0].class_id == class_id

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-(2**53), 2**53))
    def test_class_id_round_trips(self, tmp_path_factory, class_id):
        path = tmp_path_factory.mktemp("labels") / "labels.txt"
        write_labels([Box3D(0, 0, 0, 1, 1, 1, 0, class_id)], path)
        assert read_labels(path)[0].class_id == class_id

    @pytest.mark.parametrize("token", ["9007199254740994", "-1e300"])
    def test_class_id_beyond_float64_integers_malformed(self, tmp_path, token):
        path = tmp_path / "labels.txt"
        path.write_text(f"0 0 0 1 1 1 0 0\n0 0 0 1 1 1 0 {token}\n")
        with pytest.raises(MalformedRecord, match=r"^line 2: class id"):
            read_labels(path)

    @pytest.mark.parametrize("score", ["nan", "-nan", "1.5", "inf"])
    def test_bad_score_malformed(self, tmp_path, score):
        path = tmp_path / "labels.txt"
        path.write_text(f"# header\n0 0 0 1 1 1 0 0 {score}\n")
        with pytest.raises(MalformedRecord, match=r"^line 2: score must be in"):
            read_labels(path)

    def test_refusal_names_the_first_bad_line(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 0 0 1 1 1 0 0\n\n0 0 0 1 0 1 0 0\n0 0 0 nan 1 1 0 0\n")
        with pytest.raises(MalformedRecord, match=r"^line 3: box sizes must be positive"):
            read_labels(path)


def _per_box_label_text(boxes) -> str:
    """Label text formatted box by box from Box3D fields: the reference
    that write_labels' row formatting must match byte for byte."""
    lines = []
    for b in boxes:
        fields = [f"{v:.9g}" for v in (b.cx, b.cy, b.cz, b.w, b.l, b.h, b.yaw)]
        fields.append(str(b.class_id))
        if b.score is not None:
            fields.append(f"{b.score:.9g}")
        lines.append(" ".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


class TestLabelText:
    def test_scan_dense_labels_match_reference(self, tmp_path):
        # the scan-dense label sets: ground-truth cars, and the same cars as
        # loosened, scored pseudo-labels
        scans = load_bench_module("scans")
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(1,)))
        for i in range(6):
            cars = scans.place_cars(rng, 25)
            pseudo = [
                Box3D(b.cx, b.cy, b.cz, b.w + 0.2, b.l + 0.2, b.h + 0.2, b.yaw, 0, 0.9) for b in cars
            ]
            for boxes in (cars, pseudo):
                write_labels(boxes, tmp_path / f"{i}.txt")
                assert (tmp_path / f"{i}.txt").read_bytes() == _per_box_label_text(boxes).encode()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.builds(
                Box3D,
                st.floats(-1e300, 1e300),
                st.floats(-1e300, 1e300),
                st.floats(-1e300, 1e300),
                st.floats(1e-300, 1e300),
                st.floats(1e-300, 1e300),
                st.floats(1e-300, 1e300),
                st.floats(-1e6, 1e6),
                st.integers(-(2**53), 2**53),
                st.none() | st.floats(0.0, 1.0),
            ),
            max_size=5,
        )
    )
    def test_hypothesis_boxes_match_reference(self, tmp_path_factory, boxes):
        path = tmp_path_factory.mktemp("labels") / "labels.txt"
        write_labels(boxes, path)
        assert path.read_bytes() == _per_box_label_text(boxes).encode()


def _set_past_validation(cfg, **fields):
    """cfg with fields overwritten after __post_init__ has checked them."""
    for name, value in fields.items():
        object.__setattr__(cfg, name, value)
    return cfg


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = PipelineConfig()
        assert parse_config(format_config(cfg)) == cfg

    def test_custom_round_trip(self):
        cfg = PipelineConfig(p_tm=0.25, seed=99, epochs_tm=3)
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
    )
    @settings(max_examples=200, deadline=None)
    def test_float_keys_round_trip_exactly(self, p_tm, p_am, lam, epsilon, rho, threshold):
        cfg = PipelineConfig(
            p_tm=p_tm,
            p_am=p_am,
            lam=lam,
            perturbation=PerturbationConfig(epsilon=epsilon, rho=rho),
            pseudo_score_threshold=threshold,
        )
        assert parse_config(format_config(cfg)) == cfg

    def test_degree_keys_written_to_nine_digits(self):
        cfg = parse_config("sector_min_width_deg = 12.3456789012\n")
        text = format_config(cfg)
        assert "sector_min_width_deg = 12.3456789\n" in text

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="^line 1: unknown key 'not_a_key'$"):
            parse_config("not_a_key = 3\n")
        # matching derives its stride offsets from the two specs
        with pytest.raises(ValueError, match="^line 1: unknown key 'random_stride'$"):
            parse_config("random_stride = false\n")
        # the reference detector's smooth-L1 knee is fixed at 1 m
        with pytest.raises(ValueError, match="^line 1: unknown key 'smooth_l1_knee'$"):
            parse_config("smooth_l1_knee = 1.0\n")
        # stage 2 always transforms the labeled scene; a config.txt that an
        # older `lidarmix synth` wrote holds this key and is refused too
        with pytest.raises(ValueError, match="^line 1: unknown key 'augment_labeled'$"):
            parse_config("augment_labeled = true\n")

    def test_readme_table_names_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
        named = [key for cell in rows for key in re.findall(r"`(\w+)`", cell)]
        assert sorted(named) == sorted(_CONFIG_KEYS)

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
            "sector_min_width_deg = 0",
            "source_channels = 0",
            "target_points_per_channel = 0",
            "target_vfov_min_deg = 10\ntarget_vfov_max_deg = -30",
            "lambda = nan",
            "lambda = inf",
            "epsilon = inf",
            "mode_weight_translate = nan",
            "source_vfov_max_deg = inf",
            "seed = 18446744073709551616",
            "seed = -9223372036854775809",
        ],
    )
    def test_out_of_range_values_rejected(self, line):
        with pytest.raises(ValueError, match=r"^line 1: "):
            parse_config(line + "\n")

    @pytest.mark.parametrize("seed", [-(2**63), 2**64 - 1])
    def test_seed_range_ends_accepted(self, seed):
        cfg = parse_config(f"seed = {seed}\n")
        assert cfg.seed == seed
        assert parse_config(format_config(cfg)) == cfg

    @pytest.mark.parametrize(
        "cfg, key",
        [
            # math.degrees overflows to inf above about 3.1e306 radians
            (PipelineConfig(sectors=SectorParams(max_width=1e308)), "sector_max_width_deg"),
            # SectorParams refuses k * min_width >= 2pi, and PipelineConfig
            # refuses lam=inf, so these are set past the checks
            (
                PipelineConfig(sectors=_set_past_validation(SectorParams(), min_width=1e307)),
                "sector_min_width_deg",
            ),
            (_set_past_validation(PipelineConfig(), lam=math.inf), "lambda"),
        ],
    )
    def test_value_not_finite_in_file_units_refused_before_writing(self, tmp_path, cfg, key):
        # parse_config refuses a non-finite value, so the file could not be read back
        path = tmp_path / "config.txt"
        save_config(PipelineConfig(), path)
        old = path.read_bytes()
        with pytest.raises(ValueError, match=f"^{key} = .* is not finite$"):
            format_config(cfg)
        with pytest.raises(ValueError, match=f"^{key} = .* is not finite$"):
            save_config(cfg, path)
        assert path.read_bytes() == old

    @pytest.mark.parametrize(
        "text, message",
        [
            # the bound is the default source vfov_min, -17.6 degrees
            (
                "p_tm = 0.2\nsource_vfov_max_deg = -40\n",
                "line 2: source_vfov_max_deg = -40: source_vfov_max_deg must be finite and > -17.6, got -40.0",
            ),
            ("lambda = -1\n", "line 1: lambda = -1: lambda must be finite and >= 0, got -1.0"),
            ("epsilon = 0\n", "line 1: epsilon = 0: epsilon must be finite and > 0, got 0.0"),
            # line 2 makes line 1 valid again, so line 3 is the one refused
            (
                "source_vfov_min_deg = 5\nsource_vfov_max_deg = 10\np_tm = 2\n",
                "line 3: p_tm = 2: p_tm must be finite and >= 0 and <= 1, got 2.0",
            ),
            # a joint bound names the field it refused, in file units
            (
                "target_vfov_min_deg = 12\n",
                "line 1: target_vfov_min_deg = 12: target_vfov_max_deg must be finite and > 12, got 10.0",
            ),
            # the sector packing bound, in keys and degrees
            (
                "k_sectors = 4\nsector_max_width_deg = 120\nsector_min_width_deg = 100\n",
                "line 3: sector_min_width_deg = 100: "
                "k_sectors * sector_min_width_deg = 400 must stay below 360",
            ),
            # a tuple item is named by its own key
            (
                "mode_weight_translate = -0.5\nmode_weight_add = 0.75\nmode_weight_remove = 0.75\n",
                "line 1: mode_weight_translate = -0.5: "
                "mode_weight_translate must be finite and >= 0, got -0.5",
            ),
            # a count and a sum are named by their keys too
            (
                "k_sectors = 0\n",
                "line 1: k_sectors = 0: k_sectors must be an integer >= 1 and <= 2**53, got 0",
            ),
            (
                "source_channels = 0\n",
                "line 1: source_channels = 0: source_channels must be an integer >= 1 and <= 2**53, got 0",
            ),
            (
                "mode_weight_translate = 0.9\n",
                "line 1: mode_weight_translate = 0.9: mode_weight_translate + mode_weight_add"
                " + mode_weight_remove must sum to 1, got 1.5666666666666667",
            ),
        ],
        ids=[
            "degrees", "lambda", "epsilon", "repaired-line", "joint-bound", "packing", "mode-weight",
            "count", "spec-count", "sum",
        ],
    )
    def test_range_refusal_names_line_key_and_file_units(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config(text)

    @pytest.mark.parametrize("key", list(_CONFIG_KEYS))
    def test_every_key_refusal_in_file_terms(self, key):
        # one value each field refuses on its own: a count of 0, a seed past
        # 2**64, a vfov bound beyond its partner, and -1 for every other float
        defaults = PipelineConfig()
        if key == "seed":
            value = 2**64
        elif isinstance(_config_value(defaults, key), int):
            value = 0
        else:
            value = {"min_deg": 100, "max_deg": -100}.get(key[-7:], -1)
        with pytest.raises(ValueError) as refusal:
            parse_config(f"{key} = {value}\n")
        prefix = f"line 1: {key} = {value}: "
        message = str(refusal.value)
        assert message.startswith(prefix)
        rest = message[len(prefix) :]
        # every name is a config key, never an attribute path such as
        # mode_weights[0] or min_width; the rest is the words of a rule
        names = set(re.findall(r"\b[A-Za-z_][\w\[\].]*", rest)) - _RULE_WORDS
        assert names and names <= set(_CONFIG_KEYS)
        # the refused value is the one in the file, or a named key's default,
        # in file units as format_config writes them
        got = float(rest.rpartition(", got ")[2])
        in_file = [float(f"{_config_value(defaults, name):.9g}") for name in names]
        assert got in (value, *in_file)

    @pytest.mark.parametrize("key", ["k_sectors", "source_channels"])
    def test_count_beyond_float_range_refused(self, key):
        # k_sectors raised OverflowError from k * min_width; source_channels
        # was accepted and made matching raise OverflowError
        rule = rf"{key} must be an integer >= 1 and <= 2\*\*53"
        with pytest.raises(ValueError, match=rf"^line 1: {key} = 9+: {rule}, got 9+$"):
            parse_config(f"{key} = {'9' * 401}\n")

    def test_non_finite_value_names_line_and_key(self):
        with pytest.raises(ValueError, match=r"^line 2: bad value for 'lambda'"):
            parse_config("p_tm = 0.2\nlambda = -inf\n")

    def test_every_field_has_exactly_one_key(self):
        def leaves(value, path):
            if dataclasses.is_dataclass(value):
                for f in dataclasses.fields(value):
                    yield from leaves(getattr(value, f.name), path + [f.name])
            elif isinstance(value, tuple):
                for i, item in enumerate(value):
                    yield from leaves(item, path + [str(i)])
            else:
                yield ".".join(path)

        assert sorted(_CONFIG_KEYS.values()) == sorted(leaves(PipelineConfig(), []))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_all_keys_round_trip(self, data):
        def degree_pair(lo, hi):
            # at most 9 significant digits, as format_config writes them; a
            # subnormal would convert to 0 radians, equal to its partner
            nine_digits = st.floats(lo, hi, allow_subnormal=False).map(lambda v: float(f"{v:.9g}"))
            return sorted(data.draw(st.lists(nine_digits, min_size=2, max_size=2, unique=True)))

        unit = st.floats(0.0, 1.0)
        w_translate = data.draw(unit)
        w_add = data.draw(st.floats(0.0, 1.0 - w_translate))
        values = {
            "mode_weight_translate": w_translate,
            "mode_weight_add": w_add,
            "mode_weight_remove": (1.0 - w_translate) - w_add,
        }
        min_deg, max_deg = degree_pair(1e-3, 360.0)
        values["sector_min_width_deg"], values["sector_max_width_deg"] = min_deg, max_deg
        # k * min_width < 360 degrees, which SectorParams requires
        values["k_sectors"] = data.draw(st.integers(1, max(1, min(8, math.ceil(360.0 / min_deg) - 1))))
        for prefix in ("source", "target"):
            vfov = degree_pair(-90.0, 90.0)
            values[f"{prefix}_vfov_min_deg"], values[f"{prefix}_vfov_max_deg"] = vfov
            values[f"{prefix}_channels"] = data.draw(st.integers(1, 256))
            values[f"{prefix}_points_per_channel"] = data.draw(st.integers(1, 4096))
        for key in ("p_tm", "p_am", "rho", "pseudo_score_threshold"):
            values[key] = data.draw(unit)
        for key in ("epochs_tm", "epochs_am"):
            values[key] = data.draw(st.integers(1, 8))
        values["lambda"] = data.draw(st.floats(0.0, 1e6))
        values["epsilon"] = data.draw(st.floats(1e-12, 10.0))
        values["seed"] = data.draw(st.integers(-(2**63), 2**63 - 1))
        assert set(values) == set(_CONFIG_KEYS)
        cfg = parse_config("".join(f"{k} = {v}\n" for k, v in values.items()))
        assert parse_config(format_config(cfg)) == cfg

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_configs_the_constructors_accept_round_trip(self, data):
        # p_tm=True and numpy floats were accepted, then written as text that
        # parse_config refused; bools are drawn now and then to keep it so
        def real(value, kinds=(float, np.float64, np.float32, int)):
            if data.draw(st.integers(0, 49)) == 0:
                return data.draw(st.booleans())
            return data.draw(st.sampled_from(kinds))(value)

        def angles(lo, hi, n):
            # radians of at most 9 significant digits of degrees, as written
            nine_digits = st.floats(lo, hi, allow_subnormal=False).map(lambda v: float(f"{v:.9g}"))
            degrees = sorted(data.draw(st.lists(nine_digits, min_size=n, max_size=n, unique=True)))
            return [real(math.radians(d), (float, np.float64)) for d in degrees]

        def spec():
            counts = data.draw(st.integers(1, 256)), data.draw(st.integers(1, 4096))
            return SensorSpec(*counts, *angles(-90.0, 90.0, 2))

        unit = st.floats(0.0, 1.0)
        w_translate = data.draw(unit)
        w_add = data.draw(st.floats(0.0, 1.0 - w_translate))
        weights = (w_translate, w_add, (1.0 - w_translate) - w_add)
        k = data.draw(st.integers(1, 8))
        min_width, max_width = angles(1e-3, 359.0 / k, 2)  # k * min_width < 2pi
        try:
            cfg = PipelineConfig(
                source_spec=spec(),
                target_spec=spec(),
                p_tm=real(data.draw(unit)),
                p_am=real(data.draw(unit)),
                lam=real(data.draw(st.floats(0.0, 1e6))),
                perturbation=PerturbationConfig(
                    real(data.draw(st.floats(1e-12, 10.0))),
                    real(data.draw(unit)),
                    tuple(real(w, (float, np.float64)) for w in weights),
                ),
                sectors=SectorParams(k, min_width, max_width),
                epochs_tm=data.draw(st.integers(1, 8)),
                epochs_am=data.draw(st.integers(1, 8)),
                pseudo_score_threshold=real(data.draw(unit)),
                seed=data.draw(st.integers(-(2**63), 2**64 - 1)),
            )
        except ValueError:
            return  # a config the constructors refuse
        assert parse_config(format_config(cfg)) == cfg

    def test_bad_syntax_rejected(self):
        with pytest.raises(ValueError, match="^line 1: expected 'key = value', got 'p_tm 0.4'$"):
            parse_config("p_tm 0.4\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="^line 1: bad value for 'epochs_tm': invalid literal"):
            parse_config("epochs_tm = many\n")
        with pytest.raises(ValueError, match="^line 1: bad value for 'p_tm': could not convert"):
            parse_config("p_tm = maybe\n")

    def test_degrees_converted_once(self):
        cfg = parse_config("source_vfov_min_deg = -17.6\n")
        assert cfg.source_spec.vfov_min == pytest.approx(math.radians(-17.6))

    def test_mode_weights_validated(self):
        with pytest.raises(ValueError, match="^line 1: mode_weight_translate = 0.9: .* sum to 1"):
            parse_config("mode_weight_translate = 0.9\n")

    def test_comments_allowed(self):
        cfg = parse_config("# a comment\np_tm = 0.2  # inline\n")
        assert cfg.p_tm == 0.2


def _write_cloud(path, version):
    write_cloud(Scene(np.full((3, 4), float(version))), path)


def _write_labels(path, version):
    write_labels([Box3D(float(version), 0, 0, 1, 1, 1, 0, 1)], path)


def _save_config(path, version):
    save_config(PipelineConfig(seed=version), path)


WRITERS = [_write_cloud, _write_labels, _save_config]


class TestReplaceOnWrite:
    """Every writer replaces an existing output with a new file; it never
    truncates and rewrites the old one."""

    @pytest.mark.parametrize("write", WRITERS)
    def test_hard_link_keeps_old_bytes(self, tmp_path, write):
        path, link = tmp_path / "out", tmp_path / "link"
        write(path, 1)
        old = path.read_bytes()
        os.link(path, link)
        write(path, 2)
        assert link.read_bytes() == old
        assert path.read_bytes() != old
        assert not path.samefile(link)

    @pytest.mark.parametrize("write", WRITERS)
    def test_symlink_target_replaced(self, tmp_path, write):
        target, link, fresh = tmp_path / "target", tmp_path / "link", tmp_path / "fresh"
        write(target, 1)
        link.symlink_to(target)
        write(link, 2)
        write(fresh, 2)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("write", WRITERS)
    def test_directory_path_raises(self, tmp_path, write):
        directory = tmp_path / "out"
        directory.mkdir()
        (directory / "kept").write_text("kept\n")
        with pytest.raises(OSError):
            write(directory, 1)
        assert (directory / "kept").read_text() == "kept\n"

    @pytest.mark.parametrize("write", WRITERS)
    def test_fifo_written_in_place(self, tmp_path, write):
        # a device or FIFO (say --out /dev/null) must never be deleted
        fifo, reference = tmp_path / "fifo", tmp_path / "reference"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write(fifo, 1)
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        write(reference, 1)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert received == reference.read_bytes()


class TestManifest:
    def test_round_trip(self, tmp_path):
        bundle = synthesize_dataset(
            3, n_source=2, n_labeled=1, n_unlabeled=2, ground_points=100
        )
        cfg = PipelineConfig(seed=3)
        save_manifest(bundle, cfg, tmp_path)
        back = load_bundle(tmp_path)
        assert load_config(tmp_path / "config.txt") == cfg
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
            load_bundle(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bundle(tmp_path / "nope")
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope" / "config.txt")
