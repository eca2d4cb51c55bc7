import json
import re
from pathlib import Path

import numpy as np
import pytest

from lidarmix.cli import cli_dispatch
from lidarmix.io import read_cloud


def run(*argv):
    return cli_dispatch(list(argv))


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest")
    code = run(
        "synth", "--out", str(root), "--seed", "11",
        "--sources", "4", "--labeled", "2", "--unlabeled", "3",
    )
    assert code == 0
    return root


class TestSynth:
    def test_layout(self, manifest):
        assert len(list((manifest / "source").glob("*.bin"))) == 4
        assert len(list((manifest / "source").glob("*.txt"))) == 4
        assert len(list((manifest / "target_labeled").glob("*.bin"))) == 2
        assert len(list((manifest / "target_labeled").glob("*.txt"))) == 2
        assert len(list((manifest / "target_unlabeled").glob("*.bin"))) == 3
        assert not list((manifest / "target_unlabeled").glob("*.txt"))
        assert (manifest / "config.txt").exists()

    def test_deterministic_directory_contents(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--out", str(out), "--seed", "7", "--sources", "3",
                       "--labeled", "1", "--unlabeled", "2") == 0
        assert tree_bytes(a) == tree_bytes(b)


class TestMatch:
    def test_identical_specs_collision_only(self, manifest, tmp_path):
        cloud = next((manifest / "source").glob("*.bin"))
        cfg = tmp_path / "cfg.txt"
        # make source and target specs identical
        cfg.write_text(
            "target_channels = 64\ntarget_points_per_channel = 2200\n"
            "target_vfov_min_deg = -17.6\ntarget_vfov_max_deg = 2.4\n"
        )
        out = tmp_path / "matched.bin"
        assert run("match", str(cloud), "--config", str(cfg), "--out", str(out)) == 0
        assert read_cloud(out).n_points <= read_cloud(cloud).n_points

    def test_random_stride_varies_with_seed(self, manifest, tmp_path):
        cloud = next((manifest / "source").glob("*.bin"))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("random_stride = true\n")
        outputs = set()
        for seed in ("1", "2", "3"):
            out = tmp_path / f"matched{seed}.bin"
            assert run("match", str(cloud), "--config", str(cfg), "--seed", seed, "--out", str(out)) == 0
            outputs.add(out.read_bytes())
        assert len(outputs) > 1

    def test_missing_input_is_io_error(self, tmp_path):
        assert run("match", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "o.bin")) == 2


class TestMixAdv:
    def test_mix_produces_outputs(self, manifest, tmp_path):
        src = next((manifest / "source").glob("*.bin"))
        tgt = next((manifest / "target_labeled").glob("*.bin"))
        prefix = tmp_path / "mixed"
        code = run(
            "mix", str(src), str(tgt),
            "--source-labels", str(src.with_suffix(".txt")),
            "--target-labels", str(tgt.with_suffix(".txt")),
            "--seed", "3", "--out", str(prefix),
        )
        assert code == 0
        assert (tmp_path / "mixed.bin").exists()
        assert (tmp_path / "mixed.txt").exists()

    def test_adv_produces_outputs(self, manifest, tmp_path):
        tgt = next((manifest / "target_labeled").glob("*.bin"))
        prefix = tmp_path / "adv"
        code = run(
            "adv", str(tgt), str(tgt.with_suffix(".txt")),
            "--seed", "3", "--out", str(prefix),
        )
        assert code == 0
        assert (tmp_path / "adv.bin").exists()


class TestPipeline:
    def test_summary_written_and_deterministic(self, manifest, tmp_path):
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        assert run("pipeline", str(manifest), "--out", str(out1)) == 0
        assert run("pipeline", str(manifest), "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        summary = json.loads(out1.read_text())
        assert set(summary) == {"targetmix", "advmix"}
        assert summary["targetmix"]["epochs"][0]["scenes_processed"] == 6

    def test_seed_override_changes_result(self, manifest, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run("pipeline", str(manifest), "--seed", "1", "--out", str(out1)) == 0
        assert run("pipeline", str(manifest), "--seed", "2", "--out", str(out2)) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_missing_manifest_is_io_error(self, tmp_path):
        assert run("pipeline", str(tmp_path / "missing")) == 2


class TestGradcheck:
    def test_prints_small_error(self, capsys):
        assert run("gradcheck", "--trials", "10") == 0
        out = capsys.readouterr().out
        match = re.search(r"=\s*([0-9.eE+-]+)", out)
        assert match, out
        assert float(match.group(1)) < 1e-5


class TestErrorMapping:
    def test_no_arguments_is_validation_error(self):
        assert run() == 1

    def test_unknown_command_is_validation_error(self):
        assert run("frobnicate") == 1

    def test_truncated_cloud_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x00" * 17)
        assert run("match", str(bad), "--out", str(tmp_path / "o.bin")) == 2

    def test_bad_config_is_validation_error(self, manifest, tmp_path):
        cloud = next((manifest / "source").glob("*.bin"))
        cfg = tmp_path / "bad.txt"
        cfg.write_text("p_tm = 2.0\n")
        assert run("match", str(cloud), "--config", str(cfg), "--out", str(tmp_path / "o.bin")) == 1

    def test_help_exits_zero(self):
        assert run("--help") == 0
