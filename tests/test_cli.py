import json
import os
import re
import shutil
import subprocess
import sys
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


    def test_refuses_to_mix_into_an_existing_manifest(self, tmp_path):
        out = tmp_path / "m"
        assert run("synth", "--out", str(out), "--sources", "6", "--labeled", "3",
                   "--unlabeled", "4") == 0
        before = tree_bytes(out)
        # a second, smaller manifest would load with the first one's leftovers
        assert run("synth", "--out", str(out), "--sources", "2", "--labeled", "1",
                   "--unlabeled", "1", "--seed", "5") == 2
        assert tree_bytes(out) == before

    def test_writes_into_a_directory_without_clouds(self, tmp_path):
        (tmp_path / "target_unlabeled").mkdir()
        (tmp_path / "notes.txt").write_text("kept\n")
        assert run("synth", "--out", str(tmp_path), "--sources", "2", "--labeled", "1",
                   "--unlabeled", "1") == 0
        assert (tmp_path / "notes.txt").read_text() == "kept\n"
        assert len(list((tmp_path / "target_unlabeled").glob("*.bin"))) == 1

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--sources", "-1", "n_source"), ("--labeled", "-1", "n_labeled"),
         ("--unlabeled", "-1", "n_unlabeled"), ("--objects", "0", "max_objects")],
    )
    def test_bad_count_is_validation_error(self, tmp_path, capsys, flag, value, name):
        out = tmp_path / "m"
        assert run("synth", "--out", str(out), flag, value) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()


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

    def test_has_no_seed(self, manifest, tmp_path, capsys):
        # matching draws nothing, so a seed could only be ignored
        cloud = next((manifest / "source").glob("*.bin"))
        out = tmp_path / "matched.bin"
        assert run("match", str(cloud), "--seed", "1", "--out", str(out)) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

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

    def test_out_replaced_not_rewritten(self, manifest, tmp_path):
        out, link = tmp_path / "s.json", tmp_path / "link.json"
        assert run("pipeline", str(manifest), "--seed", "1", "--out", str(out)) == 0
        old = out.read_bytes()
        os.link(out, link)
        assert run("pipeline", str(manifest), "--seed", "2", "--out", str(out)) == 0
        assert link.read_bytes() == old
        assert out.read_bytes() != old

    def test_out_through_symlink(self, manifest, tmp_path):
        target, link, direct = tmp_path / "t.json", tmp_path / "l.json", tmp_path / "d.json"
        target.write_text("old\n")
        link.symlink_to(target)
        assert run("pipeline", str(manifest), "--out", str(link)) == 0
        assert run("pipeline", str(manifest), "--out", str(direct)) == 0
        assert link.is_symlink()
        assert target.read_bytes() == direct.read_bytes()

    @pytest.mark.parametrize("manifest_config", [None, "p_tm = 7\n"])
    def test_config_flag_replaces_config_txt(self, manifest, tmp_path, manifest_config):
        # --config is read instead of config.txt, which may be missing or invalid
        copy, cfg = tmp_path / "m", tmp_path / "cfg.txt"
        shutil.copytree(manifest, copy)
        shutil.move(copy / "config.txt", cfg)
        if manifest_config is not None:
            (copy / "config.txt").write_text(manifest_config)
        out, expected = tmp_path / "s.json", tmp_path / "expected.json"
        assert run("pipeline", str(copy), "--config", str(cfg), "--out", str(out)) == 0
        assert run("pipeline", str(manifest), "--out", str(expected)) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_non_finite_config_is_validation_error(self, manifest, tmp_path):
        cfg, out = tmp_path / "cfg.txt", tmp_path / "s.json"
        cfg.write_text("lambda = nan\n")
        assert run("pipeline", str(manifest), "--config", str(cfg), "--out", str(out)) == 1
        assert not out.exists()

    def test_out_directory_is_io_error(self, manifest, tmp_path):
        out = tmp_path / "summary"
        out.mkdir()
        assert run("pipeline", str(manifest), "--out", str(out)) == 2
        assert out.is_dir()


class TestGradcheck:
    def test_prints_small_error(self, capsys):
        assert run("gradcheck", "--trials", "10") == 0
        out = capsys.readouterr().out
        match = re.search(r"=\s*([0-9.eE+-]+)", out)
        assert match, out
        assert float(match.group(1)) < 1e-5

    def test_negative_seed_is_its_unsigned_twin(self, capsys):
        outputs = []
        for seed in ("-1", "18446744073709551615"):
            assert run("gradcheck", "--seed", seed, "--trials", "5") == 0
            outputs.append(capsys.readouterr().out)
        assert "max relative error" in outputs[0]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "args",
        [["--step", "nan"], ["--step", "0"], ["--step=-1e-5"], ["--step", "inf"],
         ["--trials", "0"], ["--trials", "-3"]],
    )
    def test_degenerate_input_is_validation_error(self, capsys, args):
        # a NaN step reported an error of 0, trials <= 0 checked nothing, and
        # a zero step died with a ZeroDivisionError traceback
        assert run("gradcheck", *args) == 1
        captured = capsys.readouterr()
        name = args[0][2:].split("=")[0]
        assert captured.err.startswith(f"error: {name} must be")
        assert captured.out == ""


class TestSeedRange:
    @pytest.mark.parametrize("seed", ["18446744073709551616", "-9223372036854775809"])
    @pytest.mark.parametrize(
        "command", ["match", "mix", "adv", "pipeline", "synth", "gradcheck"]
    )
    def test_seed_outside_64_bits_is_validation_error(self, manifest, tmp_path, command, seed):
        # such a seed would alias another one once masked to 64 bits
        cloud = str(next((manifest / "target_unlabeled").glob("*.bin")))
        labels = str(next((manifest / "target_labeled").glob("*.txt")))
        out = tmp_path / "out"
        argv = {
            "match": ["match", cloud, "--out", str(out)],
            "mix": ["mix", cloud, cloud, "--out", str(out)],
            "adv": ["adv", cloud, labels, "--out", str(out)],
            "pipeline": ["pipeline", str(manifest), "--out", str(out)],
            "synth": ["synth", "--out", str(out), "--sources", "1", "--labeled", "1"],
            "gradcheck": ["gradcheck", "--trials", "1"],
        }[command]
        assert run(*argv, "--seed", seed) == 1
        assert list(tmp_path.iterdir()) == []


class TestErrorMapping:
    def test_no_arguments_is_validation_error(self):
        assert run() == 1

    def test_unknown_command_is_validation_error(self):
        assert run("frobnicate") == 1

    @pytest.mark.parametrize("class_id", ["inf", "1e400", "2.7"])
    def test_bad_class_id_is_io_error(self, manifest, tmp_path, class_id):
        cloud = next((manifest / "target_unlabeled").glob("*.bin"))
        labels = tmp_path / "labels.txt"
        labels.write_text(f"0 0 0 1 1 1 0 {class_id}\n")
        assert run("adv", str(cloud), str(labels), "--out", str(tmp_path / "o")) == 2
        assert not (tmp_path / "o.bin").exists()

    def test_labels_that_are_not_utf8_are_io_error(self, manifest, tmp_path, capsys):
        # used to exit 1 with "error: 'utf-8' codec can't decode byte 0xff"
        cloud = next((manifest / "target_unlabeled").glob("*.bin"))
        labels = tmp_path / "bad.txt"
        labels.write_bytes(b"0 0 0 1 1 1 0 0\n\xff\n")
        assert run("adv", str(cloud), str(labels), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == "I/O error: line 2: byte 0xff is not UTF-8\n"
        assert not (tmp_path / "o.bin").exists()

    def test_truncated_cloud_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x00" * 17)
        assert run("match", str(bad), "--out", str(tmp_path / "o.bin")) == 2

    def test_bad_config_is_validation_error(self, manifest, tmp_path):
        cloud = next((manifest / "source").glob("*.bin"))
        cfg = tmp_path / "bad.txt"
        cfg.write_text("p_tm = 2.0\n")
        assert run("match", str(cloud), "--config", str(cfg), "--out", str(tmp_path / "o.bin")) == 1

    def test_count_beyond_float_range_is_validation_error(self, manifest, tmp_path, capsys):
        # a 401-digit source_channels used to end matching in an OverflowError traceback
        cloud = next((manifest / "source").glob("*.bin"))
        cfg = tmp_path / "big.txt"
        cfg.write_text("source_channels = " + "9" * 401 + "\n")
        assert run("match", str(cloud), "--config", str(cfg), "--out", str(tmp_path / "o.bin")) == 1
        assert "source_channels must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "o.bin").exists()

    def test_help_exits_zero(self):
        assert run("--help") == 0


def test_module_entry_point_exit_codes(manifest, tmp_path):
    # `python -m lidarmix` runs __main__ and main(), which turn the
    # dispatcher's code into the process exit status
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}

    def status(*argv):
        cmd = [sys.executable, "-m", "lidarmix", *argv]
        return subprocess.run(cmd, env=env, capture_output=True, text=True).returncode

    assert status("gradcheck", "--trials", "1") == 0
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00" * 17)
    assert status("match", str(bad), "--out", str(tmp_path / "o.bin")) == 2
    cfg = tmp_path / "bad.txt"
    cfg.write_text("p_tm = 2\n")
    cloud = next((manifest / "source").glob("*.bin"))
    assert status("match", str(cloud), "--config", str(cfg), "--out", str(tmp_path / "o.bin")) == 1
