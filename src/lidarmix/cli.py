"""Command-line surface.

Subcommands: match, mix, adv, pipeline, synth, gradcheck. Exit codes:
0 on success, 1 on validation errors, 2 on I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import io as lio
from .gradcheck import run_gradcheck
from .geometry import DomainTag
from .oracle import GridClusterOracle
from .pipeline import run_full, seeded_rng
from .sector_mix import sample_sectors, polar_mix
from .sensor import lidar_distribution_match
from .synth import synthesize_dataset
from .adversarial import adversarial_perturb_detailed


def _load_cfg(args, default_path: Path | None = None) -> "lio.PipelineConfig":
    """--config if given, else default_path (the manifest's config.txt for
    `pipeline`), else the defaults; then --seed, if given, replaces the seed."""
    path = args.config or default_path
    cfg = lio.load_config(path) if path else lio.PipelineConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _cmd_match(args) -> int:
    cfg = _load_cfg(args)
    scene = lio.read_cloud(args.cloud, DomainTag.SOURCE)
    out = lidar_distribution_match(scene, cfg.source_spec, cfg.target_spec)
    lio.write_cloud(out, args.out)
    print(f"matched {scene.n_points} -> {out.n_points} points into {args.out}")
    return 0


def _cmd_mix(args) -> int:
    cfg = _load_cfg(args)
    rng = seeded_rng(cfg.seed)
    source = lio.read_cloud(args.source_cloud, DomainTag.SOURCE)
    if args.source_labels:
        source.boxes = lio.read_labels(args.source_labels)
    target = lio.read_cloud(args.target_cloud, DomainTag.TARGET_LABELED)
    if args.target_labels:
        target.boxes = lio.read_labels(args.target_labels)
    matched = lidar_distribution_match(source, cfg.source_spec, cfg.target_spec)
    mask = sample_sectors(rng, cfg.sectors.k, cfg.sectors.min_width, cfg.sectors.max_width)
    mixed = polar_mix(matched, target, mask)
    lio.write_cloud(mixed, f"{args.out}.bin")
    lio.write_labels(mixed.boxes, f"{args.out}.txt")
    print(f"mixed scene: {mixed.n_points} points, {len(mixed.boxes)} boxes -> {args.out}.bin/.txt")
    return 0


def _cmd_adv(args) -> int:
    cfg = _load_cfg(args)
    rng = seeded_rng(cfg.seed)
    scene = lio.read_cloud(args.cloud, DomainTag.TARGET_UNLABELED)
    boxes = lio.read_labels(args.labels)
    provider = GridClusterOracle()
    out, _ = adversarial_perturb_detailed(scene, boxes, provider, cfg.perturbation, rng)
    lio.write_cloud(out, f"{args.out}.bin")
    lio.write_labels(out.boxes, f"{args.out}.txt")
    print(f"perturbed scene: {scene.n_points} -> {out.n_points} points -> {args.out}.bin/.txt")
    return 0


def _cmd_pipeline(args) -> int:
    bundle = lio.load_bundle(args.manifest)
    cfg = _load_cfg(args, Path(args.manifest) / "config.txt")
    report_tm, report_am = run_full(cfg, bundle)
    summary = json.dumps(
        {"targetmix": report_tm.to_dict(), "advmix": report_am.to_dict()},
        sort_keys=True,
        indent=2,
    )
    if args.out:
        lio._replace_file(args.out, (summary + "\n").encode("utf-8"))
        print(f"wrote summary to {args.out}")
    else:
        print(summary)
    return 0


def _cmd_synth(args) -> int:
    bundle = synthesize_dataset(
        args.seed,
        n_source=args.sources,
        n_labeled=args.labeled,
        n_unlabeled=args.unlabeled,
        max_objects=args.objects,
    )
    cfg = lio.PipelineConfig(seed=args.seed)
    lio.save_manifest(bundle, cfg, args.out)
    print(
        f"synthesized manifest at {args.out}: {args.sources} source, "
        f"{args.labeled} target-labeled, {args.unlabeled} target-unlabeled scenes"
    )
    return 0


def _cmd_gradcheck(args) -> int:
    error = run_gradcheck(seed=args.seed, trials=args.trials, step=args.step)
    print(f"gradcheck max relative error = {error:.6e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lidarmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="distribution-match a cloud between two sensor specs")
    p.add_argument("cloud")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("mix", help="polar-mix a source cloud with a target cloud")
    p.add_argument("source_cloud")
    p.add_argument("target_cloud")
    p.add_argument("--source-labels")
    p.add_argument("--target-labels")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output path prefix (.bin/.txt appended)")
    p.set_defaults(func=_cmd_mix)

    p = sub.add_parser("adv", help="adversarially perturb a pseudo-labeled cloud")
    p.add_argument("cloud")
    p.add_argument("labels")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output path prefix (.bin/.txt appended)")
    p.set_defaults(func=_cmd_adv)

    p = sub.add_parser("pipeline", help="run both stages on a manifest directory")
    p.add_argument("manifest")
    p.add_argument("--config", help="read this config instead of the manifest's config.txt")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="summary JSON path (default: print to stdout)")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("synth", help="emit a synthetic manifest directory")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sources", type=int, default=20)
    p.add_argument("--labeled", type=int, default=4)
    p.add_argument("--unlabeled", type=int, default=16)
    p.add_argument("--objects", type=int, default=4, help="max objects per scene")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("gradcheck", help="finite-difference check of the surrogate gradient")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--step", type=float, default=1e-5)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except (lio.MalformedRecord, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
