"""Command-line entry points: gen-data, train, eval, attribute, gradcheck, ablation."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .ablation import run_grid, write_csv
from .attribution import (GRAD_INPUT, AttributionError, ChannelStrategy, attribution,
                          channel_slice_mean, export_map_pgm, reduce_channels)
from .autodiff import Tape
from .data import DataError, generate_dataset, load_manifest, load_sample, manifest_path
from .gradcheck import format_report, run_gradcheck
from .heatmap import HeatmapError
from .model import ModelError, forward, load_checkpoint
from .pgm import PgmError
from .train import TrainConfig, TrainError, evaluate, train


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tap", default=None)
    p.add_argument("--method", default=None, choices=["grad", "grad_input", "none"])
    p.add_argument("--strategy", default=None)
    p.add_argument("--lambda", dest="pal_weight", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--no-augment", action="store_true")


def _base_config(args) -> dict:
    """The `--config` JSON, if any, with `--train-manifest`/`--test-manifest` applied."""
    base: dict = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
    if args.train_manifest:
        base["train_manifest"] = args.train_manifest
    if args.test_manifest:
        base["test_manifest"] = args.test_manifest
    return base


def _config_from_args(args) -> TrainConfig:
    base = _base_config(args)
    for key in ("tap", "method", "strategy", "pal_weight", "sigma", "seed",
                "epochs", "lr", "batch_size"):
        value = getattr(args, key)
        if value is not None:
            base[key] = value
    if args.no_augment:
        base["augment"] = False
    return TrainConfig.from_dict(base)


def cmd_gen_data(args) -> int:
    for split, n, seed in (("train", args.n_train, args.seed),
                           ("test", args.n_test, args.seed)):
        manifest = generate_dataset(
            args.out, seed, n, n_classes=args.classes,
            height=args.size, width=args.size, n_landmarks=args.landmarks,
            split=split,
        )
        print(f"{split}: {len(manifest)} samples -> {manifest_path(args.out, split)}")
    return 0


def cmd_train(args) -> int:
    config = _config_from_args(args)
    record = train(config, args.out)
    print(f"config {record.config_id} seed {record.seed}")
    print(f"best val acc {record.best_val_acc:.4f} (epoch {record.best_epoch})")
    print(f"test acc {record.test_acc:.4f}  attribution-prior corr {record.test_corr:.4f}")
    print(f"correlation start -> end: {record.corr_start:.4f} -> {record.corr_end:.4f}")
    print(f"checkpoint: {record.checkpoint}  ({record.wall_s:.1f}s)")
    return 0


def cmd_eval(args) -> int:
    spec, params = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    if manifest.n_classes != spec.n_classes:
        raise DataError(f"checkpoint has {spec.n_classes} classes, "
                        f"dataset has {manifest.n_classes}")
    samples = [load_sample(manifest, i) for i in range(len(manifest))]
    strategy = ChannelStrategy.parse(args.strategy)
    acc, confusion, corr = evaluate(
        spec, params, samples, args.tap, args.method, strategy, args.sigma
    )
    print(f"accuracy {acc:.4f}  attribution-prior corr {corr:.4f}")
    print("confusion (rows = true class):")
    for row in confusion:
        print("  " + " ".join(f"{v:5d}" for v in row))
    return 0


def cmd_attribute(args) -> int:
    spec, params = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    try:
        indices = [int(s) for s in args.samples.split(",")]
    except ValueError:
        raise DataError(f"--samples takes comma-separated indices, got '{args.samples}'") from None
    samples = [load_sample(manifest, i) for i in indices]
    images = np.stack([s.image for s in samples])[:, None, :, :]
    strategy = ChannelStrategy.parse(args.strategy)

    # the attribution's backward reads nothing before the layer, so record from there
    trace = forward(spec, params, images, Tape(), grad_from=args.layer)
    amap = attribution(trace, args.layer, args.method, create_graph=False)
    if strategy.kind == "mean_of_half":
        c = amap.shape[1]
        keep = strategy.constrained(c)
        maps = ((f"{strategy.label()}-constrained", channel_slice_mean(amap, 0, keep)),
                (f"{strategy.label()}-free", channel_slice_mean(amap, keep, c)))
    else:
        maps = ((strategy.label(), reduce_channels(amap, strategy)),)
    written = []
    for label, reduced in maps:
        for row, idx in enumerate(indices):
            for ch in range(reduced.shape[1]):
                name = label if reduced.shape[1] == 1 else f"{label}-c{ch:02d}"
                written.append(export_map_pgm(
                    args.out, f"sample{idx:05d}", args.layer, args.method,
                    name, reduced.data[row, ch]))
    for path in written:
        print(path)
    return 0


def cmd_gradcheck(args) -> int:
    report = run_gradcheck(seed=args.seed, eps=args.eps, threshold=args.threshold)
    print(format_report(report))
    return 0 if report["passed"] else 1


def cmd_ablation(args) -> int:
    with open(args.grid) as fh:
        grid = json.load(fh)
    rows = run_grid(grid, args.seeds, _base_config(args), args.out)
    csv_path = f"{args.out}/ablation.csv"
    write_csv(csv_path, rows)
    for row in rows:
        if row["seed"] == "aggregate":
            print(f"{row['config_id']:32s} acc {row['test_acc']:.4f} "
                  f"± {row['test_acc_ci95']:.4f}  corr {row['attr_prior_corr']:.4f}")
    print(f"wrote {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palnet",
        description="Train a classifier whose attribution maps follow a landmark heatmap prior.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic keypoint dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-train", type=int, default=2000)
    p.add_argument("--n-test", type=int, default=500)
    p.add_argument("--classes", type=int, default=7)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--landmarks", type=int, default=5)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train with or without the attribution prior")
    p.add_argument("--config", default=None, help="JSON file with TrainConfig fields")
    p.add_argument("--train-manifest", default=None)
    p.add_argument("--test-manifest", default=None)
    p.add_argument("--out", required=True)
    _add_override_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy, confusion matrix, attribution correlation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--tap", default="relu4")
    p.add_argument("--method", default=GRAD_INPUT, choices=["grad", "grad_input"])
    p.add_argument("--strategy", default="mean_of_half")
    p.add_argument("--sigma", type=float, default=3.0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("attribute", help="export attribution maps as PGM images")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--samples", default="0", help="comma-separated sample indices")
    p.add_argument("--layer", default="relu4")
    p.add_argument("--method", default=GRAD_INPUT, choices=["grad", "grad_input"])
    p.add_argument("--strategy", default="mean_of_half")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full objective")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablation", help="run a grid of configs over several seeds")
    p.add_argument("--grid", required=True, help="JSON list of config overrides")
    p.add_argument("--config", default=None, help="JSON base config")
    p.add_argument("--train-manifest", default=None)
    p.add_argument("--test-manifest", default=None)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablation)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrainError, ModelError, DataError, AttributionError, HeatmapError, PgmError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
