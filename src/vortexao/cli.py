"""Command-line front end.

Subcommands:
  gen-dataset  generate a paired screen/intensity dataset plus manifest
  train        fit a diffractive network on one turbulence level
  eval         evaluate a checkpoint (or a stub) on the test split
  inspect      dump a vortex beam (and its OAM spectrum) for debugging

Exit codes: 0 success, 1 runtime error, 2 usage error. All outputs are
written atomically. Every command is deterministic given its seed inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

import numpy as np

from .dataset import (
    OBSERVATIONS,
    DatasetConfig,
    desk_config,
    generate_dataset,
    load_manifest,
    load_split,
    paper_config,
    read_config_file,
    synthesize_fields,
    training_pairs,
)
from .errors import ConfigError, VortexAOError
from .field import GridSpec, intensity, make_vortex_beam, normalize_image
from .images import atomic_write_bytes, export_pgm
from .metrics import mode_purity, mode_range, oam_decompose, write_report
from .network import (
    MODES,
    DiffractiveNetwork,
    TrainState,
    load_checkpoint,
    save_checkpoint,
    train as train_network,
)
from .pipeline import (
    compensate_prediction,
    evaluate_level,
    network_predictor,
    oracle_predictor,
    zero_predictor,
)
from .turbulence import STANDARD_CN2_LEVELS, screen_variance


def _dataset_config(args) -> DatasetConfig:
    """The preset, with the config file's values over it and the flags over those."""
    base = paper_config() if args.paper_scale else desk_config()
    g, count = base.grid, base.count_per_level
    values = dict(grid_n=g.n, grid_side=g.side, wavelength=g.wavelength, count_per_level=count)
    values.update(read_config_file(args.config) if args.config else {})
    flags = dict(grid_n=args.grid, count_per_level=args.count, train_per_level=args.train_count)
    flags.update(base_seed=args.seed, observation=args.observation)
    values.update((key, value) for key, value in flags.items() if value is not None)
    indices = range(len(base.levels)) if args.levels is None else args.levels
    return _replace(base, tuple(base.levels[i] for i in indices), **values)


def _replace(
    base, levels, grid_n, grid_side, wavelength, count_per_level, train_per_level=None, **fields
) -> DatasetConfig:
    """``base`` with ``levels`` and these keys; without a train count, 5/6 of each level trains."""
    if train_per_level is None:
        train_per_level = count_per_level * 5 // 6
    return dataclasses.replace(
        base,
        grid=GridSpec.from_side(grid_n, grid_side, wavelength),
        levels=levels,
        count_per_level=count_per_level,
        train_per_level=train_per_level,
        **fields,
    )


def cmd_gen_dataset(args) -> int:
    config = _dataset_config(args)
    os.makedirs(args.out, exist_ok=True)
    manifest = generate_dataset(config, args.out)
    print(f"wrote {manifest.total} samples to {args.out}")
    summary_n = min(50, config.train_per_level)
    for i, params in enumerate(config.levels):
        var = screen_variance(params, config.grid)
        mps = []
        for j in range(summary_n):
            sid = i * config.count_per_level + j
            _, _, receiver = synthesize_fields(config, sid)
            mps.append(mode_purity(oam_decompose(receiver, mode_range(config.ell)), config.ell))
        print(
            f"level {i}: cn2={params.cn2:.1e} screen variance {var:.4f} rad^2, "
            f"mean distorted MP({config.ell}) {np.mean(mps):.4f} ({summary_n} samples)"
        )
    return 0


def cmd_train(args) -> int:
    manifest = load_manifest(args.data)
    config = manifest.config
    samples = load_split(manifest, "train", args.data, level_index=args.level)
    if not samples:
        raise ConfigError(f"no training samples for level {args.level}")
    pairs = training_pairs(samples)
    net = DiffractiveNetwork.build(
        config.grid,
        n_layers=args.layers,
        mode=args.mode,
        spacing=args.spacing,
        init=args.init,
    )
    os.makedirs(args.out, exist_ok=True)
    loss_rows: list[str] = []

    def on_epoch(epoch: int, state: TrainState, loss: float) -> None:
        loss_rows.append(f"{epoch},{loss:.10e}")
        if epoch % args.checkpoint_every == 0 or epoch == args.epochs:
            save_checkpoint(os.path.join(args.out, f"epoch_{epoch:03d}.ckpt"), state)

    state, losses = train_network(
        net,
        pairs,
        epochs=args.epochs,
        batch=args.batch,
        lr=args.lr,
        shuffle_seed=args.seed,
        on_epoch=on_epoch,
    )
    csv = "epoch,loss\n" + "\n".join(loss_rows) + "\n"
    atomic_write_bytes(os.path.join(args.out, "loss.csv"), csv.encode("ascii"))
    print(f"trained {args.epochs} epochs on {len(pairs)} pairs; final loss {losses[-1]:.6f}")
    return 0


def cmd_eval(args) -> int:
    manifest = load_manifest(args.data)
    samples = load_split(manifest, "test", args.data, level_index=args.level)
    if not samples:
        raise ConfigError(f"no test samples for level {args.level}")
    epoch = 0
    if args.stub == "oracle":
        predictor = oracle_predictor
    elif args.stub == "zero":
        predictor = zero_predictor
    else:
        if not args.checkpoint:
            raise ConfigError("eval needs --checkpoint or --stub")
        state = load_checkpoint(args.checkpoint)
        if state.network.grid != manifest.config.grid:
            raise ConfigError("checkpoint grid does not match the dataset grid")
        predictor = network_predictor(state.network)
        epoch = _epoch_from_name(args.checkpoint)
    rows, summary = evaluate_level(predictor, samples, manifest, epoch=epoch)
    write_report(rows, args.report)
    print(
        f"level {summary.level}: n={summary.count} "
        f"MP distorted {summary.mean_mp_distorted:.4f} "
        f"compensated {summary.mean_mp_compensated:.4f} "
        f"PSNR {summary.mean_psnr:.3f} dB improved {summary.improved_fraction:.0%}"
    )
    print(
        f"perfect-knowledge MP bound: screen plane {summary.mean_mp_bound_screen:.6f}, "
        f"receiver plane {summary.mean_mp_bound_receiver:.6f}"
    )
    if args.dump_images:
        _dump_panels(args.dump_images, predictor, samples, manifest)
    return 0


def _epoch_from_name(path) -> int:
    """The epoch of a checkpoint named ``epoch_NNN`` as ``train`` writes it, else 0."""
    found = re.search(r"epoch_(\d+)", os.path.basename(os.fspath(path)))
    return int(found.group(1)) if found else 0


def _dump_panels(out_dir, predictor, samples, manifest) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for sample in samples:
        _, _, receiver = synthesize_fields(manifest.config, sample.id)
        pred_img = predictor(sample)
        comp = compensate_prediction(receiver, pred_img, sample.encoding)
        export_pgm(sample.gt_screen_img, os.path.join(out_dir, f"{sample.id}_gt.pgm"))
        export_pgm(np.clip(pred_img, 0, 1), os.path.join(out_dir, f"{sample.id}_pred.pgm"))
        export_pgm(sample.distorted_img, os.path.join(out_dir, f"{sample.id}_dist.pgm"))
        export_pgm(normalize_image(intensity(comp)), os.path.join(out_dir, f"{sample.id}_comp.pgm"))


def cmd_inspect(args) -> int:
    desk = desk_config().grid
    grid = GridSpec.from_side(args.grid, desk.side, desk.wavelength)
    beam = make_vortex_beam(grid, args.ell, args.waist)
    export_pgm(normalize_image(intensity(beam)), args.out)
    print(f"wrote beam intensity (ell={args.ell}) to {args.out}")
    if args.spectrum_csv:
        spec = oam_decompose(beam, mode_range(args.ell))
        lines = ["ell,weight"] + [f"{ell},{w:.9e}" for ell, w in zip(spec.ells, spec.weights)]
        atomic_write_bytes(args.spectrum_csv, ("\n".join(lines) + "\n").encode("ascii"))
        print(f"wrote OAM spectrum to {args.spectrum_csv}")
    return 0


def _positive_int(value: str) -> int:
    n = int(value)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return n


def _levels_list(value: str) -> list[int]:
    indices = [int(tok) for tok in value.split(",") if tok.strip() != ""]
    for i in indices:
        if not 0 <= i < len(STANDARD_CN2_LEVELS):
            raise argparse.ArgumentTypeError(
                f"level index {i} out of range 0..{len(STANDARD_CN2_LEVELS) - 1}"
            )
    return indices


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexao",
        description="Vortex-beam adaptive optics with a trainable diffractive network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-dataset", help="generate dataset plus manifest")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--config", help="key=value config file; flags override it")
    g.add_argument(
        "--seed", type=int, help="base seed (default: the config file's base_seed, else 7)"
    )
    g.add_argument("--levels", type=_levels_list, help="comma list of level indices 0..3")
    g.add_argument("--count", type=_positive_int, help="samples per level")
    g.add_argument("--train-count", type=_positive_int, help="training samples per level")
    g.add_argument("--grid", type=_positive_int, help="grid samples per side")
    g.add_argument("--observation", choices=OBSERVATIONS, help="recorded intensity plane")
    scale = g.add_mutually_exclusive_group()
    scale.add_argument("--desk", action="store_true", help="desk-scale defaults (64, 600/level)")
    scale.add_argument(
        "--paper-scale", action="store_true", help="full-scale defaults (256, 12000/level)"
    )
    g.set_defaults(func=cmd_gen_dataset)

    t = sub.add_parser("train", help="train a network on one level")
    t.add_argument("--data", required=True, help="dataset directory")
    t.add_argument("--level", type=int, required=True, help="turbulence level index")
    t.add_argument("--epochs", type=_positive_int, default=50)
    t.add_argument("--lr", type=float, default=0.01)
    t.add_argument("--batch", type=_positive_int, default=32)
    t.add_argument("--mode", choices=MODES, default="hybrid")
    t.add_argument("--layers", type=_positive_int, default=5)
    t.add_argument("--spacing", type=float, default=None, help="layer separation in meters")
    t.add_argument(
        "--init",
        choices=("identity", "defocus", "random"),
        default="defocus",
        help="layer initialization (defocus trains fastest)",
    )
    t.add_argument("--checkpoint-every", type=_positive_int, default=10)
    t.add_argument("--seed", type=int, default=0, help="shuffle seed")
    t.add_argument("--out", required=True, help="checkpoint/loss output directory")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint or stub on the test split")
    e.add_argument("--data", required=True, help="dataset directory")
    e.add_argument("--level", type=int, required=True, help="turbulence level index")
    e.add_argument("--checkpoint", help="checkpoint path")
    e.add_argument("--stub", choices=("oracle", "zero"), help="evaluate a stub predictor")
    e.add_argument("--report", required=True, help="CSV report path")
    e.add_argument("--dump-images", help="directory for per-sample PGM panels")
    e.set_defaults(func=cmd_eval)

    i = sub.add_parser("inspect", help="dump a vortex beam's intensity")
    i.add_argument("--beam", action="store_true", required=True)
    i.add_argument("--out", required=True, help="output PGM path")
    i.add_argument("--grid", type=_positive_int, default=desk_config().grid.n)
    i.add_argument("--ell", type=int, default=-3)
    i.add_argument("--waist", type=float, default=3.5e-3)
    i.add_argument("--spectrum-csv", help="also write the beam OAM spectrum CSV")
    i.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VortexAOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
