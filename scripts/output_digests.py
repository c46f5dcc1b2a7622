#!/usr/bin/env python3
"""Print sha256 digests of the program's outputs, one line per output and size.

    python3 scripts/output_digests.py [--sizes 64 128 256]

Run it on two checkouts and diff what it prints: equal lines mean results
equal bit for bit. Each line reads ``<section> n=<size> <what> <sha256>``,
one for each of these sections at every size:

``synthesis``
    ``synthesize_sample`` levels and encodings, in both observation modes;
``fields``
    ``synthesize_fields`` screen, screen-plane and receiver arrays;
``train``
    the checkpoint bytes and the loss curve after training, in every layer mode;
``predict``
    ``predict_image`` outputs of the trained hybrid network;
``evaluate``
    ``evaluate_level`` rows and summary for the network, zero and oracle predictors;
``config``
    the sha256 of the ``manifest.txt`` that ``vortexao gen-dataset`` writes
    with ``--desk`` and with ``--paper-scale``, 2 samples per level, seed 7.

Every input comes from fixed seeds and ids. The whole run at the default
sizes takes a few seconds on one CPU core.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from vortexao import (  # noqa: E402
    DatasetConfig,
    DiffractiveNetwork,
    GridSpec,
    Manifest,
    evaluate_level,
    network_predictor,
    oracle_predictor,
    save_checkpoint,
    synthesize_fields,
    synthesize_sample,
    train,
    training_pairs,
    zero_predictor,
)
from vortexao.cli import main as cli_main  # noqa: E402
from vortexao.dataset import OBSERVATIONS, desk_config  # noqa: E402
from vortexao.network import MODES, predict_image  # noqa: E402

COUNT, TRAIN = 6, 4  # per level: ids 0-3 of a level train, 4 and 5 test
STRONGEST = 3


def digest(*parts) -> str:
    """sha256 over arrays (dtype, shape and bytes) and the repr of anything else."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def config(n: int, observation: str) -> DatasetConfig:
    """The desk protocol on an ``n`` x ``n`` grid of the desk grid's side."""
    desk = desk_config(base_seed=29)
    grid = GridSpec.from_side(n, desk.grid.side, desk.grid.wavelength)
    return dataclasses.replace(desk, grid=grid, count_per_level=COUNT, train_per_level=TRAIN,
                               observation=observation)


def manifest_sha256(n: int, preset: str) -> str:
    """sha256 of the manifest ``gen-dataset`` writes for a preset on an ``n`` x ``n`` grid."""
    with tempfile.TemporaryDirectory() as tmp:
        args = ["gen-dataset", "--out", tmp, preset, "--grid", str(n), "--count", "2",
                "--train-count", "1", "--seed", "7"]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(args) != 0:
                raise SystemExit(f"gen-dataset {preset} failed at n={n}")
        with open(os.path.join(tmp, "manifest.txt"), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def size_lines(n: int) -> list[str]:
    lines = []

    def emit(section: str, what: str, *parts) -> None:
        lines.append(f"{section} n={n} {what} {digest(*parts)}")

    ids = range(0, COUNT * 4, 5)  # train and test ids of every level
    for observation in OBSERVATIONS:
        cfg = config(n, observation)
        samples = [synthesize_sample(cfg, i) for i in ids]
        emit("synthesis", observation,
             *[(s.id, s.level_index, s.seed, s.encoding) for s in samples],
             *[a for s in samples for a in (s.distorted_levels, s.gt_screen_levels)])
    cfg = config(n, OBSERVATIONS[0])
    for i in ids:
        screen, at_screen, receiver = synthesize_fields(cfg, i)
        emit("fields", f"id={i}", screen.phase, at_screen.values, receiver.values)

    base = STRONGEST * COUNT
    train_samples = [synthesize_sample(cfg, i) for i in range(base, base + TRAIN)]
    test_samples = [synthesize_sample(cfg, i) for i in range(base + TRAIN, base + COUNT)]
    nets = {}
    with tempfile.TemporaryDirectory() as tmp:
        for mode in MODES:
            net = DiffractiveNetwork.build(cfg.grid, n_layers=3, mode=mode, init="defocus")
            state, losses = train(net, training_pairs(train_samples), epochs=2, batch=3, lr=0.01)
            path = os.path.join(tmp, f"{mode}.ckpt")
            save_checkpoint(path, state)
            with open(path, "rb") as fh:
                emit("train", mode, fh.read(), losses)
            nets[mode] = net

    net = nets["hybrid"]
    emit("predict", "hybrid", *[predict_image(net, s.distorted_img) for s in test_samples])
    manifest = Manifest(cfg, [], {})
    predictors = {"network": network_predictor(net), "zero": zero_predictor,
                  "oracle": oracle_predictor}
    for name, predictor in predictors.items():
        rows, summary = evaluate_level(predictor, test_samples, manifest, epoch=2)
        emit("evaluate", name, *[dataclasses.astuple(r) for r in rows],
             dataclasses.astuple(summary))
    for name, preset in (("desk", "--desk"), ("paper", "--paper-scale")):
        lines.append(f"config n={n} {name} {manifest_sha256(n, preset)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[64, 128, 256],
                        help="grid sides to digest (default 64 128 256)")
    args = parser.parse_args(argv)
    for n in args.sizes:
        print("\n".join(size_lines(n)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
