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
    ``evaluate_level`` rows and summary for the network, zero and oracle predictors.

Every input comes from fixed seeds and ids. The whole run at the default
sizes takes a few seconds on one CPU core.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
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
    standard_levels,
    synthesize_fields,
    synthesize_sample,
    train,
    training_pairs,
    zero_predictor,
)
from vortexao.dataset import DESK_EPSILON, DESK_ETA, DESK_WAIST, OBSERVATIONS  # noqa: E402
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
    return DatasetConfig(
        grid=GridSpec(n, 0.01 / n, 633e-9),
        levels=tuple(standard_levels(eta=DESK_ETA, epsilon=DESK_EPSILON)),
        count_per_level=COUNT,
        train_per_level=TRAIN,
        waist=DESK_WAIST,
        base_seed=29,
        observation=observation,
    )


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
