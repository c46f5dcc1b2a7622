#!/usr/bin/env python3
"""Benchmark of the vortexao loop: generate, load, train, evaluate, predict.

    python3 loopbench/run.py --workload desk-train --seed 1 --seconds 15 --trace 0

Run from the root of a source tree; the package is imported from ``src/``.
One run sets up several times, then repeats whole rounds of the loop until
``--seconds`` have passed. Every round does the same work on inputs made
from ``--seed`` and checks the program's outputs outside the timed parts.
A fixed reference kernel (``refkernel.py``) is timed beside the work, and
each rate and latency is reported at the reference machine speed. With
``--trace 1`` untraced and traced rounds alternate and the per-layer metrics
are printed instead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from refkernel import FRAME_CALLS, REF_IO_US, IoProbe, RefKernel, Sampler
from spans import SpanTree, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(HERE, "work")
TRACE_DIR = os.path.join(HERE, "traces")

SETUP_REPS = 5
# the acceptance training protocol
LR = 0.01
BATCH = 32
INIT = ("defocus", 3.0)
DESK_SPACING = 2.4


@dataclass(frozen=True)
class Workload:
    """The make-up of one workload's inputs; the seed picks the data."""

    paper: bool  # paper_config (256 x 256) or desk_config (64 x 64)
    levels: tuple[int, ...]  # turbulence levels kept, by standard index
    count: int  # samples per level written to disk
    train_count: int  # of which in the train split
    train_level: int  # index into ``levels`` of the level trained on
    train_pairs: int
    epochs: int
    eval_count: int  # test samples evaluated, per level
    frames: int  # held-out frames predicted one after another, over all levels
    sweep: bool  # checkpoint every epoch, epoch_sweep, zero-predictor every level
    load_passes: int = 1  # times the whole dataset is loaded per round
    loss_falls: bool = False  # check that the last epoch's loss is below the first's

    @property
    def n(self) -> int:
        return 256 if self.paper else 64


WORKLOADS = {
    "desk-train": Workload(
        paper=False, levels=(3,), count=520, train_count=320, train_level=0,
        train_pairs=320, epochs=3, eval_count=200, frames=200, sweep=False,
        load_passes=12, loss_falls=True,
    ),
    "paper-predict": Workload(
        paper=True, levels=(2,), count=96, train_count=64, train_level=0,
        train_pairs=64, epochs=1, eval_count=32, frames=200, sweep=False,
        load_passes=12,
    ),
    "desk-sweep": Workload(
        paper=False, levels=(0, 1, 2, 3), count=450, train_count=350, train_level=2,
        train_pairs=128, epochs=3, eval_count=100, frames=200, sweep=True,
        load_passes=4,
    ),
}

END_TO_END = {
    "setup_s": "s",
    "gen_samples_per_s": "samples/s",
    "load_samples_per_s": "samples/s",
    "train_samples_per_s": "samples/s",
    "eval_samples_per_s": "evals/s",
    "predict_ms_p50": "ms",
    "train_loss": "mse",
    "eval_psnr_db": "dB",
    "eval_mp_compensated": "ratio",
    "peak_rss_mb": "MB",
}
RATES = {  # metric -> the stage whose duration divides its work count
    "gen_samples_per_s": "gen",
    "load_samples_per_s": "load",
    "train_samples_per_s": "train",
    "eval_samples_per_s": "eval",
}
SELF_S = (
    "network.forward",
    "network.backward",
    "network.adam_step",
    "network.train",
    "network.transmission",
    "network.encode_input",
    "propagation.propagate",
    "propagation.propagate_adjoint",
    "turbulence.make_screen",
    "dataset.synthesize_fields",
    "dataset.observed_intensity",
    "images.export_pgm",
    "images.atomic_write_bytes",
    "dataset.generate_dataset",
    "images.import_pgm",
    "dataset.load_split",
    "metrics.oam_decompose",
    "images.bilinear_sample",
    "pipeline.evaluate_level",
    "pipeline.epoch_sweep",
    "network.save_checkpoint",
    "network.load_checkpoint",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Ops:
    """Operations attempted and failed; a failed output check is incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.correct = False
            for p in problems[:10]:
                print(f"CHECK FAILED {what}: {p}", file=sys.stderr)

    def abandon(self, count: int) -> None:
        """Operations of a round cut short by an exception: attempted, failed."""
        self.attempted += count
        self.failed += count


class Stages:
    """Times the stages of one round on the sampler's clock.

    Each stage's ``r`` is the mean kernel time of the blocks taken just
    before it, during it and just after it, over the reference time. A
    stage that writes or reads sample files also runs the file probe, and
    its estimated file time is moved from this run's probe speed to the
    reference probe speed before the rest is divided by ``r``.
    """

    def __init__(self, sampler: Sampler, tracer: Tracer | None):
        self.sampler = sampler
        self.tracer = tracer
        self.seconds: dict[str, float] = {}
        self.normalized: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str, writes: int = 0, reads: int = 0):
        sampler = self.sampler
        first, first_io = len(sampler.kernel.samples_ms), len(sampler.io_us)
        sampler.io_on = bool(writes or reads)
        try:
            sampler.sample()
            with self.traced(name):
                t0 = sampler.clock()
                with sampler.running():
                    yield
                dt = sampler.clock() - t0
            sampler.sample()
        finally:
            sampler.io_on = False
        r = sampler.kernel.ratio(statistics.mean(sampler.kernel.samples_ms[first:]))
        io_now = io_ref = 0.0
        if writes or reads:
            w_ref, r_ref = REF_IO_US[sampler.io.n]
            w_now = statistics.mean(w for w, _ in sampler.io_us[first_io:])
            r_now = statistics.mean(r for _, r in sampler.io_us[first_io:])
            io_now = (writes * w_now + reads * r_now) * 1e-6
            io_ref = (writes * w_ref + reads * r_ref) * 1e-6
        self.seconds[name] = dt
        self.normalized[name] = max(dt - io_now, 0.0) / r + io_ref

    @contextmanager
    def traced(self, name: str):
        """Install the tracer, if any, with a span around the stage."""
        if self.tracer is None:
            yield
            return
        self.tracer.install()
        try:
            with self.tracer.span(f"stage.{name}"):
                yield
        finally:
            self.tracer.remove()


def digest(items) -> list[bytes]:
    """sha256 of each array, or of both images of each sample."""
    out = []
    for item in items:
        h = hashlib.sha256()
        for a in (item.distorted_img, item.gt_screen_img) if hasattr(item, "id") else (item,):
            h.update(np.ascontiguousarray(a).tobytes())
        out.append(h.digest())
    return out


class Reference:
    """Output digests of the first round; later rounds must reproduce them bit for bit."""

    def __init__(self):
        self.first = True
        self.digests: dict[str, list[bytes]] = {}

    def same(self, key: str, digests: list[bytes]) -> list[str]:
        if self.digests.setdefault(key, digests) != digests:
            return [f"{key}: differs from the first round"]
        return []


def make_config(vx, wl: Workload, seed: int):
    base = (vx.paper_config if wl.paper else vx.desk_config)(base_seed=seed)
    return replace(
        base,
        levels=tuple(base.levels[i] for i in wl.levels),
        count_per_level=wl.count,
        train_per_level=wl.train_count,
    )


def build_network(vx, wl: Workload, config):
    return vx.DiffractiveNetwork.build(
        config.grid,
        n_layers=5,
        mode="hybrid",
        spacing=None if wl.paper else DESK_SPACING,
        init=INIT[0],
        init_scale=INIT[1],
    )


def set_up(vx, wl: Workload, seed: int):
    """Config, network build and warm-up of the FFT and synthesis paths."""
    config = make_config(vx, wl, seed)
    net = build_network(vx, wl, config)
    sample = vx.synthesize_sample(config, 0)
    out, tape = vx.forward(net, vx.encode_input(sample.distorted_img, config.grid))
    vx.backward(net, tape, out, sample.gt_screen_img)
    return config


def stream_frames(vx, wl: Workload, config) -> list:
    """Held-out frames for the prediction stream, the first test ids of each level.

    Where the stored test split is shorter than the stream, the split is
    extended past it (one level only), so the frames start with the stored
    test samples and are never training samples.
    """
    per_level = wl.frames // len(wl.levels)
    if config.count_per_level - config.train_per_level < per_level:
        if len(wl.levels) != 1:
            raise ValueError("only a one-level dataset can extend its test split")
        config = replace(config, count_per_level=config.train_per_level + per_level)
    frames = []
    for level in range(len(wl.levels)):
        ids = vx.dataset.sample_ids(config, "test", level)[:per_level]
        frames += [vx.synthesize_sample(config, i) for i in ids]
    return [(s.id, s.distorted_img, s.encoding) for s in frames]


class Loop:
    """The rounds of one run: the workload's loop and its output checks."""

    def __init__(self, vx, checks, wl: Workload, seed: int, config, sampler: Sampler):
        self.vx = vx
        self.checks = checks
        self.wl = wl
        self.seed = seed
        self.config = config
        self.sampler = sampler
        self.frames = stream_frames(vx, wl, config)
        self.ops = Ops()
        self.reference = Reference()

    def planned_ops(self) -> int:
        evals = 1 + len(self.wl.levels) if self.wl.sweep else 1
        return 1 + 2 * self.wl.load_passes + 1 + evals + len(self.frames)

    def round(self, tracer: Tracer | None, round_dir: str) -> dict | None:
        """One whole round. Returns its measurements, or None if it raised."""
        st = Stages(self.sampler, tracer)
        attempted_before = self.ops.attempted
        try:
            manifest, loaded = self._data(st, os.path.join(round_dir, "data"))
            net, losses, ckpts = self._train(st, loaded, round_dir)
            n_evals, eval_psnr, eval_mp = self._evaluate(st, manifest, loaded, net, ckpts)
            latencies, normalized = self._predict(st, net)
        except Exception:
            traceback.print_exc()
            self.ops.abandon(self.planned_ops() - (self.ops.attempted - attempted_before))
            return None
        finally:
            shutil.rmtree(round_dir, ignore_errors=True)
        self.reference.first = False

        wl = self.wl
        work = {
            "gen": manifest.total,
            "load": wl.load_passes * sum(len(s) for s in loaded.values()),
            "train": wl.train_pairs * wl.epochs,
            "eval": n_evals,
        }
        m = {"counts": work}
        for metric, stage in RATES.items():
            m[f"wall.{metric}"] = work[stage] / st.seconds[stage]
            m[metric] = work[stage] / st.normalized[stage]
        m["wall.predict_ms_p50"] = statistics.median(latencies)
        m["predict_ms_p50"] = statistics.median(normalized)
        m["train_loss"] = float(losses[-1])
        m["eval_psnr_db"] = float(eval_psnr)
        m["eval_mp_compensated"] = float(eval_mp)
        m["timed_s"] = sum(st.normalized.values()) + sum(normalized) / 1e3
        return m

    def _data(self, st: Stages, data: str):
        vx, checks, config, wl = self.vx, self.checks, self.config, self.wl
        files = 2 * len(config.levels) * config.count_per_level
        # generate_dataset writes every sample file, then reads it back to hash it
        with st.stage("gen", writes=files, reads=files):
            manifest = vx.generate_dataset(config, data)
        self.ops.record("generate", checks.dataset_files(manifest, data))

        digests = []
        # load_split reads every file twice: to hash it, then to parse it
        with st.stage("load", reads=2 * files * wl.load_passes):
            for _ in range(wl.load_passes):
                loaded = None  # one pass in memory at a time
                loaded = {split: vx.load_split(manifest, split, data) for split in vx.dataset.SPLITS}
                with self.sampler.excluded():
                    digests.append({split: digest(ss) for split, ss in loaded.items()})
        for split, samples in loaded.items():
            problems = checks.loaded_samples(config, samples) if self.reference.first else []
            if split == "test":
                problems += checks.screen_variance(manifest, loaded["train"] + samples)
            for d in digests:
                self.ops.record(f"load {split}", problems + self.reference.same(split, d[split]))
        return manifest, loaded

    def _train(self, st: Stages, loaded, round_dir: str):
        vx, wl = self.vx, self.wl
        train = [s for s in loaded["train"] if s.level_index == wl.train_level]
        pairs = vx.training_pairs(train[: wl.train_pairs])
        net = build_network(vx, wl, self.config)
        ckpts = {}

        def save(epoch, state, loss):
            ckpts[epoch] = os.path.join(round_dir, f"epoch_{epoch:03d}.ckpt")
            vx.save_checkpoint(ckpts[epoch], state)

        with st.stage("train"):
            _, losses = vx.train(
                net, pairs, wl.epochs, batch=BATCH, lr=LR, shuffle_seed=self.seed,
                on_epoch=save if wl.sweep else None,
            )
        problems = self.checks.gradient(net, pairs[0], self.seed)
        if not all(np.isfinite(losses)):
            problems.append(f"non-finite epoch loss in {losses}")
        if wl.loss_falls and not losses[-1] < losses[0]:
            problems.append(f"last epoch loss {losses[-1]} not below first {losses[0]}")
        problems += self.reference.same("train.losses", digest([np.array(losses)]))
        self.ops.record("train", problems)
        return net, losses, ckpts

    def _evaluate(self, st: Stages, manifest, loaded, net, ckpts):
        vx, checks, config, wl = self.vx, self.checks, self.config, self.wl
        test: dict[int, list] = {}
        for s in loaded["test"]:
            test.setdefault(s.level_index, []).append(s)
        test = {level: ss[: wl.eval_count] for level, ss in test.items()}
        level = wl.train_level
        if not wl.sweep:
            predictions = {}
            predict = vx.network_predictor(net)

            def recording(sample):
                predictions[sample.id] = (predict(sample), sample.gt_screen_img)
                return predictions[sample.id][0]

            with st.stage("eval"):
                rows, summary = vx.evaluate_level(recording, test[level], manifest, wl.epochs)
            problems = checks.evaluation(config, rows, summary, predictions)
            figures = np.array([summary.mean_psnr, summary.mean_mp_compensated])
            problems += self.reference.same("eval.summary", digest([figures]))
            self.ops.record("evaluate", problems)
            return len(rows), summary.mean_psnr, summary.mean_mp_compensated

        with st.stage("eval"):
            table = vx.epoch_sweep(ckpts, test[level], manifest)
            zero = {lvl: vx.evaluate_level(vx.zero_predictor, ss, manifest) for lvl, ss in test.items()}
        problems = []
        for epoch, mean_psnr, mean_mp in table:
            ref = checks.ReferenceForward(vx.load_checkpoint(ckpts[epoch]).network)
            psnrs = [checks.psnr_db(ref.image(s.distorted_img), s.gt_screen_img) for s in test[level]]
            if not abs(float(np.mean(psnrs)) - mean_psnr) <= 1e-6:
                problems.append(f"epoch {epoch}: mean PSNR {mean_psnr} != {np.mean(psnrs)}")
            if not 0.0 <= mean_mp <= 1.0:
                problems.append(f"epoch {epoch}: mean MP {mean_mp} outside [0, 1]")
        problems += self.reference.same("eval.sweep", digest([np.array(table)]))
        self.ops.record("epoch_sweep", problems)
        for lvl, (rows, summary) in zero.items():
            preds = {s.id: (vx.zero_predictor(s), s.gt_screen_img) for s in test[lvl]}
            problems = checks.evaluation(config, rows, summary, preds, zero=True)
            self.ops.record(f"zero-predictor level {lvl}", problems)
        n_evals = len(ckpts) * len(test[level]) + sum(len(ss) for ss in test.values())
        _, eval_psnr, eval_mp = table[-1]
        return n_evals, eval_psnr, eval_mp

    def _predict(self, st: Stages, net):
        """The stream: one frame after another, a kernel block between frames."""
        vx, kernel = self.vx, self.sampler.kernel
        ref_fwd = self.checks.ReferenceForward(net) if self.reference.first else None
        latencies, normalized = [], []
        before = kernel.block(FRAME_CALLS[kernel.n])
        with st.traced("predict"):
            for frame_id, distorted, encoding in self.frames:
                t0 = time.perf_counter()
                screen = vx.predict_screen(net, distorted, encoding)
                latencies.append((time.perf_counter() - t0) * 1e3)
                after = kernel.block(FRAME_CALLS[kernel.n])
                normalized.append(latencies[-1] / kernel.ratio(0.5 * (before + after)))
                before = after
                problems = self.reference.same(f"predict.{frame_id}", digest([screen.phase]))
                if ref_fwd is not None:
                    lo, hi = encoding
                    err = float(np.max(np.abs((screen.phase - lo) / (hi - lo) - ref_fwd.image(distorted))))
                    if not err <= 1e-9:
                        problems.append(f"frame {frame_id}: {err:.3e} from the reference forward pass")
                self.ops.record("predict", problems)
        return latencies, normalized


def per_layer(tracer: Tracer, m: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    tree = SpanTree(tracer.spans)
    out: dict[str, float] = {}
    for name in SELF_S:
        out[f"{name}.self_s"] = tree.self_s.get(name, 0.0)
    for name in tracer.names:
        out[f"{name}.calls"] = tree.calls.get(name, 0)
    trained = m["counts"]["train"]
    evals = m["counts"]["eval"]
    out["network.transmission.per_trained_sample"] = (
        tree.count_under("network.transmission", "network.train") / trained
    )
    out["propagation.hops.per_trained_sample"] = (
        tree.count_under("propagation.propagate", "network.train")
        + tree.count_under("propagation.propagate_adjoint", "network.train")
    ) / trained
    out["turbulence.screen_variance.per_sample"] = (
        tree.count_under("turbulence.screen_variance", "dataset.synthesize_sample", "stage.gen")
        / m["counts"]["gen"]
    )
    synth = tree.calls.get("dataset.synthesize_fields", 0)
    for fn in ("field.make_vortex_beam", "propagation.make_kernel"):
        out[f"{fn}.per_synthesis"] = tree.count_under(fn, "dataset.synthesize_fields") / synth
    for fn in ("metrics.oam_decompose", "dataset.synthesize_fields"):
        out[f"{fn}.per_eval"] = tree.count_under(fn, "pipeline.evaluate_level") / evals
    lat = tree.durations_ms("network.predict_image", "stage.predict")
    out["network.predict_image.p50_ms"] = statistics.median(lat)
    out["network.predict_image.p95_ms"] = statistics.quantiles(lat, n=20)[18]
    out["network.predict_image.samples"] = len(lat)
    return out


def per_layer_unit(name: str) -> str:
    if name.startswith("wall."):
        return END_TO_END[name[len("wall."):]]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    os.environ.pop("VORTEXAO_THREADS", None)
    kernel = RefKernel(wl.n)

    before = kernel.block()
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import vortexao as vx
    except ImportError as exc:
        print(f"cannot import vortexao from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    after = kernel.block()
    import_r = kernel.ratio(0.5 * (before + after))
    import checks

    setup_wall, setup_norm = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        config = set_up(vx, wl, args.seed)
        dt = time.perf_counter() - t0
        nxt = kernel.block()
        setup_wall.append(dt)
        setup_norm.append(dt / kernel.ratio(0.5 * (after + nxt)))
        after = nxt

    probe_dir = os.path.join(WORK_DIR, f"{os.getpid()}-probe")
    os.makedirs(probe_dir)
    sampler = Sampler(kernel, IoProbe(wl.n, probe_dir))
    loop = Loop(vx, checks, wl, args.seed, config, sampler)
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        tracer = Tracer(sampler.clock) if args.trace and i % 2 == 1 else None
        m = loop.round(tracer, os.path.join(WORK_DIR, f"{os.getpid()}-{i}"))
        if m is not None and tracer is None:
            untraced.append(m)
        elif m is not None:
            traced.append((m, per_layer(tracer, m)))
            tracers.append(tracer)
        i += 1
        if time.perf_counter() - start >= args.seconds and (not args.trace or i % 2 == 0):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    os.rmdir(probe_dir)
    try:
        os.rmdir(WORK_DIR)
    except OSError:  # another run is using it
        pass

    if not untraced or (args.trace and not traced):
        print("no round completed", file=sys.stderr)
        return 1

    def med(key, rounds=untraced):
        return statistics.median(r[key] for r in rounds)

    values = {k: med(k) for k in END_TO_END if k in untraced[0]}
    values["setup_s"] = import_s / import_r + statistics.median(setup_norm)
    values["peak_rss_mb"] = peak_rss_mb
    wall = {k: med(f"wall.{k}") for k in list(RATES) + ["predict_ms_p50"]}
    wall["setup_s"] = import_s + statistics.median(setup_wall)
    ref_ms = statistics.median(kernel.samples_ms)

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced rounds; reference kernel {ref_ms:.4f} ms/call "
          f"(r = {kernel.ratio(ref_ms):.3f})")
    for k, unit in END_TO_END.items():
        raw = f" (wall clock {wall[k]:.6g})" if k in wall else ""
        print(f"  {k:22s} {values[k]:14.6g} {unit}{raw}")

    if args.trace:
        layer = {k: statistics.median(p[k] for _, p in traced) for k in traced[0][1]}
        layer.update({f"wall.{k}": v for k, v in wall.items()})
        layer["ref_kernel_ms"] = ref_ms
        layer["trace.overhead_s"] = med("timed_s", [m for m, _ in traced]) - med("timed_s")
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "rounds": [t.spans for t in tracers]}, fh)
        print(f"  spans written to {os.path.relpath(path, ROOT)}")
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({
        "correct": loop.ops.correct,
        "attempted": loop.ops.attempted,
        "failed": loop.ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
