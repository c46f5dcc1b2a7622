"""Output checks, computed apart from the program where the method allows.

Each function returns a list of problems (empty when the check passes).
They run outside the timed stages.
"""

from __future__ import annotations

import copy
import hashlib
import math
import os

import numpy as np

import vortexao as vx

PGM_STEP = 1.0 / 65535
# per-screen relative spread of mean(phase^2) / screen_variance, measured
# over 400 desk and 100 paper-scale screens (0.46 and 0.48), rounded up
SCREEN_VARIANCE_SPREAD = 0.5
VARIANCE_TOLERANCE = 0.10
FD_DIRECTIONS = 3
FD_STEP = 1e-5
FD_TOLERANCE = 1e-6


def transfer_function(grid, distance: float) -> np.ndarray:
    """Fresnel transfer function ``exp(i k d - i pi lambda d (fx^2 + fy^2))``."""
    f = np.fft.fftfreq(grid.n, d=grid.dx)
    f2 = f[:, None] ** 2 + f[None, :] ** 2
    k = 2.0 * np.pi / grid.wavelength
    return np.exp(1j * (k * distance - np.pi * grid.wavelength * distance * f2))


class ReferenceForward:
    """The network's prediction, rebuilt from its layer arrays."""

    def __init__(self, net):
        self.h = transfer_function(net.grid, net.spacing)
        self.t = [np.exp(layer.log_amplitude + 1j * layer.phase) for layer in net.layers]
        self.gain, self.offset = (float(v) for v in net.readout)

    def _hop(self, u):
        return np.fft.ifft2(np.fft.fft2(u) * self.h)

    def image(self, distorted: np.ndarray) -> np.ndarray:
        # no power normalisation: the readout divides by mean(I), so a scale cancels
        u = np.sqrt(distorted).astype(np.complex128)
        for t in self.t:
            u = self._hop(u) * t
        i_out = np.abs(self._hop(u)) ** 2
        return np.clip(self.offset + self.gain * (i_out / i_out.mean() - 1.0), 0.0, 1.0)


def psnr_db(pred: np.ndarray, gt: np.ndarray) -> float:
    return 10.0 * math.log10(1.0 / float(np.mean((pred - gt) ** 2)))


def dataset_files(manifest, root: str) -> list[str]:
    problems = []
    on_disk = set()
    for split in vx.dataset.SPLITS:
        on_disk.update(f"{split}/{name}" for name in os.listdir(os.path.join(root, split)))
    if on_disk != set(manifest.hashes):
        problems.append(f"{len(on_disk)} sample files on disk, {len(manifest.hashes)} in manifest")
    if len(manifest.hashes) != 2 * manifest.total:
        problems.append(f"manifest lists {len(manifest.hashes)} files for {manifest.total} samples")
    for rel, digest in manifest.hashes.items():
        with open(os.path.join(root, rel), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                problems.append(f"{rel}: sha256 differs from the manifest")
    return problems


def loaded_samples(config, samples) -> list[str]:
    """Every loaded image lies within one 16-bit step of a fresh synthesis."""
    problems = []
    for s in samples:
        ref = vx.synthesize_sample(config, s.id)
        for label, got, want in (
            ("x", s.distorted_img, ref.distorted_img),
            ("y", s.gt_screen_img, ref.gt_screen_img),
        ):
            err = float(np.max(np.abs(got - want)))
            if not err <= PGM_STEP:
                problems.append(f"sample {s.id} {label}: {err * 65535:.3f} steps from synthesis")
        if s.encoding != ref.encoding:
            problems.append(f"sample {s.id}: encoding {s.encoding} != {ref.encoding}")
    return problems


def variance_tolerance(count: int) -> float:
    """10 %, or four standard errors of the estimate when fewer screens give more."""
    return max(VARIANCE_TOLERANCE, 4.0 * SCREEN_VARIANCE_SPREAD / math.sqrt(count))


def screen_variance(manifest, samples) -> list[str]:
    """Per level, mean squared decoded phase against the theoretical variance."""
    problems = []
    config = manifest.config
    by_level: dict[int, list] = {}
    for s in samples:
        by_level.setdefault(s.level_index, []).append(s.gt_screen_img)
    for level, imgs in sorted(by_level.items()):
        lo, hi = manifest.encodings[level]
        phase = lo + np.stack(imgs) * (hi - lo)
        estimate = float(np.mean(phase**2))
        theory = vx.screen_variance(config.levels[level], config.grid)
        rel = abs(estimate / theory - 1.0)
        if not rel <= variance_tolerance(len(imgs)):
            problems.append(
                f"level {level}: screen variance {estimate:.4g} vs {theory:.4g} "
                f"({rel:.1%} off, {len(imgs)} screens)"
            )
    return problems


def _loss(net, field, target) -> float:
    return vx.loss_mse(vx.forward(net, field)[0], target)


def gradient(net, pair, seed: int) -> list[str]:
    """``backward`` against central differences along random unit directions."""
    x_img, y_img = pair
    field = vx.encode_input(x_img, net.grid)
    out, tape = vx.forward(net, field)
    grads = vx.backward(net, tape, out, y_img)
    g_flat = np.concatenate(
        [np.concatenate([g.phase.ravel(), g.log_amplitude.ravel()]) for g in grads]
        + [grads.readout]
    )
    g_norm = float(np.linalg.norm(g_flat))
    rng = np.random.Generator(np.random.PCG64(seed))
    problems = []
    for k in range(FD_DIRECTIONS):
        d = rng.standard_normal(g_flat.size)
        d /= np.linalg.norm(d)
        analytic = float(g_flat @ d)
        losses = []
        for sign in (1.0, -1.0):
            moved = copy.deepcopy(net)
            pos = 0
            for layer in moved.layers:
                for arr in (layer.phase, layer.log_amplitude):
                    arr += sign * FD_STEP * d[pos : pos + arr.size].reshape(arr.shape)
                    pos += arr.size
            moved.readout += sign * FD_STEP * d[pos:]
            losses.append(_loss(moved, field, y_img))
        numeric = (losses[0] - losses[1]) / (2.0 * FD_STEP)
        if not abs(numeric - analytic) <= FD_TOLERANCE * g_norm:
            problems.append(
                f"direction {k}: backward {analytic:.6e}, finite difference {numeric:.6e}, "
                f"|grad| {g_norm:.3e}"
            )
    return problems


def undistorted_purity(config) -> float:
    beam = vx.make_vortex_beam(config.grid, config.ell, config.waist)
    span = max(10, abs(config.ell) + 5)
    return vx.mode_purity(vx.oam_decompose(beam, (-span, span)), config.ell)


def evaluation(config, rows, summary, predictions, zero=False) -> list[str]:
    """Properties every evaluation must have, and PSNR recomputed."""
    problems = []
    bound = undistorted_purity(config)
    if not abs(summary.mean_mp_bound_screen - bound) <= 1e-9:
        problems.append(
            f"screen-plane bound {summary.mean_mp_bound_screen!r} != undistorted MP {bound!r}"
        )
    values = [summary.mean_mp_bound_screen, summary.mean_mp_bound_receiver]
    for r in rows:
        values += [r.mp_distorted, r.mp_compensated]
        if zero and r.mp_compensated != r.mp_distorted:
            problems.append(f"sample {r.sample_id}: zero screen changed MP")
    if not all(0.0 <= v <= 1.0 for v in values):
        problems.append("a mode purity lies outside [0, 1]")
    for r in rows:
        pred, gt = predictions[r.sample_id]
        if not abs(psnr_db(pred, gt) - r.psnr) <= 1e-9:
            problems.append(f"sample {r.sample_id}: PSNR {r.psnr} != {psnr_db(pred, gt)}")
    return problems
