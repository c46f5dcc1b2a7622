"""Evaluation metrics: OAM mode purity, PSNR, CSV reports.

Mode weights come from an azimuthal decomposition of the complex field:
the Cartesian samples are interpolated onto a polar grid bounded by the
inscribed circle, each ring is projected onto exp(-i ell theta), and the
per-mode powers are the radius-weighted sums of squared projections,
normalized over the requested mode range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, GridMismatchError
from .field import ComplexField, GridSpec
from .images import _bilinear_taps, atomic_write_bytes

DEFAULT_ELL_RANGE = (-10, 10)

REPORT_COLUMNS = ("sample_id", "level", "mp_distorted", "mp_compensated", "psnr", "epoch")


@dataclass(frozen=True)
class OamSpectrum:
    """Normalized per-mode power over an inclusive integer mode range."""

    ell_min: int
    ell_max: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.ell_max - self.ell_min + 1,):
            raise DomainError("weight vector length does not match the mode range")
        object.__setattr__(self, "weights", w)

    @property
    def ells(self) -> np.ndarray:
        return np.arange(self.ell_min, self.ell_max + 1)

    def weight(self, m: int) -> float:
        if not (self.ell_min <= m <= self.ell_max):
            raise DomainError(f"mode {m} outside range [{self.ell_min}, {self.ell_max}]")
        return float(self.weights[m - self.ell_min])


def mode_range(ell: int) -> tuple[int, int]:
    """The range purity of mode ``ell`` is reported over: +/-10, or +/-(|ell| + 5)."""
    span = max(10, abs(ell) + 5)
    return (-span, span)


@functools.lru_cache(maxsize=8)
def _polar_plan(grid: GridSpec, ell_min: int, ell_max: int):
    """Read-only ``(taps, row_weights, col_weights, radius, basis)`` of :func:`oam_decompose`.

    ``taps`` index the float64 view of a field (real, imaginary interleaved).
    """
    n_r = grid.n // 2
    n_theta = max(16, 4 * max(abs(ell_min), abs(ell_max)))
    r = (np.arange(n_r) + 0.5) * (grid.side / 2 / n_r)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    # pixel centers sit at (i - n/2 + 0.5) dx; invert that map to index space
    cols = r[:, None] * np.cos(theta)[None, :] / grid.dx + grid.n / 2 - 0.5
    rows = r[:, None] * np.sin(theta)[None, :] / grid.dx + grid.n / 2 - 0.5
    tap_rows, tap_cols, row_w, col_w = _bilinear_taps((grid.n, grid.n), rows, cols)
    flat = 2 * (tap_rows * grid.n + tap_cols)
    # the weights repeat for both parts: a broadcast over that axis is slower
    plan = (
        np.stack([flat, flat + 1], axis=-1),
        np.repeat(row_w[..., None], 2, axis=-1),
        np.repeat(col_w[..., None], 2, axis=-1),
        r[:, None],
        np.exp(-1j * np.outer(theta, np.arange(ell_min, ell_max + 1))),  # (n_theta, n_ell)
    )
    for a in plan:
        a.flags.writeable = False
    return plan


def oam_decompose(
    field: ComplexField, ell_range: tuple[int, int] = DEFAULT_ELL_RANGE
) -> OamSpectrum:
    """Decompose a field into azimuthal (OAM) mode powers.

    Samples n/2 radii inside the inscribed circle and ``4 * max|ell|``
    azimuthal angles (at least 16) with bilinear interpolation, then
    projects each ring onto the helical phases of the requested modes.
    Insensitive to a global phase and to free-space propagation. The
    sampling plan is built once per grid and mode range and then reused.
    """
    ell_min, ell_max = int(ell_range[0]), int(ell_range[1])
    if ell_min > ell_max:
        raise DomainError(f"empty mode range [{ell_min}, {ell_max}]")
    if not np.any(field.values):
        raise DegenerateInputError("cannot decompose an identically zero field")

    taps, row_w, col_w, r, basis = _polar_plan(field.grid, ell_min, ell_max)
    # bilinear_sample's operation order, so spectra stay the same bit for bit
    t = np.ascontiguousarray(field.values).view(np.float64).ravel().take(taps) * row_w
    t *= col_w
    u_polar = (t[0] + t[1] + t[2] + t[3]).view(np.complex128)[..., 0]
    coeff = (u_polar @ basis) / basis.shape[0]  # ring-wise circular projection
    powers = (r * np.abs(coeff) ** 2).sum(axis=0)
    total = powers.sum()
    if total <= 0:
        raise DegenerateInputError("field carries no power inside the inscribed circle")
    return OamSpectrum(ell_min, ell_max, powers / total)


def mode_purity(spectrum: OamSpectrum, m: int) -> float:
    """Fraction of decomposed power in mode m."""
    return spectrum.weight(m)


def psnr(pred: np.ndarray, gt: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB for unit-range images.

    ``10 log10(1 / MSE)`` with the pixel-mean squared error; identical
    images return ``math.inf``.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise GridMismatchError(f"image shapes differ: {pred.shape} vs {gt.shape}")
    mse = float(np.mean((pred - gt) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


@dataclass(frozen=True)
class ReportRow:
    """One evaluated sample; column order fixed by REPORT_COLUMNS."""

    sample_id: int
    level: int
    mp_distorted: float
    mp_compensated: float
    psnr: float
    epoch: int

    def as_csv(self) -> str:
        return (
            f"{self.sample_id},{self.level},{self.mp_distorted:.9f},"
            f"{self.mp_compensated:.9f},{self.psnr:.6f},{self.epoch}"
        )


def write_report(rows, path) -> None:
    """Write evaluation rows as CSV with the fixed column header."""
    lines = [",".join(REPORT_COLUMNS)]
    lines.extend(row.as_csv() for row in rows)
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))
