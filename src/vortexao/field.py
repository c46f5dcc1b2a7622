"""Complex optical fields on square grids.

Provides the sampling grid, the complex field container, vortex/Gaussian
beam synthesis, elementwise phase modulation and intensity extraction.
Fields are value objects: operations never mutate their inputs and arrays
held by a field are treated as read-only by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, DomainError, GridMismatchError

# the largest grid side in samples: one complex128 plane of it takes 4 GiB
MAX_GRID_N = 2**14
# the smallest temporary numpy reuses as a product's output, see times_temporary
_ELIDE_BYTES = 256 * 1024


@dataclass(frozen=True)
class GridSpec:
    """Square sampling grid shared by fields, screens and kernels.

    Parameters
    ----------
    n : int
        Samples per side; a power of two from 8 to ``MAX_GRID_N`` (FFT
        friendly).
    dx : float
        Grid spacing in meters.
    wavelength : float
        Optical wavelength in meters.

    Pixel centers sit at ``(i - n/2 + 0.5) * dx`` so no sample lands on the
    beam axis where the vortex phase is undefined. The physical side length
    ``n * dx`` is always derived, never stored.
    """

    n: int
    dx: float
    wavelength: float

    def __post_init__(self):
        _check_grid_n(self.n)
        area = self.dx * self.dx  # intensities scale as 1 / area, powers as n^2 area
        if not (self.dx > 0 and np.finfo(float).tiny <= area and area * self.n**2 < math.inf):
            raise ConfigError(f"grid spacing {self.dx} gives no finite, nonzero pixel area")
        if not (math.isfinite(self.wavelength) and self.wavelength > 0):
            raise ConfigError(f"wavelength must be positive and finite, got {self.wavelength}")

    @classmethod
    def from_side(cls, n: int, side: float, wavelength: float) -> "GridSpec":
        """The grid of ``n`` samples across ``side`` meters; ``n`` is checked first."""
        _check_grid_n(n)
        return cls(n, side / n, wavelength)

    @property
    def side(self) -> float:
        """Physical side length ``n * dx`` in meters."""
        return self.n * self.dx

    def axis(self) -> np.ndarray:
        """Pixel-center coordinates along one axis, in meters."""
        return (np.arange(self.n) - self.n / 2 + 0.5) * self.dx

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays ``(x, y)``; x varies along columns (image order)."""
        c = self.axis()
        yy, xx = np.meshgrid(c, c, indexing="ij")
        return xx, yy


def _check_grid_n(n: int) -> None:
    if not 8 <= n <= MAX_GRID_N or (n & (n - 1)) != 0:
        raise ConfigError(f"grid size must be a power of two from 8 to {MAX_GRID_N}, got {n}")


def _require_same_grid(a: GridSpec, b: GridSpec) -> None:
    if a != b:
        raise GridMismatchError(f"grids differ: {a} vs {b}")


@dataclass(frozen=True)
class ComplexField:
    """An n x n complex field sample u(x, y) on a :class:`GridSpec`."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n, self.grid.n):
            raise GridMismatchError(
                f"field shape {v.shape} does not match grid {self.grid.n}x{self.grid.n}"
            )
        object.__setattr__(self, "values", v)

    @property
    def power(self) -> float:
        """Total power, sum of |u|^2 times the pixel area."""
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.dx**2)


@dataclass(frozen=True)
class PhaseScreen:
    """An n x n real phase map in radians on a :class:`GridSpec`."""

    grid: GridSpec
    phase: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.phase, dtype=np.float64)
        if p.shape != (self.grid.n, self.grid.n):
            raise GridMismatchError(
                f"screen shape {p.shape} does not match grid {self.grid.n}x{self.grid.n}"
            )
        if not np.all(np.isfinite(p)):
            raise DomainError("phase screen contains non-finite entries")
        object.__setattr__(self, "phase", p)


def make_vortex_beam(grid: GridSpec, ell: int, waist: float) -> ComplexField:
    """Synthesize a single-ring vortex beam of topological charge ``ell``.

    The profile is ``(sqrt(2) r / waist)^|ell| * exp(-r^2/waist^2) * exp(i ell theta)``,
    centered on the grid and normalized to unit total power. ``ell = 0``
    reduces to a plain Gaussian.
    """
    if not (math.isfinite(waist) and waist > 0):
        raise ConfigError(f"waist must be positive and finite, got {waist}")
    if waist > grid.side / 2:
        raise ConfigError(
            f"waist {waist} exceeds half the grid side {grid.side / 2}; beam clipped"
        )
    if abs(ell) > grid.n // 4:
        raise ConfigError(f"|ell|={abs(ell)} unresolvable on an n={grid.n} grid")
    x, y = grid.mesh()
    r = np.hypot(x, y)
    theta = np.arctan2(y, x)
    u = (np.sqrt(2.0) * r / waist) ** abs(ell) * np.exp(-((r / waist) ** 2))
    u = u * np.exp(1j * ell * theta)
    u /= np.sqrt(np.sum(np.abs(u) ** 2) * grid.dx**2)
    return ComplexField(grid, u)


def apply_phase(field: ComplexField, screen: PhaseScreen) -> ComplexField:
    """Multiply a field by ``exp(i * phase)``; total power is unchanged."""
    _require_same_grid(field.grid, screen.grid)
    return ComplexField(field.grid, field.values * np.exp(1j * screen.phase))


def times_temporary(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """``a * b`` rounded as numpy rounds it for one ``(n, n)`` plane of a temporary b.

    numpy computes ``a * b`` as ``b * a`` when b is a temporary of at least
    ``_ELIDE_BYTES`` that it can reuse as the output, and a complex product is
    not symmetric in its last bit. Here the order follows the size of one
    plane of b, so a stack, or a b that is not a temporary, rounds as each
    plane's fresh product would.
    """
    if b.itemsize * b.shape[-2] * b.shape[-1] >= _ELIDE_BYTES:
        return np.multiply(b, a, out=out)
    return np.multiply(a, b, out=out)


def intensity(field: ComplexField) -> np.ndarray:
    """Pointwise |u|^2. Sums to total power divided by the pixel area."""
    v = field.values
    return (v.real**2 + v.imag**2).astype(np.float64)


def normalize_image(img: np.ndarray) -> np.ndarray:
    """Linearly rescale an image so its minimum is 0 and maximum is 1."""
    img = np.asarray(img, dtype=np.float64)
    lo = float(img.min())
    hi = float(img.max())
    if hi == lo:
        raise DegenerateInputError("constant image cannot be normalized")
    return (img - lo) / (hi - lo)
