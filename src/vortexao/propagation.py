"""Free-space propagation between parallel planes.

The production path is the paraxial (Fresnel) transfer function applied in
the Fourier domain:

    H(fx, fy) = exp(i k d) * exp(-i pi lambda d (fx^2 + fy^2))

sampled at the DFT frequencies ``f = index / (n dx)``. H has unit modulus
everywhere, so with orthonormal FFTs propagation is exactly unitary and the
adjoint operator is propagation with the conjugated kernel. A direct
spherical-wavelet summation (:func:`rayleigh_sommerfeld`) is kept as an
independent small-grid reference; it is O(n^4) and not meant for production.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import DomainError, GridMismatchError
from .field import ComplexField, GridSpec, _require_same_grid


@dataclass(frozen=True)
class PropagationKernel:
    """Precomputed Fourier-domain transfer function for one hop.

    ``h_adjoint = conj(h)`` is the transfer function of the adjoint hop,
    built once with the kernel.
    """

    grid: GridSpec
    distance: float
    h: np.ndarray
    h_adjoint: np.ndarray = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.h.shape != (self.grid.n, self.grid.n):
            raise GridMismatchError(
                f"kernel shape {self.h.shape} does not match grid {self.grid.n}"
            )
        object.__setattr__(self, "h_adjoint", np.conj(self.h))


def make_kernel(grid: GridSpec, distance: float) -> PropagationKernel:
    """Build the transfer function for a signed propagation distance.

    ``distance = 0`` gives the identity kernel; negative distances give the
    exact inverse of the corresponding positive hop, ``H(-d) = conj(H(d))``.
    """
    f1 = np.fft.fftfreq(grid.n, d=grid.dx)
    fx, fy = np.meshgrid(f1, f1, indexing="ij")
    k = 2.0 * np.pi / grid.wavelength
    # an overflowing or non-finite phase is rejected just below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        phase = k * distance - np.pi * grid.wavelength * distance * (fx**2 + fy**2)
    if not np.all(np.isfinite(phase)):
        raise DomainError(f"propagation phase overflows for distance {distance} on {grid}")
    return PropagationKernel(grid, distance, np.exp(1j * phase))


def dft2(
    a: np.ndarray, inverse: bool = False, norm: str = "ortho", out: np.ndarray | None = None
) -> np.ndarray:
    """The 2-D DFT over the last two axes, as two 1-D passes with one buffer.

    The passes run in ``fft2``'s own axis order, last axis first, so each
    plane of the result equals ``np.fft.fft2(a, norm=norm)`` (``ifft2`` when
    ``inverse``) bit for bit. The first pass writes into ``out``, a fresh
    array when it is None, and may be ``a`` itself; the second runs in place
    there. ``a`` is only read unless it is ``out``.
    """
    transform = np.fft.ifft if inverse else np.fft.fft
    b = transform(a, axis=-1, norm=norm, out=out)
    return transform(b, axis=-2, norm=norm, out=b)


def hop(u: np.ndarray, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One hop on a plain array: IFFT( FFT(u) * h ) with orthonormal transforms.

    ``u`` is one plane ``(n, n)`` or a stack ``(k, n, n)`` of them; the
    transforms run over the last two axes, so every plane hops on its own.
    Both transforms are :func:`dft2` calls on the one buffer the hop returns, a
    fresh array or ``out``, which may be ``u`` itself. Each plane equals
    ``ifft2(fft2(u, norm="ortho") * h, norm="ortho")`` bit for bit, without its
    intermediate arrays; ``h``, and ``u`` unless it is ``out``, are only read.
    """
    a = dft2(u, out=out)
    a *= h
    return dft2(a, inverse=True, out=a)


def propagate(field: ComplexField, kernel: PropagationKernel) -> ComplexField:
    """Apply the transfer function: IFFT( FFT(u) * H ). Power conserving."""
    _require_same_grid(field.grid, kernel.grid)
    return ComplexField(field.grid, hop(field.values, kernel.h))


def propagate_adjoint(field: ComplexField, kernel: PropagationKernel) -> ComplexField:
    """Adjoint of :func:`propagate` under the unweighted inner product.

    Because the kernel is unit modulus and the transform orthonormal, the
    adjoint equals the inverse: propagation with conj(H).
    """
    _require_same_grid(field.grid, kernel.grid)
    return ComplexField(field.grid, hop(field.values, kernel.h_adjoint))


def layer_transmit(field: ComplexField, t: np.ndarray) -> ComplexField:
    """Pointwise product of a field with a complex transmission array."""
    t = np.asarray(t)
    if t.shape != field.values.shape:
        raise GridMismatchError(
            f"transmission shape {t.shape} does not match field {field.values.shape}"
        )
    return ComplexField(field.grid, field.values * t)


def propagate_padded(field: ComplexField, distance: float) -> ComplexField:
    """Propagate on a 2x zero-padded grid, then crop back.

    Suppresses periodic wraparound for distances whose diffraction spread
    approaches the aperture. Light leaving the window is genuinely lost, so
    this variant is not power conserving; the default unpadded path is exact
    circular propagation and stays unitary.
    """
    g = field.grid
    big = GridSpec(2 * g.n, g.dx, g.wavelength)
    padded = np.zeros((big.n, big.n), dtype=np.complex128)
    lo = g.n // 2
    padded[lo : lo + g.n, lo : lo + g.n] = field.values
    out = propagate(ComplexField(big, padded), make_kernel(big, distance))
    return ComplexField(g, out.values[lo : lo + g.n, lo : lo + g.n].copy())


def rayleigh_sommerfeld(field: ComplexField, distance: float) -> ComplexField:
    """Direct secondary-wavelet summation to a parallel plane.

    Each source pixel radiates ``(d/r^2) (1/(i lambda) + 1/(2 pi r)) exp(i k r)``
    weighted by its complex amplitude and the pixel area, with
    ``r = sqrt((x-xs)^2 + (y-ys)^2 + d^2)``. Output sampled on the same grid.
    Quadratic memory, quartic time; use for small-grid cross-checks only.
    """
    if distance <= 0:
        raise DomainError("rayleigh_sommerfeld requires a positive distance")
    g = field.grid
    lam = g.wavelength
    x, y = g.mesh()
    xs = x.ravel()
    ys = y.ravel()
    ddx = xs[:, None] - xs[None, :]
    ddy = ys[:, None] - ys[None, :]
    r = np.sqrt(ddx**2 + ddy**2 + distance**2)
    w = (distance / r**2) * (1.0 / (1j * lam) + 1.0 / (2.0 * np.pi * r)) * np.exp(
        2j * np.pi * r / lam
    )
    out = (w @ field.values.ravel()) * g.dx**2
    return ComplexField(g, out.reshape(g.n, g.n))
