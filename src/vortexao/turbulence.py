"""Oceanic turbulence: refractive-index spectrum and random phase screens.

The refractive-index fluctuation spectrum for homogeneous isotropic ocean
water (temperature plus salinity driven) is

    Phi_ot(kappa) = 0.388 * Cn2 * kappa^(-11/3) * [1 + 2.35 (kappa eta)^(2/3)]
                    * [exp(-A_T d) - (2/tau) exp(-A_TS d) + tau^-2 exp(-A_S d)]

with ``d = 8.284 (kappa eta)^(4/3) + 12.978 (kappa eta)^2`` and the fixed
constants ``A_T = 1.863e-2``, ``A_S = 1.9e-4``, ``A_TS = 9.41e-3``. The
phase spectrum accumulated over a path of length z at wavenumber k0 is
``Phi(kappa) = 2 pi k0^2 z Phi_ot(kappa)``. Screens are synthesized by
filtering unit-variance complex white noise with the square root of the
phase spectrum on the discrete frequency grid and Fourier transforming.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DomainError
from .field import GridSpec, PhaseScreen

A_T = 1.863e-2
A_S = 1.9e-4
A_TS = 9.41e-3

TAU_RANGE = (-5.0, 0.0)


@dataclass(frozen=True)
class TurbulenceParams:
    """Physical parameters of an oceanic turbulence channel.

    cn2 : temperature-fluctuation structure strength, K^2 m^(-2/3)
    epsilon : kinetic-energy dissipation rate, m^2/s^3
    chi_t : dissipation rate of mean-square temperature, K^2/s
    tau : temperature/salinity balance parameter, dimensionless, in [-5, 0)
    eta : Kolmogorov inner scale, meters
    z : propagation distance, meters
    k0 : optical wavenumber 2 pi / wavelength, 1/m

    Build instances via :meth:`from_cn2` (chi_t derived from epsilon, so
    cn2 = 0 stays constructible).
    """

    cn2: float
    epsilon: float
    chi_t: float
    tau: float
    eta: float
    z: float
    k0: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.cn2 < 0:
            raise ConfigError(f"cn2 must be non-negative, got {self.cn2}")
        if not (TAU_RANGE[0] <= self.tau < TAU_RANGE[1]):
            raise ConfigError(f"tau must lie in [-5, 0), got {self.tau}")
        if self.eta <= 0:
            raise ConfigError(f"inner scale eta must be positive, got {self.eta}")
        if self.z <= 0:
            raise ConfigError(f"propagation distance must be positive, got {self.z}")
        if self.k0 <= 0:
            raise ConfigError(f"wavenumber must be positive, got {self.k0}")

    @classmethod
    def from_cn2(
        cls,
        cn2: float,
        *,
        z: float = 30.0,
        wavelength: float = 633e-9,
        tau: float = -2.5,
        eta: float = 1e-3,
        epsilon: float = 1e-5,
    ) -> "TurbulenceParams":
        """Construct from the structure strength; chi_t derived from epsilon."""
        if not epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {epsilon}")
        chi_t = cn2 * 1e8 * epsilon ** (1.0 / 3.0)
        return cls(cn2, epsilon, chi_t, tau, eta, z, 2.0 * np.pi / wavelength)


@dataclass(frozen=True)
class ScreenRng:
    """Deterministic, platform-stable random source for screen synthesis.

    The same (seed, key) pair always yields a bit-identical screen. Child
    generators derived with :meth:`child` are statistically independent,
    which lets dataset generation draw sample i without drawing samples
    0..i-1 first.
    """

    seed: int
    key: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, index: int) -> "ScreenRng":
        return ScreenRng(self.seed, self.key + (int(index),))


def index_spectrum(params: TurbulenceParams, kappa) -> np.ndarray:
    """Refractive-index fluctuation spectrum Phi_ot(kappa).

    ``kappa`` is a spatial frequency in rad/m, scalar or array, strictly
    positive (the power law diverges at zero).
    """
    kappa = np.asarray(kappa, dtype=np.float64)
    if np.any(kappa <= 0):
        raise DomainError("index_spectrum requires kappa > 0")
    ke = kappa * params.eta
    delta = 8.284 * ke ** (4.0 / 3.0) + 12.978 * ke**2
    bracket = (
        np.exp(-A_T * delta)
        - (2.0 / params.tau) * np.exp(-A_TS * delta)
        + params.tau**-2 * np.exp(-A_S * delta)
    )
    return 0.388 * params.cn2 * kappa ** (-11.0 / 3.0) * (1.0 + 2.35 * ke ** (2.0 / 3.0)) * bracket


def phase_spectrum(params: TurbulenceParams, kappa) -> np.ndarray:
    """Accumulated phase spectrum ``2 pi k0^2 z Phi_ot(kappa)``."""
    return 2.0 * np.pi * params.k0**2 * params.z * index_spectrum(params, kappa)


def _kappa_grid(grid: GridSpec) -> np.ndarray:
    k1 = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    kx, ky = np.meshgrid(k1, k1, indexing="ij")
    return np.hypot(kx, ky)


# room for the four standard levels of one grid
@functools.lru_cache(maxsize=4)
def _spectral_amplitude(params: TurbulenceParams, grid: GridSpec) -> np.ndarray:
    """Per-mode amplitude ``dkappa * sqrt(Phi)`` with the kappa=0 bin zeroed.

    Memoized on ``(params, grid)``, both frozen value types, so every screen
    and variance of a level shares one computation; the array is read-only.
    """
    kappa = _kappa_grid(grid)
    dk = 2.0 * np.pi / (grid.n * grid.dx)
    amp = np.zeros_like(kappa)
    mask = kappa > 0  # piston bin is unobservable and the spectrum diverges there
    amp[mask] = dk * np.sqrt(phase_spectrum(params, kappa[mask]))
    amp.flags.writeable = False
    return amp


def screen_variance(params: TurbulenceParams, grid: GridSpec) -> float:
    """Theoretical per-pixel phase variance of a synthesized screen.

    Equals the spectral sum ``sum_k (2 pi / (N dx))^2 Phi(kappa_k)`` over all
    nonzero frequency bins of the grid; every pixel has this same variance.
    """
    amp = _spectral_amplitude(params, grid)
    return float(np.sum(amp**2))


def make_screen(params: TurbulenceParams, grid: GridSpec, rng: ScreenRng) -> PhaseScreen:
    """Draw one random phase screen by power-spectrum inversion.

    Complex white noise (zero mean, unit variance) is shaped by
    ``dkappa * sqrt(Phi)`` on the discrete kappa grid, Fourier transformed,
    and the real part kept. Taking the real part halves the variance, so the
    spectral amplitude carries a compensating sqrt(2); the per-pixel variance
    then matches :func:`screen_variance` exactly in expectation. The piston
    (mean) component is removed; it is zero by construction since the DC bin
    is zeroed, the subtraction only clears float residue.
    """
    amp = _spectral_amplitude(params, grid)
    g = rng.generator()
    noise = g.standard_normal((grid.n, grid.n)) + 1j * g.standard_normal((grid.n, grid.n))
    noise /= np.sqrt(2.0)
    spectrum = noise * (np.sqrt(2.0) * amp)
    phi = np.fft.ifft2(spectrum).real * grid.n**2
    phi -= phi.mean()
    return PhaseScreen(grid, phi)


STANDARD_CN2_LEVELS = (1e-15, 1e-14, 1e-13, 1e-12)


def standard_levels(
    *,
    z: float = 30.0,
    wavelength: float = 633e-9,
    tau: float = -2.5,
    eta: float = 1e-3,
    epsilon: float = 1e-5,
) -> list[TurbulenceParams]:
    """The four reference turbulence strengths, weak through strong.

    cn2 in {1e-15, 1e-14, 1e-13, 1e-12} K^2 m^(-2/3) over a 30 m path at
    633 nm. Inner scale and dissipation default to mid-ocean values; pass
    quieter ones (smaller epsilon, larger eta) to soften the high-frequency
    tail of the screens.
    """
    return [
        TurbulenceParams.from_cn2(
            cn2, z=z, wavelength=wavelength, tau=tau, eta=eta, epsilon=epsilon
        )
        for cn2 in STANDARD_CN2_LEVELS
    ]
