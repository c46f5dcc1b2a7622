import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexao import (
    ConfigError,
    DomainError,
    GridSpec,
    ScreenRng,
    TurbulenceParams,
    index_spectrum,
    make_screen,
    phase_spectrum,
    screen_variance,
    standard_levels,
)
from vortexao.turbulence import _spectral_amplitude

# frozen reference values computed independently with 50-digit arithmetic,
# term by term (cn2=1e-14, tau=-2.5, eta=1e-3)
SPECTRUM_REFERENCE = {
    100.0: 5.280576716126818e-22,
    5000.0: 1.407586231973084e-28,
}


class TestTurbulenceParams:
    def test_from_cn2_consistency_relation(self):
        p = TurbulenceParams.from_cn2(1e-12, epsilon=1e-9)
        assert p.cn2 == pytest.approx(1e-8 * p.epsilon ** (-1 / 3) * p.chi_t, rel=1e-12)

    @pytest.mark.parametrize("tau", [0.0, 0.5, -5.5])
    def test_tau_range(self, tau):
        with pytest.raises(ConfigError):
            TurbulenceParams.from_cn2(1e-14, tau=tau)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", ["cn2", "z", "wavelength", "eta", "epsilon"])
    def test_rejects_non_finite(self, slot, bad):
        with pytest.raises(ConfigError):
            TurbulenceParams.from_cn2(**{"cn2": 1e-14, slot: bad})

    @pytest.mark.parametrize("epsilon", [0.0, -1e-5])
    def test_rejects_non_positive_epsilon(self, epsilon):
        with pytest.raises(ConfigError):
            TurbulenceParams.from_cn2(1e-14, epsilon=epsilon)

    def test_zero_cn2_constructible(self):
        p = TurbulenceParams.from_cn2(0.0)
        assert p.cn2 == 0.0


class TestIndexSpectrum:
    def test_linear_in_cn2(self):
        a = TurbulenceParams.from_cn2(1e-14)
        b = TurbulenceParams.from_cn2(2e-14)
        kappa = np.logspace(1, 4, 20)
        np.testing.assert_allclose(index_spectrum(b, kappa), 2 * index_spectrum(a, kappa), rtol=1e-12)

    def test_large_kappa_eta_cutoff(self):
        p = TurbulenceParams.from_cn2(1e-12)
        assert index_spectrum(p, 1e6 / p.eta) < 1e-300

    def test_matches_high_precision_reference(self):
        p = TurbulenceParams.from_cn2(1e-14, tau=-2.5, eta=1e-3)
        for kappa, expected in SPECTRUM_REFERENCE.items():
            assert index_spectrum(p, kappa) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_kappa(self):
        p = TurbulenceParams.from_cn2(1e-14)
        with pytest.raises(DomainError):
            index_spectrum(p, 0.0)
        with pytest.raises(DomainError):
            index_spectrum(p, np.array([10.0, -1.0]))

    @given(st.floats(min_value=-5.0, max_value=-0.01), st.floats(min_value=1.0, max_value=1e5))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_for_valid_tau(self, tau, kappa):
        p = TurbulenceParams.from_cn2(1e-13, tau=tau)
        assert index_spectrum(p, kappa) >= 0


class TestPhaseSpectrum:
    def test_linear_in_z(self):
        a = TurbulenceParams.from_cn2(1e-13, z=30.0)
        b = TurbulenceParams.from_cn2(1e-13, z=60.0)
        assert phase_spectrum(b, 500.0) == pytest.approx(2 * phase_spectrum(a, 500.0), rel=1e-12)

    def test_quadratic_in_wavenumber(self):
        a = TurbulenceParams.from_cn2(1e-13, wavelength=633e-9)
        b = TurbulenceParams.from_cn2(1e-13, wavelength=633e-9 / 2)
        assert phase_spectrum(b, 500.0) == pytest.approx(4 * phase_spectrum(a, 500.0), rel=1e-12)

    def test_monotone_in_cn2_over_grid_band(self, grid64):
        kappa = np.linspace(2 * np.pi / grid64.side, np.pi / grid64.dx, 200)
        curves = [phase_spectrum(p, kappa) for p in standard_levels()]
        for weaker, stronger in zip(curves, curves[1:]):
            assert np.all(stronger > weaker)


class TestMakeScreen:
    def test_zero_cn2_zero_screen(self, grid64):
        p = TurbulenceParams.from_cn2(0.0)
        screen = make_screen(p, grid64, ScreenRng(3))
        assert np.all(screen.phase == 0)

    def test_deterministic_for_fixed_seed(self, grid64):
        p = standard_levels()[3]
        a = make_screen(p, grid64, ScreenRng(42))
        b = make_screen(p, grid64, ScreenRng(42))
        np.testing.assert_array_equal(a.phase, b.phase)

    def test_different_seeds_differ(self, grid64):
        p = standard_levels()[3]
        a = make_screen(p, grid64, ScreenRng(1))
        b = make_screen(p, grid64, ScreenRng(2))
        assert np.abs(a.phase - b.phase).max() > 0

    def test_zero_mean(self, grid64):
        p = standard_levels()[3]
        screen = make_screen(p, grid64, ScreenRng(7))
        assert abs(screen.phase.mean()) < 1e-12

    def test_variance_matches_spectral_sum(self, grid64):
        # 200-screen ensemble against the brute-force oracle, per level
        rng = ScreenRng(1234)
        for i, p in enumerate(standard_levels()):
            target = screen_variance(p, grid64)
            stack = np.stack(
                [make_screen(p, grid64, rng.child(1000 * i + k)).phase for k in range(200)]
            )
            empirical = stack.var(axis=0, ddof=1).mean()
            assert empirical == pytest.approx(target, rel=0.10)

    def test_variance_strictly_ordered_across_levels(self, grid64):
        rng = ScreenRng(77)
        variances = []
        for i, p in enumerate(standard_levels()):
            stack = np.stack(
                [make_screen(p, grid64, rng.child(1000 * i + k)).phase for k in range(200)]
            )
            variances.append(stack.var(axis=0, ddof=1).mean())
        assert variances == sorted(variances)
        assert len(set(variances)) == 4

    def test_statistical_isotropy(self, grid64):
        p = standard_levels()[3]
        rng = ScreenRng(99)
        stack = np.stack([make_screen(p, grid64, rng.child(k)).phase for k in range(200)])
        per_pixel = stack.var(axis=0)
        vx = per_pixel.mean(axis=0).mean()
        vy = per_pixel.mean(axis=1).mean()
        assert abs(vx / vy - 1) < 0.15


class TestMakeScreenReference:
    """``make_screen`` equals numpy's ``ifft2`` statement it replaced, bit for bit."""

    @staticmethod
    def reference(params, grid, rng):
        g = rng.generator()
        noise = g.standard_normal((grid.n, grid.n)) + 1j * g.standard_normal((grid.n, grid.n))
        noise /= np.sqrt(2.0)
        amp = _spectral_amplitude(params, grid)
        phi = np.fft.ifft2(noise * (np.sqrt(2) * amp)).real * grid.n**2
        return phi - phi.mean()

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("level", [0, 3])
    def test_equals_ifft2(self, n, level):
        grid = GridSpec(n, 0.01 / n, 633e-9)
        params = standard_levels(eta=5.83e-3, epsilon=1e-9)[level]
        for seed in (3, 2**40 + 1):
            phase = make_screen(params, grid, ScreenRng(seed)).phase
            expected = self.reference(params, grid, ScreenRng(seed))
            assert phase.dtype == expected.dtype and phase.tobytes() == expected.tobytes()

    def test_allocates_one_spectrum_at_256(self, peak_bytes):
        # the spectrum product and ifft2's two passes held four complex planes
        grid = GridSpec(256, 0.01 / 256, 633e-9)
        params = standard_levels()[3]
        peak = peak_bytes(lambda: make_screen(params, grid, ScreenRng(2)))
        # building the complex noise from two real draws peaks near two complex planes
        assert peak < 2.5 * grid.n**2 * 16


class TestStandardLevels:
    def test_cn2_values(self):
        levels = standard_levels()
        assert levels[0].cn2 == 1e-15
        assert levels[3].cn2 == 1e-12

    def test_shared_path_length(self):
        assert all(p.z == 30.0 for p in standard_levels())

    def test_wavenumber_from_wavelength(self):
        assert standard_levels()[0].k0 == pytest.approx(2 * np.pi / 633e-9)

    def test_defaults_are_from_cn2s(self):
        cn2s = (1e-15, 1e-14, 1e-13, 1e-12)
        assert standard_levels() == [TurbulenceParams.from_cn2(c) for c in cn2s]
        overrides = dict(z=12.0, wavelength=532e-9, tau=-1.0, eta=4e-3, epsilon=1e-8)
        assert standard_levels(**overrides) == [
            TurbulenceParams.from_cn2(c, **overrides) for c in cn2s
        ]

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            standard_levels(wavelenght=532e-9)


class TestScreenRng:
    def test_child_streams_independent(self):
        a = ScreenRng(5).child(0).generator().standard_normal(4)
        b = ScreenRng(5).child(1).generator().standard_normal(4)
        assert np.abs(a - b).max() > 0

    def test_generator_restartable(self):
        r = ScreenRng(5)
        np.testing.assert_array_equal(
            r.generator().standard_normal(8), r.generator().standard_normal(8)
        )
