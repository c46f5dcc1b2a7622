import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexao import (
    ComplexField,
    ConfigError,
    DegenerateInputError,
    GridMismatchError,
    GridSpec,
    PhaseScreen,
    apply_phase,
    intensity,
    make_vortex_beam,
    normalize_image,
)
from vortexao.field import MAX_GRID_N, times_temporary


class TestGridSpec:
    def test_side_is_derived(self):
        g = GridSpec(64, 1.5625e-4, 633e-9)
        assert g.side == pytest.approx(0.01)

    @pytest.mark.parametrize("n", [7, 12, 100, 4, 0])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ConfigError):
            GridSpec(n, 1e-4, 633e-9)

    def test_largest_size(self):
        assert GridSpec(MAX_GRID_N, 1e-6, 633e-9).n == 2**14
        with pytest.raises(ConfigError, match="from 8 to 16384"):
            GridSpec(2 * MAX_GRID_N, 1e-6, 633e-9)

    # each n is rejected before it divides the side: 2**1100 overflows a float
    @pytest.mark.parametrize("n", [0, -8, 12, 2**15, 2**80, 2**1100])
    def test_from_side_checks_size_first(self, n):
        with pytest.raises(ConfigError, match="grid size"):
            GridSpec.from_side(n, 0.01, 633e-9)

    def test_from_side(self):
        assert GridSpec.from_side(64, 0.01, 633e-9) == GridSpec(64, 0.01 / 64, 633e-9)

    @pytest.mark.parametrize("dx,lam", [(-1e-4, 633e-9), (0, 633e-9), (1e-4, 0)])
    def test_rejects_bad_scalars(self, dx, lam):
        with pytest.raises(ConfigError):
            GridSpec(64, dx, lam)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", ["dx", "wavelength"])
    def test_rejects_non_finite_scalars(self, slot, bad):
        args = {"dx": 1e-4, "wavelength": 633e-9, slot: bad}
        with pytest.raises(ConfigError):
            GridSpec(64, **args)

    # pixel area dx^2 overflows, underflows to zero, or to a subnormal whose
    # reciprocal overflows; or the window area (n dx)^2 overflows
    @pytest.mark.parametrize("dx", [1e200, 1e-200, 1e-160, 1e153])
    def test_rejects_spacing_with_unrepresentable_area(self, dx):
        with pytest.raises(ConfigError, match="pixel area"):
            GridSpec(64, dx, 633e-9)

    @pytest.mark.parametrize("dx", [1e-150, 1e150])
    def test_accepts_extreme_but_representable_spacing(self, dx):
        assert GridSpec(64, dx, 633e-9).dx == dx

    def test_pixel_centers_avoid_origin(self):
        g = GridSpec(8, 1e-3, 633e-9)
        x, y = g.mesh()
        assert np.hypot(x, y).min() > 0


class TestMakeVortexBeam:
    def test_ell_zero_is_gaussian_with_flat_phase(self):
        g = GridSpec(64, 1.5625e-4, 633e-9)
        beam = make_vortex_beam(g, 0, 3.5e-3)
        # all values real positive: constant (zero) phase everywhere
        assert np.all(beam.values.real > 0)
        assert np.abs(beam.values.imag).max() < 1e-15

    def test_unit_power(self, grid64):
        beam = make_vortex_beam(grid64, -3, 3.5e-3)
        assert beam.power == pytest.approx(1.0, rel=1e-12)

    def test_doughnut_dark_center(self):
        g = GridSpec(256, 0.01 / 256, 633e-9)
        img = intensity(make_vortex_beam(g, -3, 3.5e-3))
        c = g.n // 2
        assert img[c - 1 : c + 1, c - 1 : c + 1].max() < 1e-6 * img.max()

    def test_ring_radius_matches_analytic_form(self):
        # peak of the ring sits at waist * sqrt(|ell|/2), within one cell
        g = GridSpec(256, 0.01 / 256, 633e-9)
        img = intensity(make_vortex_beam(g, -3, 3.5e-3))
        x, y = g.mesh()
        idx = np.unravel_index(np.argmax(img), img.shape)
        r_peak = np.hypot(x[idx], y[idx])
        assert abs(r_peak - 3.5e-3 * np.sqrt(1.5)) < g.dx

    def test_azimuthal_symmetry_under_rotation(self, grid64):
        beam = make_vortex_beam(grid64, -3, 3.5e-3)
        mag = np.abs(beam.values)
        rotated = np.rot90(mag)
        assert np.abs(mag - rotated).max() < 1e-6 * mag.max()

    def test_rejects_clipping_waist(self, grid64):
        with pytest.raises(ConfigError):
            make_vortex_beam(grid64, -3, 0.0051)

    @pytest.mark.parametrize("waist", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_waist(self, grid16, waist):
        with pytest.raises(ConfigError):
            make_vortex_beam(grid16, 1, waist)

    def test_rejects_unresolvable_charge(self, grid16):
        with pytest.raises(ConfigError):
            make_vortex_beam(grid16, 5, 2e-3)


class TestApplyPhase:
    def test_zero_screen_is_identity(self, grid64):
        beam = make_vortex_beam(grid64, -3, 3.5e-3)
        out = apply_phase(beam, PhaseScreen(grid64, np.zeros((64, 64))))
        np.testing.assert_array_equal(out.values, beam.values)

    def test_conjugate_cancellation(self, grid64, rng):
        beam = make_vortex_beam(grid64, -3, 3.5e-3)
        phi = rng.normal(0, 2.0, (64, 64))
        out = apply_phase(apply_phase(beam, PhaseScreen(grid64, phi)), PhaseScreen(grid64, -phi))
        assert np.abs(out.values - beam.values).max() < 1e-12

    def test_power_preserved_under_strong_screen(self, grid64, rng):
        beam = make_vortex_beam(grid64, -3, 3.5e-3)
        phi = rng.normal(0, 3.0, (64, 64))
        out = apply_phase(beam, PhaseScreen(grid64, phi))
        assert abs(out.power - beam.power) < 1e-12 * beam.power

    def test_grid_mismatch(self, grid64, grid32):
        beam = make_vortex_beam(grid64, -3, 3.5e-3)
        with pytest.raises(GridMismatchError):
            apply_phase(beam, PhaseScreen(grid32, np.zeros((32, 32))))


class TestTimesTemporary:
    """``times_temporary(a, b)`` rounds each plane as ``a * <fresh b>`` does."""

    @pytest.mark.parametrize("shape", [(32, 32), (64, 64), (128, 128), (256, 256), (8, 64, 64)])
    def test_each_plane_as_a_fresh_product(self, shape, rng):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        phase = rng.normal(0, 3.0, shape)
        out = times_temporary(a, np.exp(1j * phase))
        for plane, a1, p1 in zip(out.reshape(-1, *shape[-2:]), a.reshape(-1, *shape[-2:]),
                                 phase.reshape(-1, *shape[-2:])):
            np.testing.assert_array_equal(plane, a1 * np.exp(1j * p1))

    @pytest.mark.parametrize("n", [64, 128])
    def test_the_order_matters_in_the_last_bit(self, n, rng):
        # otherwise the first test could not tell the two orders apart
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = np.exp(1j * rng.normal(0, 3.0, (n, n)))
        assert not np.array_equal(a * b, b * a)

    def test_writes_into_out(self, rng):
        a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        b = np.exp(1j * rng.normal(0, 3.0, (64, 64)))
        expected = a * b
        assert times_temporary(a, b, out=b) is b
        np.testing.assert_array_equal(b, expected)


class TestIntensity:
    def test_zero_field(self, grid16):
        field = ComplexField(grid16, np.zeros((16, 16), complex))
        assert np.all(intensity(field) == 0)

    def test_unit_power_sums_to_inverse_pixel_area(self, grid64):
        beam = make_vortex_beam(grid64, -3, 3.5e-3)
        assert intensity(beam).sum() == pytest.approx(1.0 / grid64.dx**2, rel=1e-12)


class TestNormalizeImage:
    def test_linear_rescale(self):
        out = normalize_image(np.array([[0.0, 2.0], [4.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.5], [1.0, 0.0]])

    def test_already_normalized_unchanged(self, rng):
        img = rng.uniform(0, 1, (16, 16))
        img[0, 0], img[1, 1] = 0.0, 1.0
        np.testing.assert_array_equal(normalize_image(img), img)

    def test_constant_image_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize_image(np.full((8, 8), 3.3))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_output_range_property(self, seed):
        img = np.random.default_rng(seed).normal(0, 5, (8, 8))
        if img.max() == img.min():
            return
        out = normalize_image(img)
        assert out.min() == 0.0
        assert out.max() == 1.0
