import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexao import (
    ComplexField,
    DomainError,
    GridMismatchError,
    GridSpec,
    intensity,
    layer_transmit,
    make_kernel,
    make_vortex_beam,
    mode_purity,
    oam_decompose,
    propagate,
    propagate_adjoint,
    rayleigh_sommerfeld,
)
from vortexao.propagation import hop


def random_field(grid, rng):
    v = rng.normal(size=(grid.n, grid.n)) + 1j * rng.normal(size=(grid.n, grid.n))
    return ComplexField(grid, v)


class TestMakeKernel:
    def test_zero_distance_identity(self, grid32):
        k = make_kernel(grid32, 0.0)
        np.testing.assert_allclose(k.h, np.ones((32, 32)), atol=1e-15)

    def test_unit_modulus(self, grid32):
        k = make_kernel(grid32, 0.13)
        np.testing.assert_allclose(np.abs(k.h), 1.0, atol=1e-12)

    def test_negation_conjugates(self, grid32):
        kp = make_kernel(grid32, 0.2)
        km = make_kernel(grid32, -0.2)
        np.testing.assert_allclose(km.h, np.conj(kp.h), atol=1e-12)

    def test_inverse_pair_product(self, grid32):
        kp = make_kernel(grid32, 0.2)
        km = make_kernel(grid32, -0.2)
        np.testing.assert_allclose(kp.h * km.h, 1.0, atol=1e-12)

    def test_semigroup_product(self, grid32):
        # sub-millimeter hops keep the k*d piston below the float64 floor
        h12 = make_kernel(grid32, 2e-4).h * make_kernel(grid32, 3e-4).h
        h_sum = make_kernel(grid32, 5e-4).h
        assert np.abs(h12 - h_sum).max() < 1e-12

    def test_semigroup_product_centimeter_scale(self, grid32):
        h12 = make_kernel(grid32, 0.004).h * make_kernel(grid32, 0.006).h
        h_sum = make_kernel(grid32, 0.01).h
        assert np.abs(h12 - h_sum).max() < 1e-10


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("distance", [1e305, -1e305, float("inf"), float("nan")])
    def test_overflowing_phase_rejected(self, grid32, distance):
        # k d overflows to inf or is not a number, and exp of either is NaN;
        # the phase is checked before exp, and building it warns about nothing
        with pytest.raises(DomainError, match="overflows"):
            make_kernel(grid32, distance)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "wavelength, distance",
        [(1e-310, 0.1), (1e-310, 0.0), (1e300, 1e10)],
        ids=["k-overflows", "k-overflows-at-zero-distance", "chirp-overflows"],
    )
    def test_overflowing_wavelength_rejected(self, wavelength, distance):
        with pytest.raises(DomainError, match="overflows"):
            make_kernel(GridSpec(16, 0.01 / 16, wavelength), distance)

    def test_largest_finite_phase_accepted(self):
        # a huge wavelength with a short hop keeps every phase finite
        k = make_kernel(GridSpec(16, 0.01 / 16, 1e300), 0.1)
        assert np.all(np.isfinite(k.h))


class TestPropagate:
    def test_power_conserved(self, grid64, rng):
        u = random_field(grid64, rng)
        out = propagate(u, make_kernel(grid64, 0.1))
        assert abs(out.power - u.power) < 1e-12 * u.power

    def test_round_trip(self, grid64, rng):
        u = random_field(grid64, rng)
        fwd = propagate(u, make_kernel(grid64, 0.3))
        back = propagate(fwd, make_kernel(grid64, -0.3))
        assert np.abs(back.values - u.values).max() < 1e-12 * np.abs(u.values).max()

    def test_linearity(self, grid32, rng):
        u1, u2 = random_field(grid32, rng), random_field(grid32, rng)
        k = make_kernel(grid32, 0.1)
        a, b = 0.7 - 0.2j, -1.1 + 0.5j
        combined = propagate(ComplexField(grid32, a * u1.values + b * u2.values), k)
        separate = a * propagate(u1, k).values + b * propagate(u2, k).values
        assert np.abs(combined.values - separate).max() < 1e-12

    def test_semigroup_in_field_space(self, grid32, rng):
        u = random_field(grid32, rng)
        two_hops = propagate(propagate(u, make_kernel(grid32, 0.004)), make_kernel(grid32, 0.008))
        one_hop = propagate(u, make_kernel(grid32, 0.012))
        assert np.abs(two_hops.values - one_hop.values).max() < 1e-10

    def test_gaussian_spreads_to_analytic_width(self):
        # over one Rayleigh range the waist grows by sqrt(2)
        grid = GridSpec(256, 0.04 / 256, 633e-9)
        w0 = 1.25e-3
        zr = np.pi * w0**2 / grid.wavelength
        beam = make_vortex_beam(grid, 0, w0)
        out = propagate(beam, make_kernel(grid, zr))
        img = intensity(out)
        x, y = grid.mesh()
        w_meas = np.sqrt(2 * (img * (x**2 + y**2)).sum() / img.sum())
        assert w_meas == pytest.approx(w0 * np.sqrt(2), rel=0.01)

    def test_vortex_mode_purity_preserved(self):
        grid = GridSpec(256, 0.01 / 256, 633e-9)
        beam = make_vortex_beam(grid, -3, 1e-3)
        out = propagate(beam, make_kernel(grid, 0.05))
        assert mode_purity(oam_decompose(out), -3) == pytest.approx(1.0, abs=1e-6)

    def test_grid_mismatch(self, grid64, grid32, rng):
        with pytest.raises(GridMismatchError):
            propagate(random_field(grid64, rng), make_kernel(grid32, 0.1))

    def test_adjoint_identity(self, grid32, rng):
        # <P u, v> == <u, P* v>, the correctness anchor for backpropagation
        k = make_kernel(grid32, 0.17)
        for _ in range(5):
            u, v = random_field(grid32, rng), random_field(grid32, rng)
            lhs = np.vdot(propagate(u, k).values, v.values)
            rhs = np.vdot(u.values, propagate_adjoint(v, k).values)
            assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_wrappers_apply_the_array_hop(self, grid32, rng):
        u = random_field(grid32, rng)
        k = make_kernel(grid32, 0.17)
        np.testing.assert_array_equal(propagate(u, k).values, hop(u.values, k.h))
        np.testing.assert_array_equal(propagate_adjoint(u, k).values, hop(u.values, k.h_adjoint))

    def test_adjoint_grid_mismatch(self, grid64, grid32, rng):
        with pytest.raises(GridMismatchError):
            propagate_adjoint(random_field(grid64, rng), make_kernel(grid32, 0.1))

    def test_adjoint_kernel_is_conjugate(self, grid32):
        k = make_kernel(grid32, 0.17)
        np.testing.assert_array_equal(k.h_adjoint, np.conj(k.h))


def fft2_hop(u, h):
    """The hop as two 2-D transforms, the statement :func:`hop` must equal."""
    return np.fft.ifft2(np.fft.fft2(u, norm="ortho") * h, norm="ortho")


class TestHop:
    @pytest.mark.parametrize("n", [16, 64, 128, 256])
    def test_equals_fft2_hop_bit_for_bit(self, n, rng):
        grid = GridSpec(n, 0.01 / n, 633e-9)
        k = make_kernel(grid, 0.37)
        u = random_field(grid, rng).values
        for h in (k.h, k.h_adjoint):
            np.testing.assert_array_equal(hop(u, h), fft2_hop(u, h))

    def test_reads_inputs_and_returns_a_fresh_buffer(self, grid64, rng):
        # read-only inputs: a write into either would raise
        u = random_field(grid64, rng).values
        h = make_kernel(grid64, 0.2).h
        u.flags.writeable = False
        h.flags.writeable = False
        out = hop(u, h)
        assert out.flags.writeable and out.dtype == np.complex128
        assert not np.shares_memory(out, u) and not np.shares_memory(out, h)
        assert not np.shares_memory(out, hop(u, h))

    def test_allocates_only_its_output(self, rng):
        # the fft2 statement peaks at three arrays; the in-place hop at one
        grid = GridSpec(256, 0.01 / 256, 633e-9)
        u = random_field(grid, rng).values
        h = make_kernel(grid, 0.2).h
        hop(u, h)  # the first call may build and cache FFT plans
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = hop(u, h)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 1.5 * out.nbytes


class TestLayerTransmit:
    def test_unity_transmission_identity(self, grid32, rng):
        u = random_field(grid32, rng)
        out = layer_transmit(u, np.ones((32, 32), complex))
        np.testing.assert_array_equal(out.values, u.values)

    def test_phase_only_conserves_power(self, grid32, rng):
        u = random_field(grid32, rng)
        t = np.exp(1j * rng.normal(0, 2, (32, 32)))
        out = layer_transmit(u, t)
        assert abs(out.power - u.power) < 1e-12 * u.power

    def test_shape_mismatch(self, grid32, rng):
        with pytest.raises(GridMismatchError):
            layer_transmit(random_field(grid32, rng), np.ones((16, 16)))


class TestRayleighSommerfeldCrossCheck:
    """Transfer-function propagation against the direct wavelet summation.

    The source is a grid-representable point source (a two-pixel-sigma
    Gaussian spot): a single-pixel impulse carries energy beyond the grid
    band limit, which the two methods represent differently by construction.
    Distances are paraxial and large enough that the spherical wavelets are
    resolved by the grid over the source extent.
    """

    GRID = GridSpec(32, 1e-4, 633e-9)

    @classmethod
    def point_source(cls, sigma_px=2.0):
        x, y = cls.GRID.mesh()
        s = sigma_px * cls.GRID.dx
        return ComplexField(cls.GRID, np.exp(-(x**2 + y**2) / (2 * s**2)).astype(complex))

    @pytest.mark.parametrize("distance", [0.2, 0.3, 0.4])
    def test_center_region_agreement(self, distance):
        src = self.point_source()
        direct = rayleigh_sommerfeld(src, distance)
        fourier = propagate(src, make_kernel(self.GRID, distance))
        c = self.GRID.n // 2
        win = slice(c - 4, c + 4)
        err = np.abs(direct.values[win, win] - fourier.values[win, win]).max()
        assert err < 0.01 * np.abs(direct.values[win, win]).max()

    def test_layer_then_propagate_composition(self):
        # masked source diffracted one hop, oracle vs production path;
        # the mask is smooth (tilt plus defocus) so it stays in band
        src = self.point_source(sigma_px=3.0)
        x, y = self.GRID.mesh()
        side = self.GRID.side
        t = np.exp(1j * (2.0 * x / side + 1.5 * y / side + 40 * (x**2 + y**2) / side**2))
        masked = layer_transmit(src, t)
        direct = rayleigh_sommerfeld(masked, 0.3)
        fourier = propagate(masked, make_kernel(self.GRID, 0.3))
        c = self.GRID.n // 2
        win = slice(c - 4, c + 4)
        err = np.abs(direct.values[win, win] - fourier.values[win, win]).max()
        assert err < 0.01 * np.abs(direct.values[win, win]).max()

    def test_requires_positive_distance(self):
        with pytest.raises(DomainError):
            rayleigh_sommerfeld(self.point_source(), -0.1)


@given(st.floats(min_value=-0.5, max_value=0.5), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_propagation_unitary_property(distance, seed):
    grid = GridSpec(16, 0.01 / 16, 633e-9)
    rng = np.random.default_rng(seed)
    u = ComplexField(grid, rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    out = propagate(u, make_kernel(grid, distance))
    assert abs(out.power - u.power) <= 1e-12 * max(u.power, 1.0)
