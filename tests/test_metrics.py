import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexao import (
    ComplexField,
    DegenerateInputError,
    DomainError,
    GridSpec,
    ReportRow,
    make_vortex_beam,
    mode_purity,
    oam_decompose,
    psnr,
    write_report,
)
from vortexao.dataset import desk_config, paper_config, synthesize_fields
from vortexao.images import bilinear_sample
from vortexao.metrics import REPORT_COLUMNS, OamSpectrum, _polar_plan
from vortexao.pipeline import compensate, conjugate_screen

MODE_RANGES = [(-10, 10), (-17, 17), (-3, 5)]


@pytest.fixture(scope="module")
def paper_grid():
    return GridSpec(256, 0.01 / 256, 633e-9)


class TestOamDecompose:
    def test_pure_vortex_is_a_spike(self, paper_grid):
        spec = oam_decompose(make_vortex_beam(paper_grid, -3, 3.5e-3))
        assert mode_purity(spec, -3) == pytest.approx(1.0, abs=1e-6)
        others = spec.weights.sum() - spec.weight(-3)
        assert others < 1e-6

    def test_equal_superposition(self, paper_grid):
        b1 = make_vortex_beam(paper_grid, 1, 3.5e-3)
        b2 = make_vortex_beam(paper_grid, -1, 3.5e-3)
        sup = ComplexField(paper_grid, (b1.values + b2.values) / np.sqrt(2))
        spec = oam_decompose(sup, (-5, 5))
        assert spec.weight(1) == pytest.approx(0.5, abs=1e-3)
        assert spec.weight(-1) == pytest.approx(0.5, abs=1e-3)

    def test_weights_normalized(self, paper_grid):
        spec = oam_decompose(make_vortex_beam(paper_grid, -3, 3.5e-3))
        assert spec.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(spec.weights >= 0)

    def test_global_phase_invariance(self, grid64):
        beam = make_vortex_beam(grid64, -3, 3.5e-3)
        shifted = ComplexField(grid64, beam.values * np.exp(1j * 1.2345))
        a = oam_decompose(beam)
        b = oam_decompose(shifted)
        assert np.abs(a.weights - b.weights).max() < 1e-10

    def test_rotation_equivariance(self, grid64):
        # a quarter-turn rotation of the sampled field leaves the spectrum alone
        beam = make_vortex_beam(grid64, -3, 3.5e-3)
        rotated = ComplexField(grid64, np.rot90(beam.values).copy())
        a = oam_decompose(beam)
        b = oam_decompose(rotated)
        assert np.abs(a.weights - b.weights).max() < 1e-3

    def test_multimode_reconstruction(self, paper_grid):
        # synthesized 4-mode field: weights recover synthesis coefficients
        coeffs = {-3: 0.5, -1: 0.3, 2: 0.15, 4: 0.05}
        total = np.zeros((paper_grid.n, paper_grid.n), complex)
        for ell, w in coeffs.items():
            total += np.sqrt(w) * make_vortex_beam(paper_grid, ell, 2e-3).values
        spec = oam_decompose(ComplexField(paper_grid, total), (-8, 8))
        for ell, w in coeffs.items():
            assert spec.weight(ell) == pytest.approx(w, abs=1e-3)

    def test_zero_field_rejected(self, grid64):
        with pytest.raises(DegenerateInputError):
            oam_decompose(ComplexField(grid64, np.zeros((64, 64), complex)))

    def test_mode_outside_range(self, grid64):
        spec = oam_decompose(make_vortex_beam(grid64, -3, 3.5e-3), (-5, 5))
        with pytest.raises(DomainError):
            mode_purity(spec, 7)


def reference_weights(field, ell_range):
    """oam_decompose's weights as first written: the geometry rebuilt per call."""
    ell_min, ell_max = ell_range
    grid = field.grid
    n_r = grid.n // 2
    n_theta = max(16, 4 * max(abs(ell_min), abs(ell_max)))
    radius = grid.side / 2
    r = (np.arange(n_r) + 0.5) * (radius / n_r)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    x = r[:, None] * np.cos(theta)[None, :]
    y = r[:, None] * np.sin(theta)[None, :]
    cols = x / grid.dx + grid.n / 2 - 0.5
    rows = y / grid.dx + grid.n / 2 - 0.5
    u_polar = bilinear_sample(field.values.real, rows, cols) + 1j * bilinear_sample(
        field.values.imag, rows, cols
    )
    basis = np.exp(-1j * np.outer(theta, np.arange(ell_min, ell_max + 1)))
    coeff = (u_polar @ basis) / n_theta
    powers = (r[:, None] * np.abs(coeff) ** 2).sum(axis=0)
    return powers / powers.sum()


def sample_fields(config, sample_id):
    """The beam, the fields at the screen and at the receiver, and the compensated field."""
    screen, at_screen, receiver = synthesize_fields(config, sample_id)
    beam = make_vortex_beam(config.grid, config.ell, config.waist)
    return [beam, at_screen, receiver, compensate(receiver, conjugate_screen(screen))]


class TestPolarPlan:
    @pytest.mark.parametrize(
        "config,ids",
        [(desk_config(41), [3, 460, 1350]), (paper_config(41), [5, 9001])],
        ids=["desk", "paper"],
    )
    def test_equals_reference_bit_for_bit(self, config, ids):
        for sample_id in ids:
            for field in sample_fields(config, sample_id):
                for ell_range in MODE_RANGES:
                    np.testing.assert_array_equal(
                        oam_decompose(field, ell_range).weights,
                        reference_weights(field, ell_range),
                    )

    @pytest.mark.parametrize(
        "other", [GridSpec(64, 0.013 / 64, 633e-9), GridSpec(128, 0.01 / 64, 633e-9)]
    )
    def test_grids_differing_in_dx_or_n_get_their_own_plan(self, grid64, other, rng):
        fields = []
        for grid in (grid64, other, grid64):
            noise = rng.normal(size=(2, grid.n, grid.n)) * 0.05
            beam = make_vortex_beam(grid, 2, grid.side / 5).values
            fields.append(ComplexField(grid, beam * (1 + noise[0] + 1j * noise[1])))
        for field in fields:
            np.testing.assert_array_equal(
                oam_decompose(field).weights, reference_weights(field, (-10, 10))
            )
        plan_a = _polar_plan(grid64, -10, 10)
        plan_b = _polar_plan(other, -10, 10)
        assert plan_a is not plan_b
        for grid, plan in ((grid64, plan_a), (other, plan_b)):
            radius = plan[3][:, 0]
            assert radius.shape == (grid.n // 2,)
            np.testing.assert_allclose(radius[-1], grid.side / 2 * (1 - 0.5 / radius.size))

    def test_plan_arrays_are_read_only(self, grid64):
        for array in _polar_plan(grid64, -10, 10):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0

    def test_cache_is_bounded_and_reused(self, grid64, rng):
        maxsize = _polar_plan.cache_info().maxsize
        assert maxsize is not None
        beam = make_vortex_beam(grid64, 1, 2e-3)
        oam_decompose(beam, (-7, 7))
        size = _polar_plan.cache_info().currsize
        for _ in range(20):
            oam_decompose(ComplexField(grid64, beam.values * rng.normal()), (-7, 7))
        assert _polar_plan.cache_info().currsize == size
        for span in range(1, maxsize + 5):
            oam_decompose(beam, (-span, span))
        assert _polar_plan.cache_info().currsize == maxsize


class TestOamSpectrum:
    def test_length_validation(self):
        with pytest.raises(DomainError):
            OamSpectrum(-2, 2, np.ones(3) / 3)

    def test_weight_lookup(self):
        spec = OamSpectrum(-1, 1, np.array([0.2, 0.5, 0.3]))
        assert spec.weight(0) == 0.5
        assert list(spec.ells) == [-1, 0, 1]


class TestPsnr:
    def test_identical_images_infinite(self, rng):
        img = rng.uniform(0, 1, (16, 16))
        assert psnr(img, img.copy()) == math.inf

    def test_uniform_offset_closed_form(self):
        gt = np.full((32, 32), 0.4)
        assert psnr(gt + 0.1, gt) == pytest.approx(20.0, abs=1e-9)

    def test_strictly_decreasing_in_mse(self, rng):
        gt = rng.uniform(0, 1, (16, 16))
        noise = rng.normal(0, 1, (16, 16))
        values = [psnr(np.clip(gt + s * noise, 0, 1), gt) for s in (0.01, 0.03, 0.1)]
        assert values[0] > values[1] > values[2]

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            psnr(np.zeros((4, 4)), np.zeros((8, 8)))

    @given(st.floats(min_value=1e-4, max_value=0.5))
    @settings(max_examples=30, deadline=None)
    def test_closed_form_property(self, err):
        gt = np.zeros((8, 8))
        assert psnr(gt + err, gt) == pytest.approx(-20 * math.log10(err), rel=1e-9)


class TestReport:
    def test_csv_schema(self, tmp_path):
        rows = [
            ReportRow(0, 3, 0.1, 0.8, 21.5, 50),
            ReportRow(1, 3, 0.2, 0.9, 25.0, 50),
        ]
        path = tmp_path / "report.csv"
        write_report(rows, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(REPORT_COLUMNS)
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "3"
        assert float(first[2]) == pytest.approx(0.1)
        assert len(lines) == 3
