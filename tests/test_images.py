import gc
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexao import (
    DomainError,
    GridSpec,
    PgmParseError,
    export_pgm,
    import_pgm,
    intensity,
    make_vortex_beam,
    normalize_image,
    resize_bilinear,
)
from vortexao.images import bilinear_sample, parse_pgm, pgm_bytes, quantize_image


class TestPgmRoundTrip:
    def test_quantization_bound(self, tmp_path, rng):
        img = rng.uniform(0, 1, (32, 32))
        path = tmp_path / "a.pgm"
        export_pgm(img, path)
        back = import_pgm(path)
        assert np.abs(back - img).max() <= 1.0 / 65535

    def test_all_zero_image(self, tmp_path):
        path = tmp_path / "z.pgm"
        export_pgm(np.zeros((16, 16)), path)
        back = import_pgm(path)
        assert np.all(back == 0)

    def test_file_size_is_header_plus_payload(self, tmp_path):
        grid = GridSpec(256, 0.01 / 256, 633e-9)
        img = normalize_image(intensity(make_vortex_beam(grid, -3, 3.5e-3)))
        path = tmp_path / "doughnut.pgm"
        export_pgm(img, path)
        header = b"P5\n256 256\n65535\n"
        assert path.stat().st_size == len(header) + 2 * 256 * 256

    def test_rejects_out_of_range(self, tmp_path):
        with pytest.raises(DomainError):
            export_pgm(np.full((8, 8), 1.5), tmp_path / "bad.pgm")

    def test_sample_order_big_endian(self, tmp_path):
        img = np.zeros((8, 8))
        img[0, 0] = 1.0
        path = tmp_path / "e.pgm"
        export_pgm(img, path)
        raw = path.read_bytes()
        payload = raw[len(b"P5\n8 8\n65535\n") :]
        assert payload[:2] == b"\xff\xff"  # 65535 big-endian

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, seed):
        import tempfile

        img = np.random.default_rng(seed).uniform(0, 1, (8, 8))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/p.pgm"
            export_pgm(img, path)
            assert np.abs(import_pgm(path) - img).max() <= 1.0 / 65535


class TestPgmParerrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n4 4\n65535\n" + b"\x00" * 96)
        with pytest.raises(PgmParseError) as err:
            import_pgm(path)
        assert "byte" in str(err.value)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n8 8\n65535\n" + b"\x00" * 10)
        with pytest.raises(PgmParseError) as err:
            import_pgm(path)
        assert "truncated" in str(err.value)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "8bit.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 16)
        with pytest.raises(PgmParseError):
            import_pgm(path)

    @pytest.mark.parametrize("size", [b"0 4", b"4 0", b"-4 -4"])
    def test_non_positive_size(self, size):
        with pytest.raises(PgmParseError, match="size"):
            parse_pgm(b"P5\n" + size + b"\n65535\n" + b"\x00" * 32, "p.pgm")

    def test_comment_lines_allowed(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n4 4\n65535\n" + b"\x00" * 32)
        img = import_pgm(path)
        assert img.shape == (4, 4)


HEADER_TOKENS = [b"P5", b"P2", b"P6", b"65535", b"255", b"0", b"-3", b"4", b"+4", b"1_0",
                 b"nan", b"1e3", b"0x10", b"9" * 25, b"9" * 5000, b"\xff\xfe", b"#"]
HEADER_GAPS = [b" ", b"\n", b"\t\r", b"#c\n", b"#", b""]


@st.composite
def corrupt_pgm(draw):
    """A valid 16-bit PGM truncated, with one bit flipped, or with its header replaced."""
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    levels = np.array(draw(st.lists(st.integers(0, 65535), min_size=h * w, max_size=h * w)),
                      dtype=np.uint16).reshape(h, w)
    data = pgm_bytes(levels)
    how = draw(st.sampled_from(["truncate", "flip", "header"]))
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if how == "flip":
        bit = draw(st.integers(0, 8 * len(data) - 1))
        out = bytearray(data)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    token = st.one_of(st.sampled_from(HEADER_TOKENS), st.integers(-9, 99).map(b"%d".__mod__),
                      st.binary(max_size=4))
    parts = draw(st.lists(st.tuples(token, st.sampled_from(HEADER_GAPS)), max_size=6))
    header = b"".join(t + gap for t, gap in parts)
    return header + data[len(f"P5\n{w} {h}\n65535\n") :]


class TestCorruptPgm:
    @settings(max_examples=300, deadline=None)
    @given(corrupt_pgm())
    def test_parses_to_levels_or_raises_parse_error(self, data):
        try:
            levels = parse_pgm(data, "p.pgm")
        except PgmParseError:
            return
        assert levels.dtype == np.uint16
        assert levels.ndim == 2 and min(levels.shape) >= 1
        assert 2 * levels.size < len(data)


class TestLevels:
    def test_export_is_quantize_then_bytes(self, tmp_path, rng):
        img = rng.uniform(0, 1, (5, 7))
        export_pgm(img, tmp_path / "a.pgm")
        levels = quantize_image(img)
        assert levels.dtype == np.uint16
        np.testing.assert_array_equal(levels, np.rint(img * 65535))
        assert (tmp_path / "a.pgm").read_bytes() == pgm_bytes(levels)

    def test_parse_returns_the_levels(self, rng):
        levels = rng.integers(0, 65536, (6, 3)).astype(np.uint16)
        back = parse_pgm(pgm_bytes(levels), "p.pgm")
        assert back.dtype == np.uint16
        np.testing.assert_array_equal(back, levels)

    def test_import_decodes_every_level_exactly(self, tmp_path):
        levels = np.arange(65536, dtype=np.uint16).reshape(256, 256)
        (tmp_path / "all.pgm").write_bytes(pgm_bytes(levels))
        img = import_pgm(tmp_path / "all.pgm")
        assert img.tobytes() == (levels.astype(np.float64) / 65535).tobytes()

    @pytest.mark.parametrize("bad", [-1e-9, 1.5, np.nan])
    def test_quantize_rejects_values_outside_unit_range(self, bad):
        img = np.full((4, 4), 0.5)
        img[2, 1] = bad
        with pytest.raises(DomainError):
            quantize_image(img)

    def test_bytes_reject_non_level_arrays(self):
        with pytest.raises(DomainError):
            pgm_bytes(np.zeros((4, 4)))

    def test_parse_keeps_no_reference_to_the_bytes(self):
        data = pgm_bytes(np.zeros((4, 4), dtype=np.uint16))
        gc.disable()  # a reference cycle would hold ``data`` until a collection
        try:
            before = sys.getrefcount(data)
            parse_pgm(data, "p.pgm")
            assert sys.getrefcount(data) == before
        finally:
            gc.enable()


class TestResizeBilinear:
    def test_same_size_identity(self, rng):
        img = rng.uniform(0, 1, (32, 32))
        np.testing.assert_array_equal(resize_bilinear(img, 32), img)

    def test_constant_stays_constant(self):
        img = np.full((16, 16), 0.37)
        np.testing.assert_allclose(resize_bilinear(img, 64), 0.37, atol=1e-12)

    def test_corners_preserved(self, rng):
        img = rng.uniform(0, 1, (16, 16))
        out = resize_bilinear(img, 48)
        assert out[0, 0] == pytest.approx(img[0, 0])
        assert out[-1, -1] == pytest.approx(img[-1, -1])

    def test_down_up_smooth_image(self):
        grid = GridSpec(256, 0.01 / 256, 633e-9)
        img = normalize_image(intensity(make_vortex_beam(grid, -3, 3.5e-3)))
        down = resize_bilinear(img, 64)
        back = resize_bilinear(down, 256)
        rel_l2 = np.linalg.norm(back - img) / np.linalg.norm(img)
        assert rel_l2 < 0.05

    def test_minimum_size(self):
        with pytest.raises(DomainError):
            resize_bilinear(np.zeros((16, 16)), 4)


def reference_bilinear_sample(values, rows, cols):
    """bilinear_sample as first written, kept to pin its results bit for bit."""
    n_r, n_c = values.shape
    rows = np.clip(rows, 0.0, n_r - 1.0)
    cols = np.clip(cols, 0.0, n_c - 1.0)
    r0 = np.floor(rows).astype(np.intp)
    c0 = np.floor(cols).astype(np.intp)
    r1 = np.minimum(r0 + 1, n_r - 1)
    c1 = np.minimum(c0 + 1, n_c - 1)
    fr = rows - r0
    fc = cols - c0
    return (
        values[r0, c0] * (1 - fr) * (1 - fc)
        + values[r1, c0] * fr * (1 - fc)
        + values[r0, c1] * (1 - fr) * fc
        + values[r1, c1] * fr * fc
    )


class TestBilinearSample:
    @pytest.mark.parametrize("shape", [(16, 16), (9, 23)])
    def test_equals_reference_bit_for_bit(self, rng, shape):
        values = rng.normal(size=shape)
        # positions run past every border, so some are clamped
        rows = rng.uniform(-3, shape[0] + 2, (40, 7))
        cols = rng.uniform(-3, shape[1] + 2, (40, 7))
        out = bilinear_sample(values, rows, cols)
        assert out.shape == (40, 7)
        np.testing.assert_array_equal(out, reference_bilinear_sample(values, rows, cols))

    def test_exact_at_pixels_and_clamped_corners(self, rng):
        values = rng.normal(size=(8, 8))
        rows, cols = np.meshgrid(np.arange(8.0), np.arange(8.0), indexing="ij")
        np.testing.assert_array_equal(bilinear_sample(values, rows, cols), values)
        corners = bilinear_sample(values, np.array([-5.0, 50.0]), np.array([-5.0, 50.0]))
        np.testing.assert_array_equal(corners, [values[0, 0], values[-1, -1]])
