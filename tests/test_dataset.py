import dataclasses
import hashlib
import os

import numpy as np
import pytest

from vortexao import (
    ConfigError,
    CorruptSampleError,
    DatasetConfig,
    GridSpec,
    PgmParseError,
    ScreenRng,
    TurbulenceParams,
    apply_phase,
    decode_screen,
    encode_screen,
    generate_dataset,
    load_manifest,
    load_split,
    make_kernel,
    make_screen,
    make_vortex_beam,
    normalize_image,
    propagate,
    screen_variance,
    synthesize_fields,
    synthesize_sample,
)
from vortexao import dataset, turbulence
from vortexao.dataset import (
    OBSERVATIONS,
    encoding_range,
    level_of_id,
    observed_intensity,
    sample_seed,
)


@pytest.fixture(scope="module")
def tiny_config():
    grid = GridSpec(16, 0.01 / 16, 633e-9)
    levels = tuple(
        TurbulenceParams.from_cn2(c, eta=10.37e-3, epsilon=1e-10) for c in (1e-14, 1e-12)
    )
    return DatasetConfig(
        grid=grid,
        levels=levels,
        count_per_level=6,
        train_per_level=4,
        waist=2e-3,
        base_seed=11,
    )


@pytest.fixture(scope="module")
def tiny_dataset(tiny_config, tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    manifest = generate_dataset(tiny_config, root)
    return root, manifest


class TestEncoding:
    def test_roundtrip_exact_inside_range(self, rng):
        phase = rng.normal(0, 1.0, (16, 16))
        lo, hi = -4.0, 4.0
        back = decode_screen(encode_screen(phase, lo, hi), lo, hi)
        assert np.abs(back - phase).max() < 1e-12

    def test_clipping_outside_range(self):
        phase = np.array([[-10.0, 10.0]])
        img = encode_screen(phase, -4.0, 4.0)
        np.testing.assert_array_equal(img, [[0.0, 1.0]])

    def test_degenerate_range(self):
        img = encode_screen(np.zeros((4, 4)), 0.0, 0.0)
        assert np.all(img == 0.5)
        back = decode_screen(img, 0.0, 0.0)
        assert np.all(back == 0.0)

    def test_quantized_roundtrip_within_quantum(self, tiny_config):
        # screens stay inside +-4 sigma almost surely; quantized encoding
        # recovers the phase to one gray level over the in-range pixels
        level = tiny_config.levels[1]
        lo, hi = encoding_range(level, tiny_config.grid)
        screen = make_screen(level, tiny_config.grid, ScreenRng(3))
        img = encode_screen(screen.phase, lo, hi)
        quantized = np.rint(img * 65535) / 65535
        back = decode_screen(quantized, lo, hi)
        inside = (screen.phase > lo) & (screen.phase < hi)
        assert inside.mean() > 0.999
        assert np.abs((back - screen.phase)[inside]).max() <= (hi - lo) / 65535

    def test_encoding_range_scales_with_sigma(self, tiny_config):
        weak, strong = tiny_config.levels
        lw, hw = encoding_range(weak, tiny_config.grid)
        ls, hs = encoding_range(strong, tiny_config.grid)
        assert hs > hw
        sigma = np.sqrt(screen_variance(strong, tiny_config.grid))
        assert hs == pytest.approx(4 * sigma)


class TestSynthesis:
    def test_deterministic_sample(self, tiny_config):
        a = synthesize_sample(tiny_config, 3)
        b = synthesize_sample(tiny_config, 3)
        np.testing.assert_array_equal(a.distorted_img, b.distorted_img)
        np.testing.assert_array_equal(a.gt_screen_img, b.gt_screen_img)

    def test_intensity_normalization_contract(self, tiny_config):
        s = synthesize_sample(tiny_config, 7)
        assert s.distorted_img.min() == 0.0
        assert s.distorted_img.max() == 1.0

    def test_level_assignment(self, tiny_config):
        assert synthesize_sample(tiny_config, 2).level_index == 0
        assert synthesize_sample(tiny_config, 9).level_index == 1

    def test_seed_derivation_stable(self):
        assert sample_seed(11, 3) == sample_seed(11, 3)
        assert sample_seed(11, 3) != sample_seed(11, 4)
        assert sample_seed(11, 3) != sample_seed(12, 3)

    def test_fields_regenerate_from_id(self, tiny_config):
        screen_a, _, receiver_a = synthesize_fields(tiny_config, 5)
        screen_b, _, receiver_b = synthesize_fields(tiny_config, 5)
        np.testing.assert_array_equal(screen_a.phase, screen_b.phase)
        np.testing.assert_array_equal(receiver_a.values, receiver_b.values)


class TestGenerateAndLoad:
    def test_manifest_roundtrip(self, tiny_dataset, tiny_config):
        root, manifest = tiny_dataset
        loaded = load_manifest(root)
        assert loaded.config == tiny_config
        assert loaded.encodings == manifest.encodings
        assert loaded.hashes == manifest.hashes

    def test_regeneration_bit_identical(self, tiny_config, tiny_dataset, tmp_path):
        root, manifest = tiny_dataset
        again = generate_dataset(tiny_config, tmp_path)
        assert (tmp_path / "manifest.txt").read_bytes() == (root / "manifest.txt").read_bytes()
        for rel in manifest.hashes:
            assert (tmp_path / rel).read_bytes() == (root / rel).read_bytes()

    def test_split_disjoint_and_covering(self, tiny_dataset):
        root, manifest = tiny_dataset
        train = load_split(manifest, "train", root)
        test = load_split(manifest, "test", root)
        train_ids = {s.id for s in train}
        test_ids = {s.id for s in test}
        assert not (train_ids & test_ids)
        assert train_ids | test_ids == set(range(manifest.total))
        assert len(train) == 8 and len(test) == 4

    def test_split_ordering_by_id(self, tiny_dataset):
        root, manifest = tiny_dataset
        ids = [s.id for s in load_split(manifest, "train", root)]
        assert ids == sorted(ids)

    def test_level_filter(self, tiny_dataset):
        root, manifest = tiny_dataset
        only = load_split(manifest, "test", root, level_index=1)
        assert all(s.level_index == 1 for s in only)
        assert len(only) == 2

    def test_loaded_matches_synthesized_within_quantum(self, tiny_dataset, tiny_config):
        root, manifest = tiny_dataset
        sample = load_split(manifest, "test", root)[0]
        fresh = synthesize_sample(tiny_config, sample.id)
        assert np.abs(sample.gt_screen_img - fresh.gt_screen_img).max() <= 1.0 / 65535
        assert np.abs(sample.distorted_img - fresh.distorted_img).max() <= 1.0 / 65535

    def test_tamper_detection(self, tiny_config, tmp_path):
        manifest = generate_dataset(tiny_config, tmp_path)
        victim = tmp_path / "test" / "4_x.pgm"
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))
        with pytest.raises(CorruptSampleError):
            load_split(manifest, "test", tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ConfigError):
            load_manifest(tmp_path)


class TestObservationModes:
    def test_free_mode_differs_from_fourier(self, tiny_config):
        import dataclasses

        free_cfg = dataclasses.replace(tiny_config, observation="free")
        a = synthesize_sample(tiny_config, 8)
        b = synthesize_sample(free_cfg, 8)
        assert np.abs(a.distorted_img - b.distorted_img).max() > 0.01
        np.testing.assert_array_equal(a.gt_screen_img, b.gt_screen_img)

    def test_unknown_mode_rejected(self, tiny_config):
        import dataclasses

        with pytest.raises(ConfigError):
            dataclasses.replace(tiny_config, observation="focal")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", ["z_obs", "waist"])
    def test_non_finite_scalars_rejected(self, tiny_config, slot, bad):
        import dataclasses

        with pytest.raises(ConfigError):
            dataclasses.replace(tiny_config, **{slot: bad})

    def test_parallel_generation_matches_serial(self, tiny_config, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        serial.mkdir()
        parallel.mkdir()
        generate_dataset(tiny_config, serial, workers=1)
        generate_dataset(tiny_config, parallel, workers=4)
        assert (serial / "manifest.txt").read_bytes() == (parallel / "manifest.txt").read_bytes()


def _variants(config):
    """Configs that each differ from ``config`` in one synthesis input."""
    g = config.grid
    return {
        "waist": dataclasses.replace(config, waist=1.5e-3),
        "z_obs": dataclasses.replace(config, z_obs=0.3),
        "ell": dataclasses.replace(config, ell=2),
        "dx": dataclasses.replace(config, grid=GridSpec(g.n, 0.012 / g.n, g.wavelength)),
        "levels": dataclasses.replace(
            config, levels=tuple(dataclasses.replace(p, eta=4e-3) for p in config.levels)
        ),
    }


def _from_public_builders(config, sample_id):
    """Screen, fields, image and encoding rebuilt without any cached constant."""
    turbulence._spectral_amplitude.cache_clear()
    params = config.levels[level_of_id(config, sample_id)]
    screen = make_screen(params, config.grid, ScreenRng(sample_seed(config.base_seed, sample_id)))
    at_screen = apply_phase(make_vortex_beam(config.grid, config.ell, config.waist), screen)
    receiver = propagate(at_screen, make_kernel(config.grid, config.z_obs))
    img = normalize_image(observed_intensity(at_screen, receiver, config.observation))
    sigma = np.sqrt(screen_variance(params, config.grid))
    lo, hi = -4.0 * sigma, 4.0 * sigma
    return screen, at_screen, receiver, img, encode_screen(screen.phase, lo, hi), (lo, hi)


class TestSynthesisCaches:
    @pytest.mark.parametrize("observation", OBSERVATIONS)
    @pytest.mark.parametrize("changed", ["waist", "z_obs", "ell", "dx", "levels"])
    def test_matches_public_builders(self, tiny_config, changed, observation):
        base = dataclasses.replace(tiny_config, observation=observation)
        variant = _variants(base)[changed]
        for config in (base, variant, base):  # a cache keyed too coarsely serves the other
            sample = synthesize_sample(config, 9)
            fields = synthesize_fields(config, 9)
            screen, at_screen, receiver, img, gt, encoding = _from_public_builders(config, 9)
            np.testing.assert_array_equal(fields[0].phase, screen.phase)
            np.testing.assert_array_equal(fields[1].values, at_screen.values)
            np.testing.assert_array_equal(fields[2].values, receiver.values)
            np.testing.assert_array_equal(sample.distorted_img, img)
            np.testing.assert_array_equal(sample.gt_screen_img, gt)
            assert sample.encoding == encoding

    def test_variants_change_the_sample(self, tiny_config):
        # otherwise the test above could pass on a cache that ignores the key
        free = dataclasses.replace(tiny_config, observation="free")
        base = synthesize_sample(free, 9)
        for name, config in _variants(free).items():
            img = synthesize_sample(config, 9).distorted_img
            assert not np.array_equal(img, base.distorted_img), name

    def test_cached_arrays_are_read_only(self, tiny_config):
        c = tiny_config
        synthesize_sample(c, 0)
        beam, kernel = dataset._beam_and_kernel(c.grid, c.ell, c.waist, c.z_obs)
        amp = turbulence._spectral_amplitude(c.levels[0], c.grid)
        for arr in (beam.values, kernel.h, kernel.h_adjoint, amp):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_public_builders_return_fresh_arrays(self, tiny_config):
        config = dataclasses.replace(tiny_config, observation="free")
        before = synthesize_sample(config, 9)
        beam = make_vortex_beam(config.grid, config.ell, config.waist)
        kernel = make_kernel(config.grid, config.z_obs)
        beam.values[...] *= 2.0
        kernel.h[:] = 0.0
        kernel.h_adjoint[:] = 0.0
        after = synthesize_sample(config, 9)
        np.testing.assert_array_equal(after.distorted_img, before.distorted_img)
        np.testing.assert_array_equal(after.gt_screen_img, before.gt_screen_img)


class TestLoadReadsOnce:
    def test_each_file_opened_once(self, tiny_dataset, monkeypatch):
        root, manifest = tiny_dataset
        opened = []
        real_open = open

        def counting_open(path, *args, **kwargs):
            opened.append(os.fspath(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(dataset, "open", counting_open, raising=False)
        samples = load_split(manifest, "train", root)
        assert len(opened) == 2 * len(samples)
        assert len(set(opened)) == len(opened)

    def test_parse_error_names_the_path(self, tiny_config, tmp_path):
        manifest = generate_dataset(tiny_config, tmp_path)
        victim = tmp_path / "test" / "4_y.pgm"
        bad = b"P6\n4 4\n65535\n" + b"\x00" * 32
        victim.write_bytes(bad)
        manifest.hashes["test/4_y.pgm"] = hashlib.sha256(bad).hexdigest()
        with pytest.raises(PgmParseError, match="4_y.pgm"):
            load_split(manifest, "test", tmp_path)
