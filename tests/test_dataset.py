import dataclasses
import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from vortexao import (
    ConfigError,
    CorruptSampleError,
    DatasetConfig,
    DiffractiveNetwork,
    GridSpec,
    PgmParseError,
    ScreenRng,
    TurbulenceParams,
    apply_phase,
    decode_screen,
    encode_screen,
    generate_dataset,
    import_pgm,
    load_manifest,
    load_split,
    make_kernel,
    make_screen,
    make_vortex_beam,
    normalize_image,
    paper_config,
    propagate,
    screen_variance,
    synthesize_fields,
    synthesize_sample,
    train,
    training_pairs,
)
from vortexao import dataset, turbulence
from vortexao.dataset import (
    OBSERVATIONS,
    desk_config,
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
            np.testing.assert_array_equal(sample.distorted_img, np.rint(img * 65535) / 65535)
            np.testing.assert_array_equal(sample.gt_screen_img, np.rint(gt * 65535) / 65535)
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

    def test_generate_hashes_the_bytes_it_writes(self, tiny_config, tmp_path, monkeypatch):
        opened = []
        real_open = open

        def counting_open(path, *args, **kwargs):
            opened.append(os.fspath(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(dataset, "open", counting_open, raising=False)
        manifest = generate_dataset(tiny_config, tmp_path)
        assert opened == []
        assert len(manifest.hashes) == 2 * manifest.total
        for rel, digest in manifest.hashes.items():
            assert hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() == digest


def assert_bits_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestLevelStorage:
    """Samples hold their images as the 16-bit levels the PGM files store."""

    def test_held_arrays_are_uint16(self, tiny_dataset, tiny_config):
        root, manifest = tiny_dataset
        n = tiny_config.grid.n
        loaded = load_split(manifest, "train", root)
        for s in loaded + [synthesize_sample(tiny_config, 3)]:
            for levels in (s.distorted_levels, s.gt_screen_levels):
                assert levels.dtype == np.uint16
                assert levels.nbytes == 2 * n * n

    @pytest.mark.parametrize("observation", OBSERVATIONS)
    def test_synthesized_equals_loaded(self, tiny_config, observation, tmp_path):
        config = dataclasses.replace(tiny_config, observation=observation)
        manifest = generate_dataset(config, tmp_path)
        loaded = [s for split in ("train", "test") for s in load_split(manifest, split, tmp_path)]
        assert len(loaded) == manifest.total
        for s in loaded:
            fresh = synthesize_sample(config, s.id)
            assert_bits_equal(s.distorted_levels, fresh.distorted_levels)
            assert_bits_equal(s.gt_screen_levels, fresh.gt_screen_levels)
            assert_bits_equal(s.distorted_img, fresh.distorted_img)
            assert_bits_equal(s.gt_screen_img, fresh.gt_screen_img)

    def test_float_views_equal_import_pgm(self, tiny_dataset):
        root, manifest = tiny_dataset
        for s in load_split(manifest, "test", root):
            assert_bits_equal(s.gt_screen_img, import_pgm(root / "test" / f"{s.id}_y.pgm"))
            assert_bits_equal(s.distorted_img, import_pgm(root / "test" / f"{s.id}_x.pgm"))
            assert_bits_equal(s.gt_screen_img, s.gt_screen_levels.astype(np.float64) / 65535)

    def test_training_pairs_decode_when_indexed(self, tiny_dataset):
        root, manifest = tiny_dataset
        samples = load_split(manifest, "train", root)
        pairs = training_pairs(samples)
        assert len(pairs) == len(samples)
        assert len(pairs[1:3]) == 2
        x, y = pairs[-1]
        assert_bits_equal(x, samples[-1].distorted_levels / 65535)
        assert_bits_equal(y, samples[-1].gt_screen_levels / 65535)
        with pytest.raises(TypeError):
            pairs[0] = (x, y)

    def test_training_on_pairs_equals_training_on_floats(self, tiny_dataset, tiny_config):
        root, manifest = tiny_dataset
        samples = load_split(manifest, "train", root)
        floats = [(s.distorted_levels / 65535, s.gt_screen_levels / 65535) for s in samples]
        runs = []
        for pairs in (training_pairs(samples), floats):
            net = DiffractiveNetwork.build(tiny_config.grid, n_layers=2, init="defocus")
            state, losses = train(net, pairs, epochs=3, batch=3, lr=0.01, shuffle_seed=2)
            runs.append((losses, net))
        (loss_a, net_a), (loss_b, net_b) = runs
        assert loss_a == loss_b
        for la, lb in zip(net_a.layers, net_b.layers):
            assert_bits_equal(la.phase, lb.phase)
            assert_bits_equal(la.log_amplitude, lb.log_amplitude)
        assert_bits_equal(net_a.readout, net_b.readout)

    def test_load_split_holds_two_bytes_per_pixel(self, tmp_path):
        desk = desk_config(base_seed=5)
        config = dataclasses.replace(
            desk, levels=desk.levels[:1], count_per_level=102, train_per_level=100
        )
        manifest = generate_dataset(config, tmp_path)
        tracemalloc.start()
        try:
            samples = load_split(manifest, "train", tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pixels = 2 * len(samples) * config.grid.n**2
        assert len(samples) == 100
        assert peak / pixels <= 2.5  # float64 images would need 8


class TestNoLevels:
    """A dataset needs at least one turbulence level, however it is configured."""

    def test_direct_construction_rejected(self, tiny_config):
        with pytest.raises(ConfigError, match="level"):
            dataclasses.replace(tiny_config, levels=())

    def test_manifest_with_zero_levels_rejected(self, tiny_dataset, tmp_path):
        root, _ = tiny_dataset
        text = (root / "manifest.txt").read_bytes()
        assert text.count(b"\nlevels = 2\n") == 1
        (tmp_path / "manifest.txt").write_bytes(text.replace(b"\nlevels = 2\n", b"\nlevels = 0\n"))
        with pytest.raises(ConfigError, match="level"):
            load_manifest(tmp_path)


class TestLevelsMatchTheGrid:
    """A level's wavenumber must be the grid's, however the config is built."""

    def test_levels_at_another_wavelength_rejected(self, tiny_config):
        green = tuple(
            TurbulenceParams.from_cn2(p.cn2, wavelength=532e-9) for p in tiny_config.levels
        )
        with pytest.raises(ConfigError, match="^level 0: k0 = ") as exc:
            dataclasses.replace(tiny_config, levels=green)
        assert "wavelength 6.33e-07" in str(exc.value)
        mixed = (tiny_config.levels[0], green[1])
        with pytest.raises(ConfigError, match="^level 1: "):
            dataclasses.replace(tiny_config, levels=mixed)

    def test_grid_at_another_wavelength_rejected(self, tiny_config):
        grid = GridSpec(16, 0.01 / 16, 532e-9)
        with pytest.raises(ConfigError, match="^level 0: "):
            dataclasses.replace(tiny_config, grid=grid)

    def test_manifest_with_edited_wavelength_rejected(self, tiny_dataset, tmp_path):
        root, _ = tiny_dataset
        text = (root / "manifest.txt").read_bytes()
        assert text.count(b"\nwavelength = 6.33e-07\n") == 1
        edited = text.replace(b"\nwavelength = 6.33e-07\n", b"\nwavelength = 5.32e-07\n")
        (tmp_path / "manifest.txt").write_bytes(edited)
        with pytest.raises(ConfigError, match="^level 0: k0 = "):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("wavelength", [633e-9, 532e-9, 1.55e-6])
    def test_protocol_levels_take_the_grid_wavelength(self, wavelength):
        grid = GridSpec.from_side(16, 0.01, wavelength)
        config = dataset.protocol_config(grid, 6)
        assert [p.k0 for p in config.levels] == [2 * np.pi / wavelength] * 4
        assert config.train_per_level == 5
        assert [p.cn2 for p in config.levels] == list(turbulence.STANDARD_CN2_LEVELS)
        picked = dataset.protocol_config(grid, 12, level_indices=[3, 1], train_per_level=7)
        assert picked.levels == (config.levels[3], config.levels[1])
        assert (picked.count_per_level, picked.train_per_level) == (12, 7)

    def test_presets_are_the_protocol_on_their_grids(self):
        desk, paper = desk_config(3), paper_config(3)
        desk_waist = dataset.DESK_WAIST
        assert desk == dataset.protocol_config(desk.grid, 600, waist=desk_waist, base_seed=3)
        assert paper == dataset.protocol_config(paper.grid, 12000, base_seed=3)
        assert paper.waist == DatasetConfig.waist
        assert desk.grid == GridSpec(64, 0.01 / 64, 633e-9)
        assert paper.grid == GridSpec(256, 0.01 / 256, 633e-9)
        assert desk.observation == paper.observation == OBSERVATIONS[0]


class TestBadValues:
    """A manifest value that does not parse names the file and the key."""

    @pytest.fixture
    def manifest_text(self, tiny_dataset):
        root, _ = tiny_dataset
        return (root / "manifest.txt").read_bytes()

    @pytest.mark.parametrize(
        "old, new, key",
        [
            (b"grid_n = 16", b"grid_n = abc", "grid_n"),
            (b"count_per_level = 6", b"count_per_level = 6\xe9", "count_per_level"),
            (b"level1.cn2 = ", b"level1.cn2 = x", "level1.cn2"),
        ],
    )
    def test_bad_value_is_config_error(self, manifest_text, tmp_path, old, new, key):
        assert manifest_text.count(old) == 1
        (tmp_path / "manifest.txt").write_bytes(manifest_text.replace(old, new))
        with pytest.raises(ConfigError, match=key) as exc:
            load_manifest(tmp_path)
        assert str(tmp_path / "manifest.txt") in str(exc.value)


CUSTOM_CONFIG = DatasetConfig(
    grid=GridSpec(64, 0.01 / 64, 633e-9),
    levels=tuple(
        TurbulenceParams.from_cn2(c, eta=10.37e-3, epsilon=1e-10) for c in (1e-14, 1e-12)
    ),
    count_per_level=6,
    train_per_level=4,
    ell=12,
    waist=1e-3,
    z_obs=0.2,
    base_seed=5,
    observation="free",
)
TOP_KEYS = [
    "format_version",
    "base_seed",
    "grid_n",
    "grid_dx",
    "wavelength",
    "ell",
    "waist",
    "z_obs",
    "observation",
    "levels",
    "count_per_level",
    "train_per_level",
]
LEVEL_KEYS = ["cn2", "epsilon", "chi_t", "tau", "eta", "z", "k0", "lo", "hi"]
HASHES = {"train/0_x.pgm": "cd" * 32, "test/5_y.pgm": "ab" * 32}
# sha256 of each rendered manifest, as the format has written it since the
# observation key was added
RENDERED_SHA256 = {
    "desk": "a6bf2f27d9085c4b42aef7696b956ed06a03fdc7d8db7d5184a47772ed1d3e6c",
    "paper": "c8a6a40b93db0d5b32db2009cbc5d3d09f7b0a4fa8a0ee5c08d483ea0bf25936",
    "custom": "d9178739288b55613d5c6148a5f995327145b84c7b0e2623c45c3afd59aed2c8",
}


class TestManifestSchema:
    """One key table writes and reads the manifest, in the layout it always had."""

    @pytest.fixture(params=["desk", "paper", "custom"])
    def case(self, request):
        config = {
            "desk": lambda: desk_config(7),
            "paper": lambda: dataclasses.replace(paper_config(41), observation="free"),
            "custom": lambda: CUSTOM_CONFIG,
        }[request.param]()
        encodings = [encoding_range(p, config.grid) for p in config.levels]
        text = dataset._render_manifest(dataset.Manifest(config, encodings, HASHES))
        return request.param, config, encodings, text

    def test_key_sequence(self, case):
        _, config, _, text = case
        keys = [line.split(" = ", 1)[0] for line in text.splitlines()]
        levels = [f"level{i}.{key}" for i in range(len(config.levels)) for key in LEVEL_KEYS]
        assert keys == TOP_KEYS + levels + ["hash/test/5_y.pgm", "hash/train/0_x.pgm"]

    def test_bytes_unchanged(self, case):
        name, _, _, text = case
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == RENDERED_SHA256[name]

    def test_roundtrip(self, case, tmp_path):
        _, config, encodings, text = case
        (tmp_path / "manifest.txt").write_text(text)
        loaded = load_manifest(tmp_path)
        assert loaded.config == config
        assert loaded.encodings == encodings
        assert loaded.hashes == HASHES

    def test_level_keys_are_the_turbulence_fields(self):
        names = [f.name for f in dataclasses.fields(TurbulenceParams)]
        assert list(dataset._LEVEL_KEYS) == names + ["lo", "hi"] == LEVEL_KEYS

    def test_manifest_without_observation_reads_fourier(self, case, tmp_path):
        _, config, encodings, text = case
        lines = [line for line in text.splitlines() if not line.startswith("observation =")]
        (tmp_path / "manifest.txt").write_text("\n".join(lines) + "\n")
        loaded = load_manifest(tmp_path)
        assert loaded.config == dataclasses.replace(config, observation="fourier")
        assert loaded.encodings == encodings

    @pytest.mark.parametrize("key", ["waist", "level1.hi", "levels"])
    def test_missing_key_is_config_error(self, key, tmp_path):
        text = dataset._render_manifest(dataset.Manifest(CUSTOM_CONFIG, [(0, 1)] * 2, HASHES))
        lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
        (tmp_path / "manifest.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=f"missing key '{key}'"):
            load_manifest(tmp_path)


class TestRepeatedManifestKey:
    """A key written twice is an error at its second line, not a silent last-wins."""

    @pytest.mark.parametrize("line", [b"base_seed = 11", b"level0.tau = -1.0", b"base_seed=11"])
    def test_repeated_key_is_config_error(self, tiny_dataset, tmp_path, line):
        root, _ = tiny_dataset
        lines = (root / "manifest.txt").read_bytes().splitlines()
        key = line.split(b"=")[0].strip().decode()
        at = next(i for i, old in enumerate(lines) if old.startswith(key.encode() + b" ="))
        lines.insert(at + 1, line)
        path = tmp_path / "manifest.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ConfigError) as exc:
            load_manifest(tmp_path)
        assert str(exc.value) == f"{path}:{at + 2}: repeated key '{key}'"


class TestUnreadManifestKeys:
    """``load_manifest`` rejects what it does not read, naming the file and the key."""

    @staticmethod
    def write(tmp_path, config, edit):
        encodings = [encoding_range(p, config.grid) for p in config.levels]
        text = dataset._render_manifest(dataset.Manifest(config, encodings, HASHES))
        (tmp_path / "manifest.txt").write_text(edit(text))
        return str(tmp_path / "manifest.txt")

    @pytest.mark.parametrize("version", ["7", "0", "2"])
    def test_other_format_version(self, tmp_path, version):
        path = self.write(tmp_path, CUSTOM_CONFIG, lambda text: text.replace(
            "format_version = 1\n", f"format_version = {version}\n"))
        with pytest.raises(ConfigError) as exc:
            load_manifest(tmp_path)
        assert str(exc.value) == f"{path}: format_version = {version}, expected 1"

    def test_missing_format_version(self, tmp_path):
        self.write(tmp_path, CUSTOM_CONFIG, lambda text: text.replace("format_version = 1\n", ""))
        with pytest.raises(ConfigError, match="missing key 'format_version'"):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("key", [
        "gridn",  # an unknown top-level key
        "level2.cn2",  # a level past the manifest's two
        "level0.cnn2",  # an unknown level key
        "level.cn2",
        "grid_side",  # a config file's key, not a manifest's
    ])
    def test_unknown_key(self, tmp_path, key):
        path = self.write(tmp_path, CUSTOM_CONFIG, lambda text: text + f"{key} = 1\n")
        with pytest.raises(ConfigError) as exc:
            load_manifest(tmp_path)
        assert str(exc.value) == f"{path}: unknown key '{key}'"

    def test_desk_manifest_with_unread_lines(self, tmp_path):
        # a 4-level desk manifest with a newer version and three keys nothing reads
        def edit(text):
            text = text.replace("format_version = 1\n", "format_version = 7\n")
            return text + "gridn = 16\nlevel9.cn2 = 5\nlevel0.cnn2 = 1\n"

        self.write(tmp_path, desk_config(7), edit)
        with pytest.raises(ConfigError, match="format_version"):
            load_manifest(tmp_path)
        self.write(tmp_path, desk_config(7), lambda text: edit(text).replace(
            "format_version = 7\n", "format_version = 1\n"))
        with pytest.raises(ConfigError, match="unknown key 'gridn'"):
            load_manifest(tmp_path)

    def test_any_hash_key_is_read(self, tmp_path):
        self.write(tmp_path, CUSTOM_CONFIG, lambda text: text + "hash/extra.pgm = 00\n")
        assert load_manifest(tmp_path).hashes == {**HASHES, "extra.pgm": "00"}


def synthesis_digests(config, ids) -> tuple[str, str]:
    """sha256 over the ids' samples (levels and encodings), and over their fields."""
    samples, fields = hashlib.sha256(), hashlib.sha256()
    for i in ids:
        s = synthesize_sample(config, i)
        samples.update(repr((s.id, s.level_index, s.seed, s.encoding)).encode())
        samples.update(s.distorted_levels.tobytes() + s.gt_screen_levels.tobytes())
        screen, at_screen, receiver = synthesize_fields(config, i)
        for a in (screen.phase, at_screen.values, receiver.values):
            fields.update(a.tobytes())
    return samples.hexdigest(), fields.hexdigest()


PINNED_CONFIGS = {
    "64-fourier": lambda: desk_config(),
    "64-free": lambda: dataclasses.replace(desk_config(), observation="free"),
    "128": lambda: dataclasses.replace(desk_config(), grid=GridSpec(128, 0.01 / 128, 633e-9)),
    "256": lambda: paper_config(),
}


class TestPinnedSynthesis:
    """Synthesis equals, bit for bit, what the two-pass transforms' predecessor computed.

    :class:`TestSynthesisCaches` rebuilds samples with the public builders,
    which call ``make_screen`` themselves, so it cannot see a change inside
    ``make_screen``; these digests can. They were computed with numpy's
    ``ifft2`` and ``fft2`` in place of the two-pass transform. They belong to
    the numpy build that computed them: if a numpy upgrade changes them,
    recompute them on the commit before the change under test.
    """

    @pytest.mark.parametrize("name, ids, samples_hex, fields_hex", [
        ("64-fourier", (5, 1234, 2399),
         "c13179256e3dfc804da154eed9fd4316a69c6ad61c932ea5bfcd964e21c8da6a",
         "cf82d6d01c1152eecae1acfa043616fe2a7891ff13a50eabe2c1b6aa2c85b2c2"),
        ("64-free", (5, 1234, 2399),
         "1577c7aa6cbc2b5f86e0ed92071e61b90ffbc9cc666fc5bcb76001f913427192",
         "cf82d6d01c1152eecae1acfa043616fe2a7891ff13a50eabe2c1b6aa2c85b2c2"),
        ("128", (17, 1800),
         "5fbc264c169833118b36b4a53a6984611321429b79da3d1dba658f144108c642",
         "fe9eb4d1661e993556f5e4379ac57398e340c4ca5063f767813d5bb4a8770fbb"),
        ("256", (7, 47999),
         "5e8abaa5f24af4aa1ff49e5bc6f6705e22e7c8cc0e4c2e0c47ffe2758d0423d1",
         "513799e2d614b2718aead0d712afd51e77acd8a78ed1308e7c39a143a7ace2a6"),
    ], ids=list(PINNED_CONFIGS))
    def test_digests(self, name, ids, samples_hex, fields_hex):
        assert synthesis_digests(PINNED_CONFIGS[name](), ids) == (samples_hex, fields_hex)


class TestObservedIntensityReference:
    @pytest.mark.parametrize("n", [64, 256])
    def test_equals_shifted_fft2(self, n):
        config = desk_config() if n == 64 else paper_config()
        _, at_screen, _ = synthesize_fields(config, 3 * config.count_per_level + 1)
        v = at_screen.values.copy()
        expected = np.abs(np.fft.fftshift(np.fft.fft2(v, norm="ortho"))) ** 2
        assert_bits_equal(observed_intensity(at_screen, None, "fourier"), expected)
        assert_bits_equal(at_screen.values, v)

    def test_allocates_one_spectrum_at_256(self, peak_bytes):
        # the fft2 statement peaks at two complex planes, one per 1-D pass
        config = paper_config()
        _, at_screen, _ = synthesize_fields(config, 1)
        peak = peak_bytes(lambda: observed_intensity(at_screen, None, "fourier"))
        assert peak < 1.75 * at_screen.values.nbytes


class TestPerSampleRepeats:
    def test_variance_summed_once_per_level(self, tiny_config, monkeypatch):
        calls = []
        variance = dataset.screen_variance

        def counting_variance(params, grid):
            calls.append(params)
            return variance(params, grid)

        monkeypatch.setattr(dataset, "screen_variance", counting_variance)
        dataset._encoding_range.cache_clear()
        for i in range(2 * tiny_config.count_per_level):
            synthesize_sample(tiny_config, i)
        encodings = [encoding_range(p, tiny_config.grid) for p in tiny_config.levels]
        assert calls == list(tiny_config.levels)
        for params, (lo, hi) in zip(tiny_config.levels, encodings):
            sigma = np.sqrt(variance(params, tiny_config.grid))
            assert (lo, hi) == (-4.0 * sigma, 4.0 * sigma)

    @pytest.mark.parametrize("observation", OBSERVATIONS)
    def test_seed_derived_once_per_sample(self, tiny_config, monkeypatch, observation):
        config = dataclasses.replace(tiny_config, observation=observation)
        calls = []
        seed = dataset.sample_seed

        def counting_seed(base_seed, sample_id):
            calls.append(sample_id)
            return seed(base_seed, sample_id)

        monkeypatch.setattr(dataset, "sample_seed", counting_seed)
        sample = synthesize_sample(config, 9)
        assert calls == [9]
        assert sample.seed == seed(config.base_seed, 9)
        synthesize_fields(config, 9)
        assert calls == [9, 9]
