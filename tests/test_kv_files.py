"""Property tests for the two ``key = value`` files the package reads.

A ``manifest.txt`` and a ``gen-dataset --config`` file are truncated,
bit-flipped, given a duplicated key, or given one of a few edge values.
Each input must either parse or raise a ``VortexAOError`` subclass.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexao import DatasetConfig, GridSpec, TurbulenceParams, VortexAOError
from vortexao.cli import _dataset_config, build_parser
from vortexao.dataset import Manifest, generate_dataset, load_manifest

EDGE_VALUES = [b"0", b"-1", b"nan", b"1e308"]

CONFIG_TEXT = b"""# a gen-dataset config with every key it reads
grid_n = 16
grid_side = 0.01
wavelength = 6.33e-07
count_per_level = 6
train_per_level = 4
base_seed = 9
ell = -3
waist = 0.002
z_obs = 0.1
observation = fourier
"""


def mutated(data, text: bytes) -> bytes:
    """``text`` truncated, with one bit flipped, or with a key set to an edge value.

    The edge value either replaces a line's value or goes into a second line
    for the same key, placed anywhere in the file.
    """
    how = data.draw(st.sampled_from(["truncate", "flip", "duplicate", "replace"]))
    if how == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1))]
    if how == "flip":
        bit = data.draw(st.integers(0, 8 * len(text) - 1))
        out = bytearray(text)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    lines = text.splitlines(keepends=True)
    keyed = [i for i, line in enumerate(lines) if b"=" in line]
    i = data.draw(st.sampled_from(keyed))
    key = lines[i].split(b"=", 1)[0].strip()
    line = key + b" = " + data.draw(st.sampled_from(EDGE_VALUES)) + b"\n"
    if how == "duplicate":
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    else:
        lines[i] = line
    return b"".join(lines)


@pytest.fixture(scope="module")
def manifest_text(tmp_path_factory):
    grid = GridSpec(16, 0.01 / 16, 633e-9)
    levels = tuple(
        TurbulenceParams.from_cn2(c, eta=10.37e-3, epsilon=1e-10) for c in (1e-14, 1e-12)
    )
    config = DatasetConfig(grid, levels, count_per_level=4, train_per_level=2, waist=2e-3)
    root = tmp_path_factory.mktemp("kv-dataset")
    generate_dataset(config, root)
    return (root / "manifest.txt").read_bytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("kv-files")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_manifest_parses_or_raises_package_error(manifest_text, scratch, data):
    (scratch / "manifest.txt").write_bytes(mutated(data, manifest_text))
    try:
        manifest = load_manifest(scratch)
    except VortexAOError:
        return
    assert isinstance(manifest, Manifest)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_config_file_parses_or_raises_package_error(scratch, data):
    path = scratch / "run.cfg"
    path.write_bytes(mutated(data, CONFIG_TEXT))
    args = build_parser().parse_args(["gen-dataset", "--out", "unused", "--config", str(path)])
    try:
        config = _dataset_config(args)
    except VortexAOError:
        return
    assert isinstance(config, DatasetConfig)


def test_unmutated_files_parse(manifest_text, scratch):
    (scratch / "manifest.txt").write_bytes(manifest_text)
    assert load_manifest(scratch).config.count_per_level == 4
    path = scratch / "run.cfg"
    path.write_bytes(CONFIG_TEXT)
    args = build_parser().parse_args(["gen-dataset", "--out", "unused", "--config", str(path)])
    config = _dataset_config(args)
    assert (config.grid.n, config.count_per_level, config.base_seed) == (16, 6, 9)
