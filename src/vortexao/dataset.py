"""Dataset generation, persistence and loading.

Each sample pairs a distorted-beam intensity image with its ground-truth
phase screen, both stored as 16-bit PGM files named ``{split}/{id}_x.pgm``
and ``{split}/{id}_y.pgm`` under the dataset root. A flat key-value
manifest (written last, as the commit point) records the grid, beam and
turbulence parameters, the observation mode, the per-level screen encoding
ranges, the base seed and a sha256 hash of every sample file.

Two observation modes select what the recorded intensity image is:

``fourier`` (default)
    The camera sits in the focal plane of an ideal lens behind the screen,
    so the image is the squared modulus of the Fourier transform of the
    field leaving the screen. Every screen mode, including the dominant
    low-frequency ones, perturbs this image, which is what makes screen
    regression from a single intensity pattern feasible.
``free``
    The image is the intensity after a short free-space leg of ``z_obs``
    meters. Over such a leg the phase-to-intensity conversion of a mode at
    spatial frequency kappa scales like ``kappa^2 z / (2 k0)``, so the
    dominant low-frequency screen content is nearly invisible; kept for
    comparison.

In both modes the compensation/evaluation plane (the "receiver") is the
field ``z_obs`` meters past the screen. Screens are encoded to gray scale
over a per-level fixed range ``(lo, hi) = (-4 sigma, +4 sigma)`` where
sigma is that level's theoretical screen standard deviation; a fixed range
keeps decoding well defined at inference time. Everything is reproducible
from (base_seed, sample id).
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, CorruptSampleError, DomainError
from .field import (
    ComplexField,
    GridSpec,
    PhaseScreen,
    apply_phase,
    intensity,
    make_vortex_beam,
    normalize_image,
)
from .images import PGM_MAXVAL, atomic_write_bytes, parse_pgm, pgm_bytes, quantize_image
from .propagation import PropagationKernel, dft2, make_kernel, propagate
from .turbulence import ScreenRng, TurbulenceParams, make_screen, screen_variance, standard_levels

MANIFEST_NAME = "manifest.txt"
SPLITS = ("train", "test")
OBSERVATIONS = ("fourier", "free")
ENCODING_SIGMA_SPAN = 4.0

# quiet-ocean dissipation for the desk protocol: epsilon = 1e-9 m^2/s^3 with
# the matching Kolmogorov inner scale (nu^3/epsilon)^(1/4) for seawater.
# The larger inner scale softens the high-frequency screen tail so the
# desk-scale regression stays learnable at the strongest level.
DESK_EPSILON = 1e-9
DESK_ETA = 5.83e-3
DESK_WAIST = 2.0e-3


def encode_screen(phase: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Map phase values into [0, 1] over a fixed range, clipping outliers.

    A degenerate range (lo == hi, the zero-turbulence case) encodes to a
    uniform 0.5 gray; decoding then returns lo everywhere.
    """
    if hi < lo:
        raise DomainError(f"invalid encoding range ({lo}, {hi})")
    if hi == lo:
        return np.full_like(np.asarray(phase, dtype=np.float64), 0.5)
    return np.clip((np.asarray(phase, dtype=np.float64) - lo) / (hi - lo), 0.0, 1.0)


def decode_screen(img: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Invert :func:`encode_screen`: ``phase = lo + img * (hi - lo)``."""
    if hi < lo:
        raise DomainError(f"invalid encoding range ({lo}, {hi})")
    return lo + np.asarray(img, dtype=np.float64) * (hi - lo)


@dataclass(frozen=True)
class Sample:
    """One dataset element, its two images held as the 16-bit PGM levels.

    A level ``L`` stands for the image value ``L / 65535``. The float views
    ``distorted_img`` and ``gt_screen_img`` are decoded on each access and
    equal, bit for bit, what ``import_pgm`` reads from the stored file.
    """

    id: int
    level_index: int
    seed: int
    distorted_levels: np.ndarray
    gt_screen_levels: np.ndarray
    encoding: tuple[float, float]

    @property
    def distorted_img(self) -> np.ndarray:
        """The distorted-beam intensity, float64 in [0, 1]."""
        return self.distorted_levels / PGM_MAXVAL

    @property
    def gt_screen_img(self) -> np.ndarray:
        """The encoded ground-truth phase screen, float64 in [0, 1]."""
        return self.gt_screen_levels / PGM_MAXVAL


@dataclass(frozen=True)
class DatasetConfig:
    """Generation parameters; fully determines a dataset given a seed."""

    grid: GridSpec
    levels: tuple[TurbulenceParams, ...]
    count_per_level: int
    train_per_level: int
    ell: int = -3
    waist: float = 3.5e-3
    z_obs: float = 0.1
    base_seed: int = 0
    observation: str = OBSERVATIONS[0]

    def __post_init__(self):
        if not self.levels:
            raise ConfigError("a dataset needs at least one turbulence level")
        if self.count_per_level < 2:
            raise ConfigError("count_per_level must be at least 2")
        if not (0 < self.train_per_level < self.count_per_level):
            raise ConfigError("train_per_level must split the per-level count")
        if not (math.isfinite(self.z_obs) and self.z_obs > 0):
            raise ConfigError(
                f"observation distance must be positive and finite, got {self.z_obs}"
            )
        if not (math.isfinite(self.waist) and self.waist > 0):
            raise ConfigError(f"beam waist must be positive and finite, got {self.waist}")
        if self.observation not in OBSERVATIONS:
            raise ConfigError(
                f"unknown observation mode {self.observation!r}, expected {OBSERVATIONS}"
            )
        k0 = 2.0 * np.pi / self.grid.wavelength  # as TurbulenceParams.from_cn2 computes it
        for i, params in enumerate(self.levels):
            if abs(params.k0 - k0) > 1e-12 * k0:
                raise ConfigError(
                    f"level {i}: k0 = {params.k0} does not match the grid's wavelength "
                    f"{self.grid.wavelength} (k0 = {k0})"
                )


@dataclass
class Manifest:
    """Parsed manifest: config plus encoding ranges and file hashes."""

    config: DatasetConfig
    encodings: list[tuple[float, float]]
    hashes: dict[str, str]

    @property
    def total(self) -> int:
        return self.config.count_per_level * len(self.config.levels)


def desk_config(base_seed: int = 7) -> DatasetConfig:
    """The desk-scale protocol: 64 x 64 grids, 600 samples per level.

    Uses quiet-ocean dissipation defaults and a 2 mm beam waist; these keep
    the strongest level learnable by the reference network size while the
    four levels stay strictly ordered in distortion strength.
    """
    return _protocol(64, 600, base_seed, waist=DESK_WAIST)


def paper_config(base_seed: int = 7) -> DatasetConfig:
    """The full-scale protocol: 256 x 256 grids, 12000 samples per level."""
    return _protocol(256, 12000, base_seed)


def _protocol(n: int, count: int, base_seed: int, **fields) -> DatasetConfig:
    """The protocol on an ``n`` x ``n`` grid across 1 cm at 633 nm."""
    grid = GridSpec.from_side(n, 0.01, 633e-9)
    return protocol_config(grid, count, base_seed=base_seed, **fields)


def protocol_config(
    grid: GridSpec, count_per_level: int, *, level_indices=None, train_per_level=None, **fields
) -> DatasetConfig:
    """The protocol's levels at ``grid``'s wavelength, with quiet-ocean dissipation.

    ``level_indices`` picks among the four standard levels (all by default).
    Without a ``train_per_level``, 5/6 of each level trains. ``fields`` are
    the config's other fields.
    """
    levels = standard_levels(wavelength=grid.wavelength, eta=DESK_ETA, epsilon=DESK_EPSILON)
    if level_indices is not None:
        levels = [levels[i] for i in level_indices]
    if train_per_level is None:
        train_per_level = count_per_level * 5 // 6
    return DatasetConfig(grid, tuple(levels), count_per_level, train_per_level, **fields)


def sample_seed(base_seed: int, sample_id: int) -> int:
    """Stable 64-bit per-sample seed derived from the base seed and id."""
    ss = np.random.SeedSequence([int(base_seed), int(sample_id)])
    return int(ss.generate_state(1, np.uint64)[0])


def sample_ids(config: DatasetConfig, split: str, level_index: int | None = None):
    """Deterministic id layout: ids are contiguous per level, train first."""
    if split not in SPLITS:
        raise ConfigError(f"unknown split {split!r}")
    ids = []
    for lvl in range(len(config.levels)):
        if level_index is not None and lvl != level_index:
            continue
        base = lvl * config.count_per_level
        if split == "train":
            ids.extend(range(base, base + config.train_per_level))
        else:
            ids.extend(range(base + config.train_per_level, base + config.count_per_level))
    return ids


def level_of_id(config: DatasetConfig, sample_id: int) -> int:
    return sample_id // config.count_per_level


@functools.lru_cache(maxsize=2)
def _beam_and_kernel(
    grid: GridSpec, ell: int, waist: float, z_obs: float
) -> tuple[ComplexField, PropagationKernel]:
    """The config's vortex beam and screen-to-receiver kernel, built once.

    Memoized on exactly the values they depend on; every array is read-only
    so no caller can corrupt a later synthesis. The public builders stay
    uncached and hand out fresh, writeable arrays.
    """
    beam = make_vortex_beam(grid, ell, waist)
    kernel = make_kernel(grid, z_obs)
    for arr in (beam.values, kernel.h, kernel.h_adjoint):
        arr.flags.writeable = False
    return beam, kernel


def _synthesize(
    config: DatasetConfig, sample_id: int, seed: int, to_receiver: bool
) -> tuple[PhaseScreen, ComplexField, ComplexField | None]:
    level = level_of_id(config, sample_id)
    screen = make_screen(config.levels[level], config.grid, ScreenRng(seed))
    beam, kernel = _beam_and_kernel(config.grid, config.ell, config.waist, config.z_obs)
    at_screen = apply_phase(beam, screen)
    receiver = propagate(at_screen, kernel) if to_receiver else None
    return screen, at_screen, receiver


def synthesize_fields(
    config: DatasetConfig, sample_id: int
) -> tuple[PhaseScreen, ComplexField, ComplexField]:
    """Regenerate (screen, field at screen plane, field at receiver) for an id."""
    seed = sample_seed(config.base_seed, sample_id)
    return _synthesize(config, sample_id, seed, to_receiver=True)


def encoding_range(params: TurbulenceParams, grid: GridSpec) -> tuple[float, float]:
    """Fixed per-level encoding span, +/- 4 theoretical sigma, memoized on ``(params, grid)``."""
    return _encoding_range(params, grid)


# room for the four standard levels of one grid
@functools.lru_cache(maxsize=4)
def _encoding_range(params: TurbulenceParams, grid: GridSpec) -> tuple[float, float]:
    sigma = float(np.sqrt(screen_variance(params, grid)))
    return (-ENCODING_SIGMA_SPAN * sigma, ENCODING_SIGMA_SPAN * sigma)


def observed_intensity(
    at_screen: ComplexField, receiver: ComplexField | None, observation: str
) -> np.ndarray:
    """The raw camera image for a given observation mode.

    ``fourier`` reads only ``at_screen``, so ``receiver`` may be None there.
    """
    if observation == "fourier":
        # one fresh spectrum buffer; the shift moves the real image, which
        # equals shifting the spectrum first bit for bit
        return np.fft.fftshift(np.abs(dft2(at_screen.values)) ** 2)
    if observation == "free":
        return intensity(receiver)
    raise ConfigError(f"unknown observation mode {observation!r}")


def synthesize_sample(config: DatasetConfig, sample_id: int) -> Sample:
    """Build one sample in memory; deterministic in (base_seed, id).

    Its images are quantized as ``export_pgm`` quantizes them, so the sample
    equals, bit for bit, the one ``load_split`` reads back from its files.
    """
    level = level_of_id(config, sample_id)
    lo, hi = encoding_range(config.levels[level], config.grid)
    seed = sample_seed(config.base_seed, sample_id)
    screen, at_screen, receiver = _synthesize(
        config, sample_id, seed, to_receiver=config.observation == "free"
    )
    img = observed_intensity(at_screen, receiver, config.observation)
    if not np.all(np.isfinite(img)):
        raise DomainError(f"non-finite intensity for sample {sample_id} (seed {seed})")
    return Sample(
        id=sample_id,
        level_index=level,
        seed=seed,
        distorted_levels=quantize_image(normalize_image(img)),
        gt_screen_levels=quantize_image(encode_screen(screen.phase, lo, hi)),
        encoding=(lo, hi),
    )


def _split_of_id(config: DatasetConfig, sample_id: int) -> str:
    offset = sample_id % config.count_per_level
    return "train" if offset < config.train_per_level else "test"


def _relpaths(config: DatasetConfig, sample_id: int) -> tuple[str, str]:
    split = _split_of_id(config, sample_id)
    return (f"{split}/{sample_id}_x.pgm", f"{split}/{sample_id}_y.pgm")


def generate_dataset(config: DatasetConfig, out_dir, workers: int | None = None) -> Manifest:
    """Generate and persist the full dataset, returning its manifest.

    Samples are independent, so generation parallelizes over a thread pool
    when ``workers`` (or the VORTEXAO_THREADS environment variable) asks for
    it; results are written per sample and the manifest last, so an
    interrupted run never leaves a manifest pointing at missing files.
    """
    out_dir = os.fspath(out_dir)
    # a beam that cannot be built fails here, before any directory is made
    _beam_and_kernel(config.grid, config.ell, config.waist, config.z_obs)
    for split in SPLITS:
        os.makedirs(os.path.join(out_dir, split), exist_ok=True)
    if workers is None:
        workers = int(os.environ.get("VORTEXAO_THREADS", "1"))

    all_ids = list(range(config.count_per_level * len(config.levels)))

    def emit(sample_id: int) -> list[tuple[str, str]]:
        """Write the sample's two files; their paths and the sha256 of the bytes written."""
        sample = synthesize_sample(config, sample_id)
        written = []
        levels = (sample.distorted_levels, sample.gt_screen_levels)
        for rel, lv in zip(_relpaths(config, sample_id), levels):
            data = pgm_bytes(lv)
            atomic_write_bytes(os.path.join(out_dir, rel), data)
            written.append((rel, hashlib.sha256(data).hexdigest()))
        return written

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(emit, all_ids))
    else:
        results = [emit(i) for i in all_ids]

    hashes = dict(entry for written in results for entry in written)
    encodings = [encoding_range(p, config.grid) for p in config.levels]
    manifest = Manifest(config, encodings, hashes)
    atomic_write_bytes(
        os.path.join(out_dir, MANIFEST_NAME), _render_manifest(manifest).encode("ascii")
    )
    return manifest


class _Key(NamedTuple):
    """A top-level manifest key: its name, its type and its value in a config."""

    name: str
    conv: Callable[[str], object]
    get: Callable[[DatasetConfig], object]
    in_config_file: bool = True
    default: str | None = None  # the value of a manifest without the key


# The manifest's top-level keys, in file order. A gen-dataset config file sets
# the grid by its side, not its spacing, and leaves the levels to --levels.
_MANIFEST_KEYS = (
    _Key("base_seed", int, lambda c: c.base_seed),
    _Key("grid_n", int, lambda c: c.grid.n),
    _Key("grid_dx", float, lambda c: c.grid.dx, in_config_file=False),
    _Key("wavelength", float, lambda c: c.grid.wavelength),
    _Key("ell", int, lambda c: c.ell),
    _Key("waist", float, lambda c: c.waist),
    _Key("z_obs", float, lambda c: c.z_obs),
    # manifests written before the observation modes recorded the fourier plane
    _Key("observation", str, lambda c: c.observation, default=OBSERVATIONS[0]),
    _Key("levels", int, lambda c: len(c.levels), in_config_file=False),
    _Key("count_per_level", int, lambda c: c.count_per_level),
    _Key("train_per_level", int, lambda c: c.train_per_level),
)
_FORMAT_VERSION = 1  # the manifest's first line; every manifest so far was written as 1
# level i's keys, "level{i}.{key}": its turbulence parameters, then its encoding range
_LEVEL_KEYS = tuple(f.name for f in fields(TurbulenceParams)) + ("lo", "hi")
_CONFIG_FILE_KEYS = {k.name: k.conv for k in _MANIFEST_KEYS if k.in_config_file}
_CONFIG_FILE_KEYS["grid_side"] = float


def _render_manifest(manifest: Manifest) -> str:
    c = manifest.config
    lines = [f"format_version = {_FORMAT_VERSION}"]
    lines += [f"{k.name} = {k.get(c)}" for k in _MANIFEST_KEYS]
    for i, (params, encoding) in enumerate(zip(c.levels, manifest.encodings)):
        values = (*astuple(params), *encoding)
        lines += [f"level{i}.{key} = {value}" for key, value in zip(_LEVEL_KEYS, values)]
    lines += [f"hash/{rel} = {manifest.hashes[rel]}" for rel in sorted(manifest.hashes)]
    return "\n".join(lines) + "\n"


def _parse_kv(text: str, source) -> dict[str, str]:
    """Parse flat ``key = value`` lines; ``#`` starts a comment line.

    ``source`` names the text's origin in errors, as ``source:line``; a key may appear once.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: repeated key {key!r}")
        entries[key] = value
    return entries


def _read_kv_file(path) -> dict[str, str]:
    """Read and parse a ``key = value`` file; a non-ASCII byte is a ConfigError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start)
        bad = data.split(b"\n")[lineno].decode("ascii", "backslashreplace")
        raise ConfigError(f"{path}:{lineno + 1}: non-ASCII byte in {bad!r}") from None
    return _parse_kv(text, path)


def _kv_value(entries: dict[str, str], key: str, conv, source, default: str | None = None):
    """``conv`` of the key's value, else of ``default``; a missing or bad value is ConfigError."""
    text = entries.get(key, default)
    if text is None:
        raise ConfigError(f"{source}: missing key {key!r}")
    try:
        return conv(text)
    except ValueError:
        raise ConfigError(f"{source}: {key} = {text!r} is not a valid {conv.__name__}") from None


def read_config_file(path) -> dict[str, object]:
    """The typed values a ``gen-dataset`` config file sets, by key.

    The file takes the manifest's top-level keys except ``grid_dx`` and
    ``levels``, plus ``grid_side``; an unknown key or bad value is a ConfigError.
    """
    entries = _read_kv_file(path)
    for key in entries:
        if key not in _CONFIG_FILE_KEYS:
            expected = ", ".join(_CONFIG_FILE_KEYS)
            raise ConfigError(f"{path}: unknown key {key!r}, expected one of {expected}")
    return {key: _kv_value(entries, key, _CONFIG_FILE_KEYS[key], path) for key in entries}


def load_manifest(root) -> Manifest:
    """Parse the manifest under a dataset root directory; format version 1 only.

    A key the writer would not write for its levels, ``hash/`` keys aside, is a ConfigError.
    """
    path = os.path.join(os.fspath(root), MANIFEST_NAME)
    if not os.path.exists(path):
        raise ConfigError(f"no manifest at {path}")
    entries = _read_kv_file(path)
    if (version := _kv_value(entries, "format_version", int, path)) != _FORMAT_VERSION:
        raise ConfigError(f"{path}: format_version = {version}, expected {_FORMAT_VERSION}")
    values = {k.name: _kv_value(entries, k.name, k.conv, path, k.default) for k in _MANIFEST_KEYS}
    config, encodings = _manifest_config(entries, path, **values)
    known = {"format_version", *values}
    known.update(f"level{i}.{k}" for i in range(len(config.levels)) for k in _LEVEL_KEYS)
    for key in entries:
        if key not in known and not key.startswith("hash/"):
            raise ConfigError(f"{path}: unknown key {key!r}")
    hashes = {k[len("hash/") :]: v for k, v in entries.items() if k.startswith("hash/")}
    return Manifest(config, encodings, hashes)


def _manifest_config(entries, path, grid_n, grid_dx, wavelength, levels, **rest):
    """The config and encoding ranges a manifest records, given its top-level values."""
    params, encodings = [], []
    for i in range(levels):
        *values, lo, hi = (_kv_value(entries, f"level{i}.{k}", float, path) for k in _LEVEL_KEYS)
        params.append(TurbulenceParams(*values))
        encodings.append((lo, hi))
    return DatasetConfig(GridSpec(grid_n, grid_dx, wavelength), tuple(params), **rest), encodings


def _read_verified(manifest: Manifest, root: str, rel: str) -> np.ndarray:
    """Read a sample file once, check its sha256, and parse those same bytes to levels."""
    if rel not in manifest.hashes:
        raise CorruptSampleError(f"{rel} not recorded in the manifest")
    path = os.path.join(root, rel)
    with open(path, "rb") as fh:
        data = fh.read()
    if hashlib.sha256(data).hexdigest() != manifest.hashes[rel]:
        raise CorruptSampleError(f"{rel}: sha256 mismatch, file corrupted")
    return parse_pgm(data, path)


def load_split(
    manifest: Manifest, split: str, root, level_index: int | None = None
) -> list[Sample]:
    """Load one split eagerly, ordered by id, verifying file hashes."""
    root = os.fspath(root)
    config = manifest.config
    samples = []
    for sid in sample_ids(config, split, level_index):
        level = level_of_id(config, sid)
        rel_x, rel_y = _relpaths(config, sid)
        samples.append(
            Sample(
                id=sid,
                level_index=level,
                seed=sample_seed(config.base_seed, sid),
                distorted_levels=_read_verified(manifest, root, rel_x),
                gt_screen_levels=_read_verified(manifest, root, rel_y),
                encoding=manifest.encodings[level],
            )
        )
    return samples


class TrainingPairs(Sequence):
    """Read-only (distorted intensity, encoded screen) float pairs in sample order.

    Holds only the samples' 16-bit levels; a pair is decoded to float64
    each time it is indexed.
    """

    def __init__(self, samples):
        self._samples = tuple(samples)

    def __len__(self) -> int:
        return len(self._samples)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TrainingPairs(self._samples[index])
        sample = self._samples[index]
        return sample.distorted_img, sample.gt_screen_img


def training_pairs(samples: list[Sample]) -> TrainingPairs:
    """(distorted intensity, encoded screen) pairs in sample order, decoded when indexed."""
    return TrainingPairs(samples)
