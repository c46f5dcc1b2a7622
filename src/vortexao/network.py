"""Trainable diffractive network: forward model, exact gradients, Adam.

The network is a stack of per-pixel modulation layers separated by equal
free-space hops. A forward pass propagates the encoded input to layer 1,
multiplies by that layer's complex transmission, propagates on, and after
the last layer propagates to the output plane where the intensity ``I`` is
taken. An affine detector readout turns it into the output image

  out = offset + gain * (I / mean(I) - 1)

with two trainable scalars (a camera gain and black level). Dividing by the
mean makes the image independent of the input power; the offset starts at
0.5, the encoding of the zero screen, so an untrained network predicts "no
correction".

Every building block is linear in the field except the squared modulus and
the mean normalization, both smooth, so gradients are computed exactly by
adjoint propagation. With the Wirtinger convention ``A = dL/d(conj u)`` and
the output residual ``r = dL/d(out)``:

  readout        dL/dgain = sum(r * (I/mean(I) - 1)),  dL/doffset = sum(r)
  output plane   A = G * u_out, with G = dL/dI
                   = gain/mean(I) * (r - mean(r * I/mean(I)))
  propagation    A <- adjoint hop (conjugated kernel)
  layer          dL/dphase = 2 Im(A * conj(v)),  dL/dlog_amp = 2 Re(A * conj(v))
                 with v the field just after the layer; then A <- A * conj(t)

The chain stops at layer 1's gradients, so a pass makes L + 1 hops forward
and L back, all on plain complex arrays.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .dataset import decode_screen
from .errors import (
    CheckpointError,
    ConfigError,
    DomainError,
    GridMismatchError,
    StaleTapeError,
    TrainingDivergenceError,
)
from .field import ComplexField, GridSpec, PhaseScreen
from .propagation import PropagationKernel, hop, make_kernel

MODES = ("phase", "amplitude", "hybrid")

# readout start: the offset is the encoding of the zero screen, and the gain
# makes the initial output contrast close to the encoded-screen contrast
# (std about 0.1)
READOUT_GAIN = 0.08
READOUT_OFFSET = 0.5


def default_spacing(grid: GridSpec) -> float:
    """Layer separation whose diffraction spread covers the aperture.

    One hop of ``n dx^2 / wavelength`` lets the grid's full angular band
    shear across the whole window, so every output pixel of a hop depends on
    every input pixel; shorter hops give only local coupling and train far
    more slowly. A 0.97 factor keeps the transfer function inside its
    sampling-validity range.
    """
    return 0.97 * grid.n * grid.dx**2 / grid.wavelength


@dataclass
class DiffractiveLayer:
    """One modulation plane: per-pixel phase and log-amplitude.

    Amplitude is stored as ``exp(log_amplitude)`` with ``log_amplitude <= 0``
    so the layer is passive (no gain) for any parameter value. Phase is kept
    unwrapped; :meth:`exported_phase` reduces it modulo 2 pi.
    """

    phase: np.ndarray
    log_amplitude: np.ndarray

    def __post_init__(self):
        self.phase = np.asarray(self.phase, dtype=np.float64)
        self.log_amplitude = np.asarray(self.log_amplitude, dtype=np.float64)
        if self.phase.shape != self.log_amplitude.shape:
            raise GridMismatchError("phase and log_amplitude shapes differ")
        for name in ("phase", "log_amplitude"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"layer {name} contains non-finite entries")
        if np.any(self.log_amplitude > 0):
            raise ConfigError("log_amplitude must be <= 0 (passive layer)")
        # (phase, log_amplitude, t) of the last transmission() computation
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __getstate__(self):
        # copies and pickles start without the cache: a copied array would
        # come back writeable
        return {**self.__dict__, "_cache": None}

    @classmethod
    def identity(cls, n: int) -> "DiffractiveLayer":
        return cls(np.zeros((n, n)), np.zeros((n, n)))

    def exported_phase(self) -> np.ndarray:
        return np.mod(self.phase, 2.0 * np.pi)

    def transmission(self) -> np.ndarray:
        """The complex transmission ``exp(log_amplitude + i phase)``, read-only.

        The result is cached on the values of both arrays: it is recomputed
        exactly when either array differs from the copy kept at the last
        computation. In-place edits, reassignment and deep copies therefore
        never see a stale transmission, and nothing has to be invalidated.
        """
        cache = self._cache
        if (
            cache is None
            or not np.array_equal(cache[0], self.phase)
            or not np.array_equal(cache[1], self.log_amplitude)
        ):
            t = np.exp(self.log_amplitude + 1j * self.phase)
            t.flags.writeable = False
            cache = self._cache = (self.phase.copy(), self.log_amplitude.copy(), t)
        return cache[2]


class DiffractiveNetwork:
    """Modulation layers plus fixed propagation geometry and the readout.

    All hops (input to layer 1, between layers, last layer to output) share
    one separation, so a single kernel is precomputed and reused. Geometry
    is fixed at construction; build a new network to change it. ``mode``
    selects which layer arrays train: "phase" freezes amplitude, "amplitude"
    freezes phase, "hybrid" trains both. ``readout`` holds the trainable
    ``(gain, offset)`` of the detector readout and starts at
    ``(READOUT_GAIN, READOUT_OFFSET)``.
    """

    def __init__(
        self, grid: GridSpec, layers: list[DiffractiveLayer], spacing: float, mode: str = "hybrid"
    ):
        if mode not in MODES:
            raise ConfigError(f"unknown layer mode {mode!r}, expected one of {MODES}")
        if not layers:
            raise ConfigError("network needs at least one layer")
        if not (math.isfinite(spacing) and spacing > 0):
            raise ConfigError(f"layer spacing must be positive and finite, got {spacing}")
        for layer in layers:
            if layer.phase.shape != (grid.n, grid.n):
                raise GridMismatchError("layer arrays do not match the network grid")
        self.grid = grid
        self.layers = layers
        self.spacing = float(spacing)
        self.mode = mode
        self.kernel: PropagationKernel = make_kernel(grid, spacing)
        self.readout = np.array([READOUT_GAIN, READOUT_OFFSET])
        self._version = 0

    @classmethod
    def build(
        cls,
        grid: GridSpec,
        n_layers: int = 5,
        mode: str = "hybrid",
        spacing: float | None = None,
        init: str = "identity",
        init_seed: int = 0,
        init_scale: float = 3.0,
    ) -> "DiffractiveNetwork":
        """Construct a fresh network.

        ``init="identity"`` starts fully transparent. ``init="defocus"``
        places a diverging thin-lens phase of focal length
        ``-init_scale * spacing`` on every layer, which spreads the input
        over the output window from step one and trains markedly faster
        than a transparent start. ``init="random"`` draws layer phases
        uniformly from [-init_scale*pi, init_scale*pi].
        """
        if spacing is None:
            spacing = default_spacing(grid)
        layers = [DiffractiveLayer.identity(grid.n) for _ in range(n_layers)]
        if init == "random":
            g = np.random.Generator(np.random.PCG64(init_seed))
            for layer in layers:
                layer.phase = g.uniform(
                    -init_scale * np.pi, init_scale * np.pi, size=(grid.n, grid.n)
                )
        elif init == "defocus":
            x, y = grid.mesh()
            k = 2.0 * np.pi / grid.wavelength
            lens = k * (x**2 + y**2) / (2.0 * init_scale * spacing)
            for layer in layers:
                layer.phase = lens.copy()
        elif init != "identity":
            raise ConfigError(f"unknown init {init!r}")
        return cls(grid, layers, spacing, mode)

    @property
    def trains_phase(self) -> bool:
        return self.mode in ("phase", "hybrid")

    @property
    def trains_amplitude(self) -> bool:
        return self.mode in ("amplitude", "hybrid")

    @property
    def version(self) -> int:
        return self._version

    def bump_version(self) -> None:
        self._version += 1


@dataclass
class ForwardTape:
    """The planes (as arrays) and layer transmissions a forward pass used."""

    version: int
    post_layer: list[np.ndarray]
    out_field: np.ndarray
    transmissions: list[np.ndarray]
    raw_intensity: np.ndarray
    mean_intensity: float


@dataclass
class LayerGradients:
    """Per-layer loss gradients; frozen arrays carry zeros."""

    phase: np.ndarray
    log_amplitude: np.ndarray


class Gradients(list):
    """Per-layer :class:`LayerGradients` plus ``readout``, ``(dL/dgain, dL/doffset)``."""

    def __init__(self, layers=(), readout=(0.0, 0.0)):
        super().__init__(layers)
        self.readout = np.array(readout, dtype=np.float64)


def _check_input_image(img: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The image as float64, after checking it is encodable on ``grid``."""
    img = np.asarray(img, dtype=np.float64)
    if img.shape != (grid.n, grid.n):
        raise GridMismatchError(f"image shape {img.shape} does not match grid {grid.n}")
    if img.min() < -1e-12 or img.max() > 1 + 1e-12:
        raise DomainError("encode_input expects values in [0, 1]")
    if img.sum() <= 0:
        raise DomainError("cannot encode an all-zero image")
    return img


def encode_input(img: np.ndarray, grid: GridSpec) -> ComplexField:
    """Amplitude-encode a normalized image as a zero-phase field.

    Takes the pixelwise square root so the encoded field's intensity
    reproduces the image (up to the overall power normalization), then
    normalizes to unit total power.
    """
    img = _check_input_image(img, grid)
    u = np.sqrt(np.clip(img, 0.0, None)).astype(np.complex128)
    u /= np.sqrt(np.sum(np.abs(u) ** 2) * grid.dx**2)
    return ComplexField(grid, u)


def forward(net: DiffractiveNetwork, input_field: ComplexField) -> tuple[np.ndarray, ForwardTape]:
    """Run the optical forward model.

    Returns the readout image ``offset + gain * (I / mean(I) - 1)`` of the
    output-plane intensity ``I`` together with the tape of every
    intermediate field. The image has mean ``offset`` and is unbounded, so it
    can leave [0, 1]; :func:`predict_image` limits it before decoding.
    """
    if input_field.grid != net.grid:
        raise GridMismatchError("input field grid does not match the network grid")
    h = net.kernel.h
    transmissions = [layer.transmission() for layer in net.layers]
    post = []
    u = input_field.values
    for t in transmissions:
        u = hop(u, h)  # a fresh buffer, so the layer multiplies in place
        u *= t
        post.append(u)
    out_field = hop(u, h)
    raw = np.abs(out_field) ** 2
    mean = float(raw.mean())
    if mean <= 0:
        raise DomainError("forward pass produced an identically zero output")
    gain, offset = net.readout
    output = offset + gain * (raw / mean - 1.0)
    tape = ForwardTape(net.version, post, out_field, transmissions, raw, mean)
    return output, tape


def loss_mse(output: np.ndarray, ground_truth: np.ndarray) -> float:
    """Pixel-mean squared error between two equally shaped images."""
    output = np.asarray(output, dtype=np.float64)
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    if output.shape != ground_truth.shape:
        raise GridMismatchError(
            f"image shapes differ: {output.shape} vs {ground_truth.shape}"
        )
    return float(np.mean((output - ground_truth) ** 2))


def backward(
    net: DiffractiveNetwork,
    tape: ForwardTape,
    output: np.ndarray,
    ground_truth: np.ndarray,
) -> Gradients:
    """Exact gradients of the MSE loss for every trainable parameter.

    The tape must come from a forward pass of the network in its current
    parameter state; a tape recorded before an optimizer step is rejected.
    The layer transmissions are read from the tape, never from the layers.
    """
    if tape.version != net.version:
        raise StaleTapeError(
            f"tape recorded at version {tape.version}, network now at {net.version}"
        )
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    n_pix = output.size
    residual = 2.0 * (output - ground_truth) / n_pix  # dL/d(output)

    # through the readout: output = offset + gain * (I / mean(I) - 1)
    gain = net.readout[0]
    contrast = tape.raw_intensity / tape.mean_intensity - 1.0
    d_gain = float(np.sum(residual * contrast))
    d_offset = float(np.sum(residual))
    grad_i = (gain / tape.mean_intensity) * (residual - (d_gain + d_offset) / n_pix)
    # through the squared modulus: A = dL/d(conj u_out)
    adj = grad_i * tape.out_field

    h_adjoint = net.kernel.h_adjoint
    grads = Gradients(readout=(d_gain, d_offset))
    for i in reversed(range(len(tape.post_layer))):
        adj = hop(adj, h_adjoint)
        # both products stay out of place as written: numpy evaluates them as
        # conj(x) * adj from 128 x 128 up, and `adj *= conj(t)` changes last bits
        prod = adj * np.conj(tape.post_layer[i])
        g_phase = 2.0 * np.imag(prod) if net.trains_phase else np.zeros(prod.shape)
        g_amp = 2.0 * np.real(prod) if net.trains_amplitude else np.zeros(prod.shape)
        grads.append(LayerGradients(g_phase, g_amp))
        if i > 0:
            adj = adj * np.conj(tape.transmissions[i])
    grads.reverse()
    return grads


@dataclass
class TrainState:
    """Network plus Adam accumulators.

    ``m`` and ``v`` hold the per-layer moments, ``m_readout`` and
    ``v_readout`` those of the readout ``(gain, offset)``. ``adam_step``
    updates the network parameters in place (single writer) and returns the
    same state for chaining.
    """

    network: DiffractiveNetwork
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1e-8
    step: int = 0
    m: list[LayerGradients] = dataclass_field(default_factory=list)
    v: list[LayerGradients] = dataclass_field(default_factory=list)
    m_readout: np.ndarray = dataclass_field(default_factory=lambda: np.zeros(2))
    v_readout: np.ndarray = dataclass_field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        if not self.m:
            n = self.network.grid.n
            self.m = [
                LayerGradients(np.zeros((n, n)), np.zeros((n, n)))
                for _ in self.network.layers
            ]
            self.v = [
                LayerGradients(np.zeros((n, n)), np.zeros((n, n)))
                for _ in self.network.layers
            ]


def adam_step(state: TrainState, gradients: Gradients) -> TrainState:
    """One bias-corrected Adam update over all trainable parameters.

    ``gradients`` is the output of :func:`backward` (or a sum of them).
    Frozen arrays (per layer mode) are left untouched. After the update,
    log-amplitudes are clamped to <= 0 so layers stay passive.
    """
    net = state.network
    if len(gradients) != len(net.layers):
        raise GridMismatchError("gradient list length does not match layer count")
    for i, g in enumerate(gradients):
        if not (np.all(np.isfinite(g.phase)) and np.all(np.isfinite(g.log_amplitude))):
            raise TrainingDivergenceError(
                f"non-finite gradient for layer {i} at step {state.step + 1}"
            )
    if not np.all(np.isfinite(gradients.readout)):
        raise TrainingDivergenceError(
            f"non-finite readout gradient at step {state.step + 1}"
        )
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t

    def update(param, m_arr, v_arr, grad):
        m_arr *= b1
        m_arr += (1.0 - b1) * grad
        v_arr *= b2
        v_arr += (1.0 - b2) * grad**2
        param -= state.lr * (m_arr / bias1) / (np.sqrt(v_arr / bias2) + state.eps_hat)

    for layer, m, v, g in zip(net.layers, state.m, state.v, gradients):
        if net.trains_phase:
            update(layer.phase, m.phase, v.phase, g.phase)
        if net.trains_amplitude:
            update(layer.log_amplitude, m.log_amplitude, v.log_amplitude, g.log_amplitude)
            np.minimum(layer.log_amplitude, 0.0, out=layer.log_amplitude)
    update(net.readout, state.m_readout, state.v_readout, gradients.readout)
    net.bump_version()
    return state


def train(
    net: DiffractiveNetwork,
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    epochs: int,
    batch: int = 32,
    lr: float = 0.01,
    shuffle_seed: int = 0,
    on_epoch=None,
) -> tuple[TrainState, list[float]]:
    """Shuffled mini-batch training with Adam.

    ``pairs`` is a sequence of (input image, target image) arrays in [0, 1],
    such as ``training_pairs``, which decodes a pair when it is indexed. Batch
    gradients are sample means accumulated in a fixed order, so identical
    seeds reproduce identical loss curves. Returns the train state and the
    per-epoch mean sample loss. ``on_epoch(epoch, state, loss)`` runs after
    each epoch, for checkpointing.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if not pairs:
        raise ConfigError("training dataset is empty")
    if batch < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch}")
    if not (math.isfinite(lr) and lr > 0):
        raise ConfigError(f"learning rate must be positive and finite, got {lr}")
    n = net.grid.n
    for x_img, y_img in pairs:
        # every input is checked before the first step but encoded only when
        # drawn: a complex field held per pair would double the data's memory
        _check_input_image(x_img, net.grid)
        if y_img.shape != (n, n):
            raise GridMismatchError("dataset image shapes do not match the network grid")

    state = TrainState(net, lr=lr)
    rng = np.random.Generator(np.random.PCG64(shuffle_seed))
    losses: list[float] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        for start in range(0, len(order), batch):
            idx = order[start : start + batch]
            acc: Gradients | None = None
            for j in idx:
                x_img, y_img = pairs[j]  # a lazy sequence decodes the pair here, once
                target = np.asarray(y_img, dtype=np.float64)
                output, tape = forward(net, encode_input(x_img, net.grid))
                epoch_loss += loss_mse(output, target)
                grads = backward(net, tape, output, target)
                if acc is None:
                    acc = grads
                else:
                    for a, g in zip(acc, grads):
                        a.phase += g.phase
                        a.log_amplitude += g.log_amplitude
                    acc.readout += grads.readout
            scale = 1.0 / len(idx)
            for a in acc:
                a.phase *= scale
                a.log_amplitude *= scale
            acc.readout *= scale
            adam_step(state, acc)
        losses.append(epoch_loss / len(pairs))
        if on_epoch is not None:
            on_epoch(epoch, state, losses[-1])
    return state, losses


def predict_image(net: DiffractiveNetwork, distorted_img: np.ndarray) -> np.ndarray:
    """Forward a distorted intensity image and clip the readout to [0, 1].

    [0, 1] is the range the screen encoding produces, so the result always
    decodes to a phase inside the encoding range.
    """
    output, _ = forward(net, encode_input(distorted_img, net.grid))
    return np.clip(output, 0.0, 1.0)


def predict_screen(
    net: DiffractiveNetwork, distorted_img: np.ndarray, encoding: tuple[float, float]
) -> PhaseScreen:
    """Map a distorted intensity image to a predicted phase screen.

    The :func:`predict_image` output in [0, 1] is decoded through the
    dataset's fixed screen encoding range ``(lo, hi)`` by :func:`decode_screen`.
    """
    if encoding is None:
        raise ConfigError("screen encoding range missing; dataset manifest required")
    return PhaseScreen(net.grid, decode_screen(predict_image(net, distorted_img), *encoding))


_MAGIC = b"VAOCKPT1"
_MODE_CODES = {"phase": 0, "amplitude": 1, "hybrid": 2}
_MODE_NAMES = {code: name for name, code in _MODE_CODES.items()}
_CKPT_VERSION = 2
# after the step count: gain, offset, then their Adam m and v moments
_READOUT = struct.Struct("<6d")


def save_checkpoint(path, state: TrainState) -> None:
    """Serialize network geometry, parameters and optimizer state.

    Little-endian binary: magic, version, grid n, dx, wavelength, spacing,
    layer count, mode, then per layer the phase and log-amplitude arrays as
    float64, then the Adam moments and the step count, then the readout
    gain and offset and their Adam moments. Round-trips bit exactly.
    """
    from .images import atomic_write_bytes

    net = state.network
    g = net.grid
    parts = [
        _MAGIC,
        struct.pack(
            "<IIdddIB",
            _CKPT_VERSION,
            g.n,
            g.dx,
            g.wavelength,
            net.spacing,
            len(net.layers),
            _MODE_CODES[net.mode],
        ),
    ]
    for layer in net.layers:
        parts.append(layer.phase.astype("<f8").tobytes())
        parts.append(layer.log_amplitude.astype("<f8").tobytes())
    for m, v in zip(state.m, state.v):
        parts.append(m.phase.astype("<f8").tobytes())
        parts.append(m.log_amplitude.astype("<f8").tobytes())
        parts.append(v.phase.astype("<f8").tobytes())
        parts.append(v.log_amplitude.astype("<f8").tobytes())
    parts.append(
        struct.pack("<Qdddd", state.step, state.lr, state.beta1, state.beta2, state.eps_hat)
    )
    parts.append(_READOUT.pack(*net.readout, *state.m_readout, *state.v_readout))
    atomic_write_bytes(path, b"".join(parts))


def load_checkpoint(path) -> TrainState:
    """Restore a :class:`TrainState` written by :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != _MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    header = struct.Struct("<IIdddIB")
    try:
        version, n, dx, wavelength, spacing, n_layers, mode_code = header.unpack_from(data, 8)
    except struct.error as exc:
        raise CheckpointError(f"{path}: truncated header") from exc
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: schema version {version}, expected {_CKPT_VERSION}")
    if mode_code not in _MODE_NAMES:
        raise CheckpointError(f"{path}: unknown layer mode code {mode_code}")
    mode = _MODE_NAMES[mode_code]
    pos = 8 + header.size
    arr_bytes = n * n * 8
    expected = (
        pos + n_layers * 2 * arr_bytes + n_layers * 4 * arr_bytes + 8 + 32 + _READOUT.size
    )
    if len(data) != expected:
        raise CheckpointError(f"{path}: size {len(data)} != expected {expected}")

    def read_array():
        nonlocal pos
        arr = np.frombuffer(data[pos : pos + arr_bytes], dtype="<f8").reshape(n, n).copy()
        pos += arr_bytes
        return arr

    layers = []
    for i in range(n_layers):
        phase = read_array()
        log_amp = read_array()
        try:
            layers.append(DiffractiveLayer(phase, log_amp))
        except ConfigError as exc:
            raise CheckpointError(f"{path}: layer {i}: {exc}") from exc
    try:
        net = DiffractiveNetwork(GridSpec(n, dx, wavelength), layers, spacing, mode)
    except (ConfigError, DomainError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    m, v = [], []
    for _ in range(n_layers):
        m.append(LayerGradients(read_array(), read_array()))
        v.append(LayerGradients(read_array(), read_array()))
    step, lr, beta1, beta2, eps_hat = struct.unpack_from("<Qdddd", data, pos)
    pos += struct.calcsize("<Qdddd")
    readout = np.array(_READOUT.unpack_from(data, pos)).reshape(3, 2)
    if not np.all(np.isfinite(readout)):
        raise CheckpointError(f"{path}: non-finite readout value")
    net.readout = readout[0].copy()
    return TrainState(
        net,
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        eps_hat=eps_hat,
        step=step,
        m=m,
        v=v,
        m_readout=readout[1].copy(),
        v_readout=readout[2].copy(),
    )
