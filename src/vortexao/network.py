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
and L back, all on plain complex arrays. The same core runs on one plane
``(n, n)`` or on a stack ``(k, n, n)`` of independent samples: every sum and
mean is taken per plane, over the last two axes, and each plane's result is
bit-identical to a pass on that plane alone. ``train`` sends each mini-batch
through it in stacks of about ``CHUNK_PIXELS`` pixels.
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
from .field import ComplexField, GridSpec, PhaseScreen, times_temporary
from .propagation import PropagationKernel, hop, make_kernel

MODES = ("phase", "amplitude", "hybrid")

# readout start: the offset is the encoding of the zero screen, and the gain
# makes the initial output contrast close to the encoded-screen contrast
# (std about 0.1)
READOUT_GAIN = 0.08
READOUT_OFFSET = 0.5

# pixels per training pass: train stacks max(1, CHUNK_PIXELS // n**2) samples,
# 8 at 64 x 64, 2 at 128 x 128 and 1 from 256 x 256 up, which spreads numpy's
# per-call cost over several planes without growing the tape at paper scale
CHUNK_PIXELS = 2**15


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
    """The planes (as arrays) and layer transmissions a forward pass used.

    Planes are ``(n, n)`` for one sample and ``(k, n, n)`` for a stack;
    ``mean_intensity`` holds each plane's mean, shaped to broadcast against
    them (``(1, 1)`` or ``(k, 1, 1)``).
    """

    version: int
    post_layer: list[np.ndarray]
    out_field: np.ndarray
    transmissions: list[np.ndarray]
    raw_intensity: np.ndarray
    mean_intensity: np.ndarray


@dataclass
class LayerGradients:
    """Per-layer loss gradients; frozen arrays carry zeros."""

    phase: np.ndarray
    log_amplitude: np.ndarray


class Gradients:
    """Layer gradients as one ``(L, 2, n, n)`` array, plus the readout's.

    ``params[i]`` holds layer i's phase and log-amplitude gradients, zero
    where the mode freezes them; ``readout`` holds ``(dL/dgain, dL/doffset)``.
    ``grads[i]`` is a :class:`LayerGradients` of views into ``params[i]``.
    For a stack of k samples, :func:`backward` returns ``(L, 2, k, n, n)``
    and ``(2, k)`` arrays: sample s's gradients are ``params[:, :, s]`` and
    ``readout[:, s]``.
    """

    def __init__(self, params, readout=(0.0, 0.0)):
        self.params = np.asarray(params, dtype=np.float64)
        self.readout = np.array(readout, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.params)

    def __getitem__(self, i: int) -> LayerGradients:
        return LayerGradients(*self.params[i])


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
    return ComplexField(grid, _encode(_check_input_image(img, grid), grid.dx))


def _encode(img: np.ndarray, dx: float) -> np.ndarray:
    """:func:`encode_input`'s field for one checked image or a stack of them."""
    u = np.sqrt(np.clip(img, 0.0, None)).astype(np.complex128)
    u /= np.sqrt(np.sum(np.abs(u) ** 2, axis=(-2, -1), keepdims=True) * dx**2)
    return u


def forward(net: DiffractiveNetwork, input_field: ComplexField) -> tuple[np.ndarray, ForwardTape]:
    """Run the optical forward model.

    Returns the readout image ``offset + gain * (I / mean(I) - 1)`` of the
    output-plane intensity ``I`` together with the tape of every
    intermediate field. The image has mean ``offset`` and is unbounded, so it
    can leave [0, 1]; :func:`predict_image` limits it before decoding.
    """
    if input_field.grid != net.grid:
        raise GridMismatchError("input field grid does not match the network grid")
    return _forward(net, input_field.values)


def _forward(
    net: DiffractiveNetwork, u: np.ndarray, record: bool = True
) -> tuple[np.ndarray, ForwardTape | None]:
    """:func:`forward` on one input plane ``(n, n)`` or a stack ``(k, n, n)``.

    ``record=False`` builds no tape and runs every hop and product in place in ``u``.
    """
    h = net.kernel.h
    transmissions = [layer.transmission() for layer in net.layers]
    post = []
    for t in transmissions:
        u = hop(u, h) if record else hop(u, h, out=u)  # a fresh buffer on a tape
        u *= t
        post.append(u)
    out_field = hop(u, h) if record else hop(u, h, out=u)
    raw = np.abs(out_field) ** 2
    # each plane's mean as np.mean takes it, the sum over the count, without its overhead
    mean = raw.sum(axis=(-2, -1), keepdims=True) / (raw.shape[-2] * raw.shape[-1])
    if (mean <= 0).any():
        raise DomainError("forward pass produced an identically zero output")
    gain, offset = net.readout
    output = offset + gain * (raw / mean - 1.0)
    tape = ForwardTape(net.version, post, out_field, transmissions, raw, mean) if record else None
    return output, tape


def loss_mse(output: np.ndarray, ground_truth: np.ndarray):
    """Pixel-mean squared error between two equally shaped images.

    A float for two ``(n, n)`` images; for two ``(k, n, n)`` stacks, the
    array of the k plane-by-plane errors.
    """
    output = np.asarray(output, dtype=np.float64)
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    if output.shape != ground_truth.shape:
        raise GridMismatchError(
            f"image shapes differ: {output.shape} vs {ground_truth.shape}"
        )
    mse = np.mean((output - ground_truth) ** 2, axis=(-2, -1))
    return float(mse) if output.ndim == 2 else mse


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
    For a stack of samples the gradients are per sample, see :class:`Gradients`.
    """
    if tape.version != net.version:
        raise StaleTapeError(
            f"tape recorded at version {tape.version}, network now at {net.version}"
        )
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    n_pix = output.shape[-2] * output.shape[-1]
    residual = 2.0 * (output - ground_truth) / n_pix  # dL/d(output)

    # through the readout: output = offset + gain * (I / mean(I) - 1)
    gain = net.readout[0]
    contrast = tape.raw_intensity / tape.mean_intensity - 1.0
    d_gain = np.sum(residual * contrast, axis=(-2, -1), keepdims=True)
    d_offset = np.sum(residual, axis=(-2, -1), keepdims=True)
    grad_i = (gain / tape.mean_intensity) * (residual - (d_gain + d_offset) / n_pix)
    # through the squared modulus: A = dL/d(conj u_out)
    adj = grad_i * tape.out_field

    h_adjoint = net.kernel.h_adjoint
    n_layers = len(tape.post_layer)
    params = np.zeros((n_layers, 2, *output.shape))
    for i in reversed(range(n_layers)):
        adj = hop(adj, h_adjoint)
        c = np.conj(tape.post_layer[i])
        prod = times_temporary(adj, c, out=c)
        # written straight into the slices: a temporary and a copy slow train() at 256
        if net.trains_phase:
            np.multiply(prod.imag, 2.0, out=params[i, 0])
        if net.trains_amplitude:
            np.multiply(prod.real, 2.0, out=params[i, 1])
        if i > 0:
            adj = times_temporary(adj, np.conj(tape.transmissions[i]), out=adj)
    return Gradients(params, readout=(d_gain[..., 0, 0], d_offset[..., 0, 0]))


@dataclass
class TrainState:
    """Network plus Adam accumulators.

    ``moments[i]`` holds layer i's Adam m and v, each laid out like
    ``Gradients.params[i]``; ``m_readout`` and ``v_readout`` hold the readout's.
    ``adam_step`` updates the network parameters in place (single writer)
    and returns the same state for chaining.
    """

    network: DiffractiveNetwork
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1e-8
    step: int = 0
    moments: np.ndarray | None = None
    m_readout: np.ndarray = dataclass_field(default_factory=lambda: np.zeros(2))
    v_readout: np.ndarray = dataclass_field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        if self.moments is None:
            n = self.network.grid.n
            self.moments = np.zeros((len(self.network.layers), 2, 2, n, n))


def adam_step(state: TrainState, gradients: Gradients) -> TrainState:
    """One bias-corrected Adam update over all trainable parameters.

    ``gradients`` is the output of :func:`backward` (or a sum of them).
    Frozen arrays (per layer mode) are left untouched. After the update,
    log-amplitudes are clamped to <= 0 so layers stay passive.
    """
    net = state.network
    expected = (len(net.layers), 2, net.grid.n, net.grid.n)
    if gradients.params.shape != expected:
        raise GridMismatchError(f"gradient shape {gradients.params.shape}, expected {expected}")
    finite = np.isfinite(gradients.params).all(axis=(1, 2, 3))
    if not finite.all():
        raise TrainingDivergenceError(
            f"non-finite gradient for layer {int(np.argmin(finite))} at step {state.step + 1}"
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

    for layer, (m, v), g in zip(net.layers, state.moments, gradients.params):
        if net.trains_phase:
            update(layer.phase, m[0], v[0], g[0])
        if net.trains_amplitude:
            update(layer.log_amplitude, m[1], v[1], g[1])
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
    such as ``training_pairs``, which decodes a pair when it is indexed. Each
    mini-batch goes through :func:`backward` in stacks of up to
    ``max(1, CHUNK_PIXELS // n**2)`` samples. Batch gradients are sample means
    accumulated one sample at a time in draw order, so identical seeds
    reproduce identical loss curves, equal bit for bit to one pass per sample.
    Returns the train state and the per-epoch mean sample loss.
    ``on_epoch(epoch, state, loss)`` runs after each epoch, for checkpointing.
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
    chunk = max(1, CHUNK_PIXELS // n**2)
    losses: list[float] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        for start in range(0, len(order), batch):
            idx = order[start : start + batch]
            acc: Gradients | None = None
            for first in range(0, len(idx), chunk):
                # a lazy sequence decodes each pair here, once
                drawn = [pairs[j] for j in idx[first : first + chunk]]
                x = np.stack([_check_input_image(x_img, net.grid) for x_img, _ in drawn])
                y = np.stack([np.asarray(y_img, dtype=np.float64) for _, y_img in drawn])
                output, tape = _forward(net, _encode(x, net.grid.dx))
                grads = backward(net, tape, output, y)
                # summed sample by sample in draw order, as one pass per sample would
                for s, loss in enumerate(loss_mse(output, y).tolist()):
                    epoch_loss += loss
                    if acc is None:
                        acc = Gradients(grads.params[:, :, s].copy(), grads.readout[:, s])
                    else:
                        acc.params += grads.params[:, :, s]
                        acc.readout += grads.readout[:, s]
                # a stack's tape and gradients are k planes deep: freed here, not
                # when the next stack's pass rebinds them, so two never coexist
                del output, tape, grads
            scale = 1.0 / len(idx)
            acc.params *= scale
            acc.readout *= scale
            adam_step(state, acc)
        losses.append(epoch_loss / len(pairs))
        if on_epoch is not None:
            on_epoch(epoch, state, losses[-1])
    return state, losses


def predict_image(net: DiffractiveNetwork, distorted_img: np.ndarray) -> np.ndarray:
    """Forward a distorted intensity image and clip the readout to [0, 1].

    [0, 1] is the range the screen encoding produces, so the result always
    decodes to a phase inside the encoding range. The pass records no tape and
    runs in place in the encoded input's buffer; the output equals
    :func:`forward`'s bit for bit.
    """
    output, _ = _forward(net, encode_input(distorted_img, net.grid).values, record=False)
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
# version, grid n, dx, wavelength, spacing, layer count, mode code
_HEADER = struct.Struct("<IIdddIB")
# step count, learning rate, Adam beta1 and beta2, epsilon
_OPTIMIZER = struct.Struct("<Qdddd")
# after the optimizer: readout gain, offset, then their Adam m and v moments
_READOUT = struct.Struct("<6d")


def save_checkpoint(path, state: TrainState) -> None:
    """Serialize network geometry, parameters and optimizer state.

    Little-endian binary: magic, the ``_HEADER`` fields, the ``(L, 2, n, n)``
    per-layer phase and log-amplitude arrays as float64, ``state.moments`` in
    C order, the ``_OPTIMIZER`` fields, then the readout gain and offset and
    their Adam moments. Round-trips bit exactly.
    """
    from .images import atomic_write_bytes

    net = state.network
    g = net.grid
    header = _HEADER.pack(
        _CKPT_VERSION, g.n, g.dx, g.wavelength, net.spacing, len(net.layers), _MODE_CODES[net.mode]
    )
    params = np.array([(layer.phase, layer.log_amplitude) for layer in net.layers], dtype="<f8")
    parts = [
        _MAGIC,
        header,
        params.tobytes(),
        state.moments.astype("<f8").tobytes(),
        _OPTIMIZER.pack(state.step, state.lr, state.beta1, state.beta2, state.eps_hat),
        _READOUT.pack(*net.readout, *state.m_readout, *state.v_readout),
    ]
    atomic_write_bytes(path, b"".join(parts))


def load_checkpoint(path) -> TrainState:
    """Restore a :class:`TrainState` written by :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != _MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    try:
        version, n, dx, wavelength, spacing, n_layers, mode_code = _HEADER.unpack_from(data, 8)
    except struct.error as exc:
        raise CheckpointError(f"{path}: truncated header") from exc
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: schema version {version}, expected {_CKPT_VERSION}")
    if mode_code not in _MODE_NAMES:
        raise CheckpointError(f"{path}: unknown layer mode code {mode_code}")
    mode = _MODE_NAMES[mode_code]
    pos = 8 + _HEADER.size
    count = 6 * n_layers * n * n  # the layer arrays, then the moments
    expected = pos + 8 * count + _OPTIMIZER.size + _READOUT.size
    if len(data) != expected:
        raise CheckpointError(f"{path}: size {len(data)} != expected {expected}")
    arrays = np.frombuffer(data, "<f8", count, pos).reshape(3 * n_layers, 2, n, n)
    pos += 8 * count
    layers = []
    for i, (phase, log_amp) in enumerate(arrays[:n_layers]):
        try:
            layers.append(DiffractiveLayer(phase.copy(), log_amp.copy()))
        except ConfigError as exc:
            raise CheckpointError(f"{path}: layer {i}: {exc}") from exc
    try:
        net = DiffractiveNetwork(GridSpec(n, dx, wavelength), layers, spacing, mode)
    except (ConfigError, DomainError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    step, lr, beta1, beta2, eps_hat = _OPTIMIZER.unpack_from(data, pos)
    readout = np.array(_READOUT.unpack_from(data, pos + _OPTIMIZER.size)).reshape(3, 2)
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
        moments=arrays[n_layers:].reshape(n_layers, 2, 2, n, n).copy(),
        m_readout=readout[1].copy(),
        v_readout=readout[2].copy(),
    )
