import copy
import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexao import (
    CheckpointError,
    ComplexField,
    ConfigError,
    DiffractiveLayer,
    DiffractiveNetwork,
    DomainError,
    GridSpec,
    StaleTapeError,
    TrainState,
    TrainingDivergenceError,
    VortexAOError,
    adam_step,
    backward,
    encode_input,
    forward,
    intensity,
    load_checkpoint,
    loss_mse,
    make_kernel,
    predict_screen,
    propagate,
    propagate_adjoint,
    save_checkpoint,
    train,
)
from vortexao import network
from vortexao.network import MODES, Gradients, LayerGradients, predict_image


def small_net(grid, n_layers=2, mode="hybrid", seed=3, spacing=None):
    net = DiffractiveNetwork.build(grid, n_layers=n_layers, mode=mode, spacing=spacing)
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        layer.phase = rng.uniform(-np.pi, np.pi, (grid.n, grid.n))
        if mode != "phase":
            layer.log_amplitude = -rng.uniform(0, 0.5, (grid.n, grid.n))
    return net


def random_pair(grid, rng):
    img = rng.uniform(0, 1, (grid.n, grid.n))
    img.flat[0], img.flat[1] = 0.0, 1.0
    gt = rng.uniform(0, 1, (grid.n, grid.n))
    return img, gt


class TestEncodeInput:
    def test_all_ones_plane_wave(self, grid16):
        field = encode_input(np.ones((16, 16)), grid16)
        assert np.abs(field.values - field.values[0, 0]).max() < 1e-15
        assert field.power == pytest.approx(1.0)

    def test_single_pixel_point_source(self, grid16):
        img = np.zeros((16, 16))
        img[4, 9] = 1.0
        field = encode_input(img, grid16)
        assert field.values[4, 9] != 0
        assert np.count_nonzero(field.values) == 1

    def test_intensity_reproduces_image(self, grid64):
        from vortexao import make_vortex_beam, normalize_image

        img = normalize_image(intensity(make_vortex_beam(grid64, -3, 3.5e-3)))
        field = encode_input(img, grid64)
        out = normalize_image(intensity(field))
        assert np.abs(out - img).max() < 1e-12

    def test_rejects_unnormalized(self, grid16):
        with pytest.raises(DomainError):
            encode_input(np.full((16, 16), 2.0), grid16)


class TestForward:
    def test_transparent_network_is_free_space(self, grid64):
        from vortexao import make_vortex_beam

        net = DiffractiveNetwork.build(grid64, n_layers=3, spacing=0.05)
        beam = make_vortex_beam(grid64, -3, 3.5e-3)
        _, tape = forward(net, beam)
        direct = propagate(beam, make_kernel(grid64, 4 * 0.05))
        assert np.abs(tape.out_field - direct.values).max() < 1e-12

    def test_single_lens_layer_focuses(self, grid64):
        spacing = 0.2
        net = DiffractiveNetwork.build(grid64, n_layers=1, spacing=spacing)
        x, y = grid64.mesh()
        k = 2 * np.pi / grid64.wavelength
        net.layers[0].phase = -k * (x**2 + y**2) / (2 * spacing)
        flat = encode_input(np.ones((64, 64)), grid64)
        _, tape = forward(net, flat)
        out_peak = (np.abs(tape.out_field) ** 2).max()
        in_peak = intensity(flat).max()
        assert out_peak > 10 * in_peak

    def test_output_normalized(self, grid16, rng):
        # affine readout of the output-plane intensity: offset + gain * (I/mean(I) - 1)
        net = small_net(grid16)
        net.readout[:] = (0.3, 0.45)
        img, _ = random_pair(grid16, rng)
        out, tape = forward(net, encode_input(img, grid16))
        i_out = np.abs(tape.out_field) ** 2
        np.testing.assert_allclose(out, 0.45 + 0.3 * (i_out / i_out.mean() - 1), atol=1e-12)
        # a fresh network reads out around the zero-screen gray level
        fresh, _ = forward(small_net(grid16), encode_input(img, grid16))
        assert fresh.mean() == pytest.approx(0.5, abs=1e-12)


class TestLossMse:
    def test_identical(self, rng):
        img = rng.uniform(0, 1, (8, 8))
        assert loss_mse(img, img) == 0.0

    def test_constant_offset(self):
        gt = np.full((8, 8), 0.3)
        assert loss_mse(gt + 0.1, gt) == pytest.approx(0.01, rel=1e-12)

    def test_matches_independent_summation(self, rng):
        import math

        a = rng.uniform(0, 1, (16, 16))
        b = rng.uniform(0, 1, (16, 16))
        oracle = math.fsum((x - y) ** 2 for x, y in zip(a.ravel(), b.ravel())) / a.size
        assert loss_mse(a, b) == pytest.approx(oracle, rel=1e-12)


class TestBackward:
    def test_gradient_matches_finite_difference(self, grid16, rng):
        # central differences on 100 randomly chosen parameters
        net = small_net(grid16)
        img, gt = random_pair(grid16, rng)
        field = encode_input(img, grid16)
        out, tape = forward(net, field)
        grads = backward(net, tape, out, gt)

        def loss_now():
            o, _ = forward(net, field)
            return loss_mse(o, gt)

        def fd_at(arr, idx):
            delta = 1e-6
            keep = arr[idx]
            arr[idx] = keep + delta
            lp = loss_now()
            arr[idx] = keep - delta
            lm = loss_now()
            arr[idx] = keep
            return (lp - lm) / (2 * delta)

        for _ in range(100):
            li = int(rng.integers(0, len(net.layers)))
            name = ("phase", "log_amplitude")[int(rng.integers(0, 2))]
            i, j = (int(v) for v in rng.integers(0, grid16.n, 2))
            fd = fd_at(getattr(net.layers[li], name), (i, j))
            an = getattr(grads[li], name)[i, j]
            assert abs(an - fd) <= 1e-4 * max(abs(fd), 1e-10)
        # readout gain and offset
        for k in range(2):
            fd = fd_at(net.readout, k)
            assert abs(grads.readout[k] - fd) <= 1e-4 * max(abs(fd), 1e-10)

    def test_zero_residual_zero_gradient(self, grid16, rng):
        net = small_net(grid16)
        img, _ = random_pair(grid16, rng)
        out, tape = forward(net, encode_input(img, grid16))
        grads = backward(net, tape, out, out.copy())
        for g in grads:
            assert np.all(g.phase == 0)
            assert np.all(g.log_amplitude == 0)

    def test_phase_only_freezes_amplitude(self, grid16, rng):
        net = small_net(grid16, mode="phase")
        img, gt = random_pair(grid16, rng)
        out, tape = forward(net, encode_input(img, grid16))
        grads = backward(net, tape, out, gt)
        assert all(np.all(g.log_amplitude == 0) for g in grads)
        assert any(np.abs(g.phase).max() > 0 for g in grads)

    def test_stale_tape_rejected(self, grid16, rng):
        net = small_net(grid16)
        img, gt = random_pair(grid16, rng)
        out, tape = forward(net, encode_input(img, grid16))
        grads = backward(net, tape, out, gt)
        adam_step(TrainState(net), grads)
        with pytest.raises(StaleTapeError):
            backward(net, tape, out, gt)


def reference_backward(net, tape, output, ground_truth):
    """The backward pass on ComplexField planes, hopping back to the input plane.

    An independent statement of the adjoint chain: each transmission is read
    from its layer and every plane is wrapped in a field, and after layer 1
    the adjoint is carried through ``conj(t)`` and one more hop, whose result
    nothing reads.
    """
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    n_pix = output.size
    residual = 2.0 * (output - ground_truth) / n_pix
    gain = net.readout[0]
    contrast = tape.raw_intensity / tape.mean_intensity - 1.0
    d_gain = float(np.sum(residual * contrast))
    d_offset = float(np.sum(residual))
    grad_i = (gain / tape.mean_intensity) * (residual - (d_gain + d_offset) / n_pix)
    adj = ComplexField(net.grid, grad_i * tape.out_field)
    grads = Gradients(readout=(d_gain, d_offset))
    adj = propagate_adjoint(adj, net.kernel)
    for layer, v_post in zip(reversed(net.layers), reversed(tape.post_layer)):
        prod = adj.values * np.conj(v_post)
        g_phase = 2.0 * np.imag(prod) if net.trains_phase else np.zeros(prod.shape)
        g_amp = 2.0 * np.real(prod) if net.trains_amplitude else np.zeros(prod.shape)
        grads.append(LayerGradients(g_phase, g_amp))
        adj = ComplexField(net.grid, adj.values * np.conj(layer.transmission()))
        adj = propagate_adjoint(adj, net.kernel)
    grads.reverse()
    return grads


def assert_same_gradients(a, b):
    assert len(a) == len(b)
    for ga, gb in zip(a, b):
        np.testing.assert_array_equal(ga.phase, gb.phase)
        np.testing.assert_array_equal(ga.log_amplitude, gb.log_amplitude)
    np.testing.assert_array_equal(a.readout, b.readout)


def reference_forward(net, input_field):
    """The forward pass with each hop as two 2-D transforms and each layer product
    into a new array: ``(output, post_layer, out_field)``."""

    def fft2_hop(u, h):
        return np.fft.ifft2(np.fft.fft2(u, norm="ortho") * h, norm="ortho")

    h = net.kernel.h
    post = []
    u = input_field.values
    for layer in net.layers:
        u = fft2_hop(u, h) * layer.transmission()
        post.append(u)
    out_field = fft2_hop(u, h)
    raw = np.abs(out_field) ** 2
    gain, offset = net.readout
    return offset + gain * (raw / float(raw.mean()) - 1.0), post, out_field


class TestArrayCore:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("mode", MODES)
    def test_forward_equals_fft2_reference(self, n, mode, rng):
        grid = GridSpec(n, 0.01 / n, 633e-9)
        net = small_net(grid, n_layers=3, mode=mode)
        field = encode_input(random_pair(grid, rng)[0], grid)
        before = field.values.copy()
        out, tape = forward(net, field)
        ref_out, ref_post, ref_field = reference_forward(net, field)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(tape.out_field, ref_field)
        assert len(tape.post_layer) == len(ref_post)
        for v, ref in zip(tape.post_layer, ref_post):
            np.testing.assert_array_equal(v, ref)
        np.testing.assert_array_equal(field.values, before)

    def test_tape_planes_are_distinct_and_survive_backward(self, grid64, rng):
        net = small_net(grid64, n_layers=3)
        img, gt = random_pair(grid64, rng)
        field = encode_input(img, grid64)
        out, tape = forward(net, field)
        planes = [*tape.post_layer, tape.out_field, field.values]
        for i, a in enumerate(planes):
            for b in planes[i + 1 :]:
                assert not np.shares_memory(a, b)
        saved = [v.copy() for v in tape.post_layer]
        backward(net, tape, out, gt)
        for v, s in zip(tape.post_layer, saved):
            np.testing.assert_array_equal(v, s)

    # 256 x 256 is past the size where numpy reuses a temporary operand of a
    # product, so a reordered product in backward changes bits there
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("mode", MODES)
    def test_backward_equals_field_reference(self, n, mode, rng):
        grid = GridSpec(n, 0.01 / n, 633e-9)
        net = small_net(grid, n_layers=3, mode=mode)
        img, gt = random_pair(grid, rng)
        out, tape = forward(net, encode_input(img, grid))
        assert_same_gradients(backward(net, tape, out, gt), reference_backward(net, tape, out, gt))

    def test_layer_edit_after_forward_leaves_backward(self, grid16, rng):
        # backward differentiates the parameters forward saw, read from the tape
        net = small_net(grid16, n_layers=3)
        img, gt = random_pair(grid16, rng)
        out, tape = forward(net, encode_input(img, grid16))
        before = backward(net, tape, out, gt)
        net.layers[2].phase[4, 4] += 0.7
        net.layers[1].log_amplitude[2, 3] -= 0.3
        assert_same_gradients(backward(net, tape, out, gt), before)

    def test_tape_holds_the_cached_transmissions(self, grid16, rng):
        net = small_net(grid16, n_layers=3)
        _, tape = forward(net, encode_input(random_pair(grid16, rng)[0], grid16))
        assert len(tape.transmissions) == 3
        for layer, t in zip(net.layers, tape.transmissions):
            assert t is layer.transmission()

    @pytest.mark.parametrize("n_layers", [1, 5])
    def test_hop_and_transmission_counts(self, grid16, rng, monkeypatch, n_layers):
        calls = {"hop": 0, "transmission": 0}
        hop, transmission = network.hop, DiffractiveLayer.transmission

        def counting_hop(u, h):
            calls["hop"] += 1
            return hop(u, h)

        def counting_transmission(layer):
            calls["transmission"] += 1
            return transmission(layer)

        net = small_net(grid16, n_layers=n_layers)
        img, gt = random_pair(grid16, rng)
        monkeypatch.setattr(network, "hop", counting_hop)
        monkeypatch.setattr(DiffractiveLayer, "transmission", counting_transmission)
        out, tape = forward(net, encode_input(img, grid16))
        backward(net, tape, out, gt)
        # L + 1 hops forward, L back; one transmission per layer, all in forward
        assert calls == {"hop": 2 * n_layers + 1, "transmission": n_layers}

    def test_unknown_mode_rejected(self, grid16):
        with pytest.raises(ConfigError, match="mode"):
            DiffractiveNetwork(grid16, [DiffractiveLayer.identity(16)], 0.05, mode="both")
        with pytest.raises(ConfigError, match="mode"):
            DiffractiveNetwork.build(grid16, n_layers=1, mode="phase-only")

    @pytest.mark.parametrize(
        "mode, trains",
        [("phase", (True, False)), ("amplitude", (False, True)), ("hybrid", (True, True))],
    )
    def test_mode_selects_trained_arrays(self, grid16, mode, trains):
        net = DiffractiveNetwork(grid16, [DiffractiveLayer.identity(16)], 0.05, mode=mode)
        assert (net.trains_phase, net.trains_amplitude) == trains


class TestAdamStep:
    def test_zero_gradient_no_motion(self, grid16):
        net = small_net(grid16)
        before = [layer.phase.copy() for layer in net.layers]
        state = TrainState(net)
        zeros = Gradients(
            LayerGradients(np.zeros((16, 16)), np.zeros((16, 16))) for _ in net.layers
        )
        adam_step(state, zeros)
        assert state.step == 1
        for layer, keep in zip(net.layers, before):
            np.testing.assert_array_equal(layer.phase, keep)

    def test_constant_gradient_asymptotic_rate(self, grid16):
        # with a constant gradient the bias-corrected step tends to -lr*sign(g)
        net = DiffractiveNetwork.build(grid16, n_layers=1, spacing=0.5)
        state = TrainState(net, lr=0.01)
        g = np.full((16, 16), 0.37)
        grads = Gradients([LayerGradients(g, np.zeros((16, 16)))])
        for _ in range(50):
            adam_step(state, grads)
        before = net.layers[0].phase.copy()
        adam_step(state, grads)
        step = net.layers[0].phase - before
        np.testing.assert_allclose(step, -0.01, rtol=1e-3)

    def test_nan_gradient_rejected(self, grid16):
        net = small_net(grid16)
        state = TrainState(net)
        bad = Gradients(
            LayerGradients(np.full((16, 16), np.nan), np.zeros((16, 16)))
            for _ in net.layers
        )
        with pytest.raises(TrainingDivergenceError):
            adam_step(state, bad)

    def test_nan_readout_gradient_rejected(self, grid16):
        net = small_net(grid16)
        zeros = [
            LayerGradients(np.zeros((16, 16)), np.zeros((16, 16))) for _ in net.layers
        ]
        with pytest.raises(TrainingDivergenceError):
            adam_step(TrainState(net), Gradients(zeros, readout=(np.nan, 0.0)))

    def test_readout_follows_its_gradient(self, grid16):
        net = small_net(grid16)
        zeros = [
            LayerGradients(np.zeros((16, 16)), np.zeros((16, 16))) for _ in net.layers
        ]
        before = net.readout.copy()
        adam_step(TrainState(net, lr=0.01), Gradients(zeros, readout=(2.0, -3.0)))
        # the first bias-corrected Adam step moves each scalar by lr against its sign
        np.testing.assert_allclose(net.readout - before, [-0.01, 0.01], rtol=1e-6)

    def test_amplitude_stays_passive(self, grid16, rng):
        net = small_net(grid16)
        state = TrainState(net, lr=0.1)
        for _ in range(20):
            grads = Gradients(
                LayerGradients(
                    rng.normal(0, 1, (16, 16)), rng.normal(0, 1, (16, 16))
                )
                for _ in net.layers
            )
            adam_step(state, grads)
        for layer in net.layers:
            amp = np.exp(layer.log_amplitude)
            assert np.all(amp > 0) and np.all(amp <= 1.0)

    def test_mode_freezing_under_updates(self, grid16, rng):
        net = small_net(grid16, mode="amplitude")
        phases = [layer.phase.copy() for layer in net.layers]
        state = TrainState(net)
        grads = Gradients(
            LayerGradients(rng.normal(0, 1, (16, 16)), rng.normal(0, 1, (16, 16)))
            for _ in net.layers
        )
        adam_step(state, grads)
        for layer, keep in zip(net.layers, phases):
            np.testing.assert_array_equal(layer.phase, keep)


class TestTrain:
    def test_epochs_zero_rejected(self, grid16, rng):
        net = small_net(grid16)
        with pytest.raises(ConfigError):
            train(net, [random_pair(grid16, rng)], epochs=0)

    def test_empty_dataset_rejected(self, grid16):
        with pytest.raises(ConfigError):
            train(small_net(grid16), [], epochs=1)

    def test_geometry_mismatch_rejected(self, grid16, rng):
        net = small_net(grid16)
        bad = [(rng.uniform(0, 1, (32, 32)), rng.uniform(0, 1, (32, 32)))]
        with pytest.raises(Exception):
            train(net, bad, epochs=1)

    def test_single_pair_overfit(self, grid16, rng):
        # capacity check: one training pair driven below 1e-3 in 200 epochs
        img, gt = random_pair(grid16, rng)
        net = DiffractiveNetwork.build(grid16, n_layers=2, mode="hybrid")
        _, losses = train(net, [(img, gt)], epochs=200, batch=1, lr=0.01, shuffle_seed=0)
        assert losses[-1] < 1e-3

    def test_deterministic_loss_curve(self, grid16, rng):
        pairs = [random_pair(grid16, rng) for _ in range(6)]
        net_a = small_net(grid16, seed=9)
        net_b = small_net(grid16, seed=9)
        _, la = train(net_a, pairs, epochs=3, batch=2, lr=0.01, shuffle_seed=5)
        _, lb = train(net_b, pairs, epochs=3, batch=2, lr=0.01, shuffle_seed=5)
        assert la == lb

    def test_bad_input_rejected_before_first_step(self, grid16, rng):
        # inputs are encoded lazily, but every one is checked before training
        net = small_net(grid16)
        before = [layer.phase.copy() for layer in net.layers]
        pairs = [random_pair(grid16, rng) for _ in range(4)]
        pairs[-1] = (np.full((16, 16), 2.0), pairs[-1][1])
        with pytest.raises(DomainError):
            train(net, pairs, epochs=1, batch=1, lr=0.01)
        assert net.version == 0
        for layer, phase in zip(net.layers, before):
            np.testing.assert_array_equal(layer.phase, phase)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, 0.0, -0.01])
    def test_bad_learning_rate_rejected(self, grid16, rng, lr):
        net = small_net(grid16)
        with pytest.raises(ConfigError, match="learning rate"):
            train(net, [random_pair(grid16, rng)], epochs=1, lr=lr)
        assert net.version == 0

    def test_loss_history_length(self, grid16, rng):
        pairs = [random_pair(grid16, rng) for _ in range(4)]
        _, losses = train(small_net(grid16), pairs, epochs=7, batch=2, lr=0.01)
        assert len(losses) == 7


class TestPredictScreen:
    def test_degenerate_encoding_returns_zero_screen(self, grid16, rng):
        # zero-turbulence datasets collapse the encoding range; any output
        # image then decodes to the exact zero screen
        net = small_net(grid16)
        img, _ = random_pair(grid16, rng)
        pred = predict_screen(net, img, (0.0, 0.0))
        assert np.all(pred.phase == 0)

    def test_missing_encoding_rejected(self, grid16, rng):
        net = small_net(grid16)
        img, _ = random_pair(grid16, rng)
        with pytest.raises(ConfigError):
            predict_screen(net, img, None)

    def test_reversed_range_rejected(self, grid16, rng):
        net = small_net(grid16)
        img, _ = random_pair(grid16, rng)
        with pytest.raises(DomainError):
            predict_screen(net, img, (2.0, -2.0))

    def test_decodes_through_range(self, grid16, rng):
        net = small_net(grid16)
        img, _ = random_pair(grid16, rng)
        pred = predict_screen(net, img, (-2.0, 2.0))
        assert pred.phase.min() >= -2.0
        assert pred.phase.max() <= 2.0

    def test_readout_outside_unit_range_is_clipped(self, grid16, rng):
        # a strong readout gain drives the raw image outside [0, 1]; the
        # prediction still decodes inside the encoding range
        net = small_net(grid16)
        net.readout[:] = (5.0, 0.5)
        img, _ = random_pair(grid16, rng)
        raw, _ = forward(net, encode_input(img, grid16))
        assert raw.min() < 0.0 and raw.max() > 1.0
        pred = predict_screen(net, img, (-2.0, 2.0))
        assert pred.phase.min() == -2.0
        assert pred.phase.max() == 2.0


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, grid16, rng, tmp_path):
        net = small_net(grid16)
        pairs = [random_pair(grid16, rng) for _ in range(3)]
        state, _ = train(net, pairs, epochs=2, batch=2, lr=0.01)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert loaded.step == state.step
        assert loaded.network.grid == net.grid
        assert loaded.network.spacing == net.spacing
        for a, b in zip(net.layers, loaded.network.layers):
            np.testing.assert_array_equal(a.phase, b.phase)
            np.testing.assert_array_equal(a.log_amplitude, b.log_amplitude)
        for ma, mb in zip(state.m, loaded.m):
            np.testing.assert_array_equal(ma.phase, mb.phase)
        path2 = tmp_path / "model2.ckpt"
        save_checkpoint(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_rejected(self, grid16, tmp_path):
        net = small_net(grid16)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, TrainState(net))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_readout_roundtrip(self, grid16, rng, tmp_path):
        pairs = [random_pair(grid16, rng) for _ in range(3)]
        state, _ = train(small_net(grid16), pairs, epochs=2, batch=2, lr=0.01)
        assert np.all(state.m_readout != 0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.network.readout, state.network.readout)
        np.testing.assert_array_equal(loaded.m_readout, state.m_readout)
        np.testing.assert_array_equal(loaded.v_readout, state.v_readout)

    @pytest.mark.parametrize("slot", range(6))
    def test_non_finite_readout_rejected(self, grid16, tmp_path, slot):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, TrainState(small_net(grid16)))
        data = bytearray(path.read_bytes())
        # the readout block is the last 6 float64 values of the file
        pos = len(data) - 48 + 8 * slot
        data[pos : pos + 8] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("array", range(4))
    def test_non_finite_layer_array_rejected(self, grid16, tmp_path, array):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, TrainState(small_net(grid16)))
        data = bytearray(path.read_bytes())
        # the layer arrays follow the 8-byte magic and the fixed header, phase
        # then log-amplitude for each layer
        header = 8 + struct.calcsize("<IIdddIB")
        pos = header + array * 16 * 16 * 8 + 8 * 37
        data[pos : pos + 8] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="model.ckpt"):
            load_checkpoint(path)

    def test_mode_preserved(self, grid16, tmp_path):
        net = small_net(grid16, mode="phase")
        path = tmp_path / "p.ckpt"
        save_checkpoint(path, TrainState(net))
        assert load_checkpoint(path).network.mode == "phase"


DATA = Path(__file__).resolve().parent / "data"


def fixture_state(mode):
    """The training run whose checkpoints are stored in ``tests/data``."""
    grid = GridSpec(8, 0.01 / 8, 633e-9)
    net = small_net(grid, mode=mode, seed=21)
    rng = np.random.default_rng(22)
    pairs = [random_pair(grid, rng) for _ in range(3)]
    state, _ = train(net, pairs, epochs=2, batch=2, lr=0.01, shuffle_seed=1)
    return state


class TestStoredCheckpoints:
    """Schema-2 files written before the network held its mode stay byte-stable."""

    @pytest.mark.parametrize("mode", MODES)
    def test_load_and_resave_identical(self, tmp_path, mode):
        stored = DATA / f"checkpoint_{mode}.ckpt"
        state = load_checkpoint(stored)
        assert state.network.mode == mode
        path = tmp_path / "again.ckpt"
        save_checkpoint(path, state)
        assert path.read_bytes() == stored.read_bytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_training_reproduces_stored_bytes(self, tmp_path, mode):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, fixture_state(mode))
        assert path.read_bytes() == (DATA / f"checkpoint_{mode}.ckpt").read_bytes()


HEADER = struct.Struct("<IIdddIB")


class TestCorruptCheckpoint:
    """A corrupt checkpoint raises a package error or loads into a usable network."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        save_checkpoint(path, TrainState(small_net(GridSpec(16, 0.01 / 16, 633e-9))))
        return path, path.read_bytes()

    @pytest.mark.parametrize("dx", [1e200, 1e-200])
    def test_corrupt_grid_spacing_rejected(self, saved, dx):
        path, data = saved
        # dx follows the magic, the schema version and n
        corrupt = data[:16] + struct.pack("<d", dx) + data[24:]
        path.write_bytes(corrupt)
        with pytest.raises(CheckpointError, match="model.ckpt"):
            load_checkpoint(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "pos, value",
        [(24, math.inf), (24, math.nan), (24, 1e-310), (24, 1e307), (24, 1.7e308),
         (32, math.inf), (32, math.nan), (32, 1e305)],
        ids=["wavelength-inf", "wavelength-nan", "wavelength-tiny", "wavelength-huge",
             "wavelength-max", "spacing-inf", "spacing-nan", "spacing-huge"],
    )
    def test_overflowing_geometry_rejected_without_warning(self, saved, pos, value):
        # the wavelength and spacing follow dx; each value here makes the
        # propagation phase overflow or is not a valid geometry at all
        path, data = saved
        path.write_bytes(data[:pos] + struct.pack("<d", value) + data[pos + 8 :])
        with pytest.raises(CheckpointError, match="model.ckpt"):
            load_checkpoint(path)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_truncated_flipped_or_replaced_bytes(self, saved, data):
        path, good = saved
        header_end = 8 + HEADER.size
        how = data.draw(st.sampled_from(["truncate", "flip", "header", "float"]))
        if how == "truncate":
            corrupt = good[: data.draw(st.integers(0, len(good) - 1))]
        elif how == "flip":
            bit = data.draw(st.integers(0, 8 * len(good) - 1))
            corrupt = bytearray(good)
            corrupt[bit // 8] ^= 1 << (bit % 8)
        else:
            if how == "header":
                pos = data.draw(st.integers(8, header_end - 1))
                new = data.draw(st.binary(min_size=1, max_size=header_end - pos))
            else:  # any float into dx, wavelength or spacing
                pos = data.draw(st.sampled_from([16, 24, 32]))
                new = struct.pack("<d", data.draw(st.floats()))
            corrupt = good[:pos] + new + good[pos + len(new) :]
        path.write_bytes(bytes(corrupt))
        try:
            with warnings.catch_warnings():
                # loading rejects a bad value before numpy can warn about it
                warnings.simplefilter("error", RuntimeWarning)
                net = load_checkpoint(path).network
            out = predict_image(net, np.full((net.grid.n, net.grid.n), 0.5))
        except VortexAOError:
            return
        assert np.all(np.isfinite(out))


class TestLayerInvariants:
    def test_rejects_positive_log_amplitude(self):
        with pytest.raises(ConfigError):
            DiffractiveLayer(np.zeros((8, 8)), np.full((8, 8), 0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", ["phase", "log_amplitude"])
    def test_rejects_non_finite_arrays(self, slot, bad):
        arrays = {"phase": np.zeros((8, 8)), "log_amplitude": np.zeros((8, 8))}
        arrays[slot][3, 5] = bad
        with pytest.raises(ConfigError, match=slot):
            DiffractiveLayer(**arrays)

    @pytest.mark.parametrize("spacing", [np.nan, np.inf, -np.inf])
    def test_network_rejects_non_finite_spacing(self, grid16, spacing):
        with pytest.raises(ConfigError):
            DiffractiveNetwork(grid16, [DiffractiveLayer.identity(16)], spacing)

    def test_exported_phase_wraps(self):
        layer = DiffractiveLayer(np.full((8, 8), 7.0), np.zeros((8, 8)))
        wrapped = layer.exported_phase()
        assert np.all(wrapped >= 0) and np.all(wrapped < 2 * np.pi)
        np.testing.assert_allclose(wrapped, 7.0 - 2 * np.pi)

    def test_phase_only_power_conservation(self, grid16, rng):
        # a phase-only network conserves power through every plane
        net = small_net(grid16, mode="phase", seed=5)
        img, _ = random_pair(grid16, rng)
        field = encode_input(img, grid16)
        _, tape = forward(net, field)
        for plane in tape.post_layer + [tape.out_field]:
            power = np.sum(np.abs(plane) ** 2) * grid16.dx**2
            assert abs(power - field.power) < 1e-10 * field.power


def rebuilt(net):
    """A freshly built network with copies of ``net``'s arrays and readout."""
    layers = [
        DiffractiveLayer(layer.phase.copy(), layer.log_amplitude.copy()) for layer in net.layers
    ]
    fresh = DiffractiveNetwork(net.grid, layers, net.spacing, net.mode)
    fresh.readout = net.readout.copy()
    return fresh


def edit_phase_in_place(net):
    net.layers[0].phase[3, 4] += 0.5
    return net


def edit_log_amplitude_in_place(net):
    net.layers[1].log_amplitude[5, 6] -= 0.5
    return net


def reassign_phase(net):
    net.layers[1].phase = net.layers[1].phase + 0.25
    return net


def edit_deep_copy(net):
    moved = copy.deepcopy(net)
    moved.layers[0].phase[3, 4] += 0.5
    return moved


class TestTransmissionCache:
    """A layer's transmission is recomputed exactly when its arrays change."""

    @pytest.mark.parametrize(
        "edit",
        [edit_phase_in_place, edit_log_amplitude_in_place, reassign_phase, edit_deep_copy],
    )
    def test_edit_after_forward_is_seen(self, grid16, rng, edit):
        net = small_net(grid16)
        field = encode_input(random_pair(grid16, rng)[0], grid16)
        before, _ = forward(net, field)
        edited = edit(net)
        after, _ = forward(edited, field)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, forward(rebuilt(edited), field)[0])

    def test_deep_copy_edit_leaves_original(self, grid16, rng):
        net = small_net(grid16)
        field = encode_input(random_pair(grid16, rng)[0], grid16)
        before, _ = forward(net, field)
        edit_deep_copy(net)
        np.testing.assert_array_equal(forward(net, field)[0], before)

    def test_training_steps_are_seen(self, grid16, rng):
        pairs = [random_pair(grid16, rng) for _ in range(3)]
        net = small_net(grid16)
        field = encode_input(pairs[0][0], grid16)
        forward(net, field)
        train(net, pairs, epochs=2, batch=2, lr=0.01)
        np.testing.assert_array_equal(forward(net, field)[0], forward(rebuilt(net), field)[0])

    def test_unchanged_layer_returns_same_array(self):
        layer = DiffractiveLayer(np.full((8, 8), 0.3), np.full((8, 8), -0.1))
        assert layer.transmission() is layer.transmission()
        np.testing.assert_array_equal(
            layer.transmission(), np.exp(layer.log_amplitude + 1j * layer.phase)
        )

    def test_result_is_read_only(self):
        layer = DiffractiveLayer.identity(8)
        with pytest.raises(ValueError):
            layer.transmission()[0, 0] = 2.0
        with pytest.raises(ValueError):
            copy.deepcopy(layer).transmission()[0, 0] = 2.0
