"""Tests for the quantizing encoder / trainable decoder pipeline."""

import numpy as np
import pytest

from scdenoise.channel import build_schedule, forward_diffuse, stream_rng
from scdenoise.codec import (
    DecoderModel,
    JointTrainConfig,
    QuantizingEncoder,
    decode,
    encode,
    joint_train,
    load_decoder,
    save_decoder,
)
from scdenoise.constellation import build_bpsk, build_square_qam
from scdenoise.mlp import AdamState, Mlp, adam_step
from scdenoise.oracle import oracle_score_fn
from scdenoise.sampler import SamplerConfig, denoise_from_level, pc_sample
from scdenoise.score_model import MlpScoreModel, save_model


def small_setup(order=16):
    scheme = build_square_qam(order)
    sched = build_schedule(0.05, 4.0, 8)
    return scheme, sched, QuantizingEncoder(scheme)


def test_encoder_levels():
    scheme, _, enc = small_setup(16)
    np.testing.assert_allclose(scheme.axis_levels[0], np.unique(scheme.points.real))
    assert enc.level_span == pytest.approx(np.max(scheme.points.real))


def test_encoder_rejects_non_grid_schemes():
    # BPSK's axes do not share their levels: its imaginary axis has the one
    # level 0, so one level span cannot scale both source dimensions of a
    # pair. (Point sets that are no grid at all are refused when the scheme
    # is built; tests/test_constellation.py.)
    with pytest.raises(ValueError, match="needs a square-QAM constellation"):
        QuantizingEncoder(build_bpsk())


def test_encode_fixed_points():
    # sources sitting exactly at scaled level centers map onto constellation points
    scheme, _, enc = small_setup(16)
    x = np.empty(2 * scheme.order)
    for m, p in enumerate(scheme.points):
        x[2 * m] = p.real / enc.level_span
        x[2 * m + 1] = p.imag / enc.level_span
    z = encode(x, enc)
    np.testing.assert_allclose(z, scheme.points, atol=1e-12)


def test_encode_sign_quantization_qam4():
    _, _, enc = small_setup(4)
    level = 1.0 / np.sqrt(2.0)
    z = encode(np.array([0.3, -0.2]), enc)
    assert z[0] == pytest.approx(level + 1j * -level)


def test_encode_odd_dimension_rejected():
    _, _, enc = small_setup(4)
    with pytest.raises(ValueError):
        encode(np.zeros(3), enc)


def test_encode_quantization_error_bounded():
    scheme, _, enc = small_setup(64)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, size=(100, 16))
    z = encode(x, enc)
    back = z.view(np.float64) / enc.level_span  # the (re, im) pairs, unscaled
    # nearest-level quantization: per-axis error at most half the level spacing
    levels = scheme.axis_levels[0]
    spacing = (levels[1] - levels[0]) / enc.level_span
    assert np.max(np.abs(back - x)) <= spacing / 2 + 1e-12
    # every emitted symbol is a constellation point
    assert np.all(np.isin(z.ravel(), scheme.points))


def test_encode_shapes():
    _, _, enc = small_setup(16)
    z = encode(np.zeros((5, 8)), enc)
    assert z.shape == (5, 4)
    assert z.view(np.float64).shape == (5, 8)
    assert encode(np.zeros((2, 3, 6)), enc).shape == (2, 3, 3)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_encode_matches_per_axis_nearest_level(order):
    # encode goes through demodulate_hard; it must give what the per-axis
    # rule gives (each value to its nearest level, ties to the lower one) on
    # random sources, on every midpoint between levels with its neighbouring
    # floats, and far outside [-1, 1]
    scheme, _, enc = small_setup(order)
    levels = scheme.axis_levels[0]
    mid = (levels[:-1] + levels[1:]) / 2 / enc.level_span
    edges = np.concatenate([mid, np.nextafter(mid, -2.0), np.nextafter(mid, 2.0)])
    rng = np.random.default_rng(order)
    x = np.concatenate([
        rng.uniform(-1.0, 1.0, 4096 * 16),
        edges,
        rng.permutation(edges),
        rng.uniform(-1e3, 1e3, 256),
        [-1.0, 1.0, 0.0, -0.0],
    ])
    x = x[: x.size // 2 * 2].reshape(-1, 2)
    nearest = np.argmin(np.abs((x * enc.level_span)[..., None] - levels), axis=-1)
    expected = levels[nearest].view(np.complex128)
    np.testing.assert_array_equal(encode(x, enc), expected)


def test_decoder_zero_weights_and_determinism():
    dec = DecoderModel(net=Mlp([8, 16, 8]))
    z = np.random.default_rng(1).standard_normal(4) + 1j * np.zeros(4)
    np.testing.assert_array_equal(decode(z, dec), np.zeros(8))
    dec2 = DecoderModel.build(4, 8, hidden=(16,), rng=stream_rng(0, 0))
    np.testing.assert_array_equal(decode(z, dec2), decode(z, dec2))


def test_decoder_output_clamped():
    dec = DecoderModel.build(2, 4, hidden=(8,), rng=stream_rng(1, 0))
    dec.net.layers[-1][-1] = 50.0  # force saturation
    out = decode(np.array([1 + 1j, -1 - 1j]), dec)
    assert np.all(out <= 1.0) and np.all(out >= -1.0)


def test_decoder_shape_check():
    dec = DecoderModel.build(4, 8, rng=stream_rng(2, 0))
    with pytest.raises(ValueError):
        decode(np.zeros(3, dtype=complex), dec)


def test_joint_train_decreases_loss_and_is_deterministic():
    scheme, sched, enc = small_setup(16)
    sampler_cfg = SamplerConfig(schedule=sched)
    cfg = JointTrainConfig(steps=300, batch_size=32, learning_rate=2e-3)
    fn = oracle_score_fn(scheme)

    def run():
        dec = DecoderModel.build(4, 8, hidden=(32,), rng=stream_rng(10, 0))
        return joint_train(enc, dec, fn, sampler_cfg, sched, cfg, stream_rng(10, 1))

    dec1, trace1 = run()
    dec2, trace2 = run()
    np.testing.assert_array_equal(dec1.net.theta, dec2.net.theta)
    np.testing.assert_array_equal(trace1, trace2)
    assert np.mean(trace1[-50:, 0]) < np.mean(trace1[:50, 0])
    # noise levels drawn over the whole schedule
    assert trace1[:, 1].min() >= 1 and trace1[:, 1].max() <= sched.n_steps


@pytest.mark.parametrize("denoise", [False, True])
def test_joint_train_matches_fresh_array_loop(denoise):
    # one Adam pass per step over the float32 copy's theta, through one
    # workspace, changes no bit of the trace or of the trained float64
    # decoder, with and without the sampler in the loop
    scheme, sched, enc = small_setup(64)
    sampler_cfg = SamplerConfig(schedule=sched)
    cfg = JointTrainConfig(steps=20, batch_size=64, learning_rate=2e-3)
    fn = oracle_score_fn(scheme) if denoise else None
    dec, trace = joint_train(enc, DecoderModel.build(4, 8, rng=stream_rng(13, 0)), fn,
                             sampler_cfg, sched, cfg, stream_rng(13, 1))
    # the same loop with fresh arrays: one float32 copy of the net, whose
    # forward and backward allocate their own arrays, Adam with one state per
    # layer matrix, and the trained values cast back into the float64 net at
    # the end
    ref = DecoderModel.build(4, 8, rng=stream_rng(13, 0))
    net32 = ref.net.astype(np.float32)
    rng = stream_rng(13, 1)
    states = [AdamState(a) for a in net32.layers]
    ends = np.cumsum([a.size for a in net32.layers])[:-1]
    ref_trace = []
    for _ in range(cfg.steps):
        x = rng.uniform(-1.0, 1.0, size=(cfg.batch_size, 8))
        level = int(rng.integers(1, sched.n_steps + 1))
        z = forward_diffuse(encode(x, enc), level, sched, rng)
        if denoise:
            z = denoise_from_level(z, level, fn, sampler_cfg, rng)
        out, cache = net32.forward(z.view(np.float64))
        resid = out - x
        grad = net32.backward(cache, (2.0 / cfg.batch_size) * resid)
        for a, g, state in zip(net32.layers, np.split(grad, ends), states):
            adam_step(a, g.reshape(a.shape), state, lr=cfg.learning_rate)
        ref_trace.append((np.mean(np.sum(resid**2, axis=-1)), level))
    for a, a32 in zip(ref.net.layers, net32.layers):
        a[...] = a32
    np.testing.assert_array_equal(trace, np.array(ref_trace))
    assert dec.net.theta.dtype == np.float64
    np.testing.assert_array_equal(dec.net.theta, ref.net.theta)


def test_joint_train_shape_mismatch():
    scheme, sched, enc = small_setup(16)
    dec = DecoderModel.build(4, 10, rng=stream_rng(0, 0))  # 10 != 2*4
    with pytest.raises(ValueError):
        joint_train(enc, dec, oracle_score_fn(scheme), SamplerConfig(schedule=sched),
                    sched, JointTrainConfig(steps=1), stream_rng(0, 1))


def test_decoder_checkpoint_roundtrip(tmp_path):
    dec = DecoderModel.build(4, 8, hidden=(16,), rng=stream_rng(3, 0))
    path = tmp_path / "dec.npz"
    save_decoder(str(path), dec)
    loaded = load_decoder(str(path))
    z = np.random.default_rng(4).standard_normal(4) * (1 + 0.5j)
    np.testing.assert_array_equal(decode(z, loaded), decode(z, dec))
    # files in the original layout, written key by key, still load
    legacy = tmp_path / "legacy.npz"
    np.savez(
        legacy,
        version=1,
        kind="decoder",
        layer_sizes=np.array(dec.net.layer_sizes),
        **{f"w{i}": a[:-1] for i, a in enumerate(dec.net.layers)},
        **{f"b{i}": a[-1] for i, a in enumerate(dec.net.layers)},
    )
    np.testing.assert_array_equal(decode(z, load_decoder(str(legacy))), decode(z, dec))
    # a score-model checkpoint is not a decoder
    score_path = tmp_path / "score.npz"
    save_model(str(score_path), MlpScoreModel(net=Mlp([3, 4, 2])))
    with pytest.raises(ValueError):
        load_decoder(str(score_path))
    # a decoder whose input width is odd has no whole number of symbols:
    # refused on loading, not by a product inside decode or joint_train
    odd = tmp_path / "odd.npz"
    net = Mlp([5, 4], rng=stream_rng(3, 1))
    np.savez(odd, version=1, kind="decoder", layer_sizes=np.array([5, 4]),
             w0=net.layers[0][:-1], b0=net.layers[0][-1])
    with pytest.raises(ValueError, match="input width 5"):
        load_decoder(str(odd))


@pytest.mark.parametrize("order,dim", [(4, 4), (16, 8), (64, 6)])
def test_pipeline_shapes(order, dim):
    scheme = build_square_qam(order)
    sched = build_schedule(0.05, 4.0, 8)
    enc = QuantizingEncoder(scheme)
    dec = DecoderModel.build(dim // 2, dim, hidden=(16,), rng=stream_rng(5, 0))
    rng = stream_rng(5, 1)
    x = rng.uniform(-1, 1, size=dim)
    z0 = encode(x, enc)
    z_noisy = forward_diffuse(z0, 4, sched, rng)
    z_hat = pc_sample(z_noisy, 0.0, oracle_score_fn(scheme),
                      SamplerConfig(schedule=sched), rng)
    x_hat = decode(z_hat, dec)
    assert z0.shape == (dim // 2,)
    assert x_hat.shape == (dim,)
    assert np.all(np.isfinite(x_hat))
