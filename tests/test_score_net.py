"""Tests for the score network and its denoising-score-matching training loop."""

import warnings

import numpy as np
import pytest

from scdenoise.channel import (build_schedule, complex_noise, snr_to_sigma, snr_to_step,
                               stream_rng)
from scdenoise.codec import DecoderModel, save_decoder
from scdenoise.constellation import ConstellationScheme, build_bpsk, build_square_qam
from scdenoise.mlp import AdamState, Mlp, adam_step
from scdenoise.oracle import mixture_score, oracle_score_fn
from scdenoise.sampler import SamplerConfig, pc_sample
from scdenoise.score_model import (
    EVAL_SIGMAS,
    DsmConfig,
    MlpScoreModel,
    dsm_loss,
    forward_score,
    load_model,
    model_score_fn,
    relative_score_error,
    save_model,
    train_score,
)


def small_schedule():
    return build_schedule(0.05, 4.0, 16)


def write_legacy_checkpoint(path, net, head="mean", **replace):
    """A score checkpoint in the original on-disk layout, written key by key;
    `replace` swaps in other arrays under their keys."""
    arrays = {f"w{i}": a[:-1] for i, a in enumerate(net.layers)}
    arrays.update({f"b{i}": a[-1] for i, a in enumerate(net.layers)}, **replace)
    np.savez(path, version=1, head=head, layer_sizes=np.array(net.layer_sizes), **arrays)


def test_model_shape_validation():
    with pytest.raises(ValueError):
        MlpScoreModel(net=Mlp([2, 8, 2]))  # missing the sigma feature input
    with pytest.raises(ValueError):
        MlpScoreModel(net=Mlp([3, 8, 3]))


def test_zero_weight_mean_head_is_origin_pull():
    # a zero network predicts posterior mean 0, so the score points at the origin
    model = MlpScoreModel(net=Mlp([3, 8, 2]))
    z = np.array([0.5 + 0.5j, -1.0 + 2.0j])
    np.testing.assert_allclose(forward_score(model, z, 0.7), -2.0 * z / 0.7**2, rtol=1e-12)


def test_forward_deterministic_and_shape_preserving():
    rng = stream_rng(0, 0)
    model = MlpScoreModel(net=Mlp([3, 16, 2], rng=rng))
    z = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    a = forward_score(model, z, 1.3)
    b = forward_score(model, z, 1.3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (3, 5)


def _reference_score(model, z, sigma):
    """(2 / sigma^2) (D - z), with D from `net.forward` on stacked features."""
    z = np.asarray(z, dtype=np.complex128)
    shape, z = z.shape, z.ravel()
    sig = np.float64(sigma)
    log_sig = np.broadcast_to(np.log(sig), z.shape)
    scale = 2.0 / sig**2
    d, _ = model.net.forward(np.stack([z.real, z.imag, log_sig], axis=-1))
    ref = np.empty(z.shape, dtype=np.complex128)
    ref.real = scale * (d[:, 0] - z.real)
    ref.imag = scale * (d[:, 1] - z.imag)
    return ref.reshape(shape)


def test_forward_score_matches_reference_bit_for_bit():
    # forward_score works on a float-pair view of z and in place on the
    # network output; neither may change a bit of the result or touch z
    rng = stream_rng(0, 2)
    model = MlpScoreModel(net=Mlp([3, 16, 16, 2], rng=rng))
    z = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
    z_before = z.copy()
    cases = [
        (z, 0.7),
        (z[:, ::2], 1.9),
        (z.T, 0.3),
        (z[2, 3], 0.7),  # 0-d z
        (z, np.float64(2.5)),
    ]
    for zc, sigma in cases:
        got = forward_score(model, zc, sigma)
        assert got.shape == np.shape(zc)
        np.testing.assert_array_equal(got, _reference_score(model, zc, sigma))
    np.testing.assert_array_equal(z, z_before)
    # sigma is one scalar per call: an array raises instead of broadcasting
    for sigma in (np.full(z.shape, 0.7), np.array([0.7])):
        with pytest.raises(ValueError, match="scalar"):
            forward_score(model, z, sigma)


def test_dsm_loss_zero_residual_is_zero():
    # single-point alphabet and a model that outputs exactly that point: the
    # denoiser then reproduces z0 for every draw
    z1 = 0.4 - 0.2j
    net = Mlp([3, 4, 2])
    net.layers[-1][-1] = (z1.real, z1.imag)
    model = MlpScoreModel(net=net)
    z0 = np.full(256, z1)
    loss, grads = dsm_loss(model, z0, small_schedule(), stream_rng(5, 0))
    assert loss == pytest.approx(0.0, abs=1e-20)


def test_dsm_loss_zero_model_expected_value():
    # the all-zero network predicts D = 0, so each sample's loss is |z0|^2,
    # which is exactly 1 for BPSK's points +-1
    model = MlpScoreModel(net=Mlp([3, 8, 2]))
    scheme = build_bpsk()
    rng = stream_rng(17, 0)
    idx = rng.integers(0, 2, size=100_000)
    loss, _ = dsm_loss(model, scheme.points[idx], small_schedule(), rng)
    assert loss == 1.0


def test_dsm_loss_is_sigma4_weighted_score_matching():
    # regression onto z0 is DSM with weight sigma^4/4: recompute that objective
    # from forward_score and the conditional score, replaying the same draws
    sched = small_schedule()
    scheme = build_square_qam(64)
    rng = stream_rng(21, 0)
    model = MlpScoreModel(net=Mlp([3, 32, 32, 2], rng=rng))
    z0 = scheme.points[rng.integers(0, 64, size=512)]
    loss, _ = dsm_loss(model, z0, sched, stream_rng(22, 0))

    replay = stream_rng(22, 0)
    sigma = sched.sigmas[replay.integers(1, sched.n_steps + 1, size=z0.size) - 1]
    zi = z0 + sigma * complex_noise(replay, z0.size)
    target = -2.0 * (zi - z0) / sigma**2
    score = np.empty_like(zi)
    for level_sigma in np.unique(sigma):  # forward_score takes one sigma per call
        at = sigma == level_sigma
        score[at] = forward_score(model, zi[at], level_sigma)
    resid = score - target
    expected = np.mean(sigma**4 / 4.0 * np.abs(resid) ** 2)
    assert loss == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_dsm_loss_nonnegative_and_empty_batch():
    model = MlpScoreModel(net=Mlp([3, 8, 2], rng=stream_rng(1, 0)))
    loss, _ = dsm_loss(model, build_bpsk().points, small_schedule(), stream_rng(2, 0))
    assert loss >= 0.0
    with pytest.raises(ValueError):
        dsm_loss(model, np.array([]), small_schedule(), stream_rng(2, 0))


def test_dsm_gradients_match_finite_differences():
    sched = small_schedule()
    rng0 = stream_rng(8, 0)
    net = Mlp([3, 20, 2], rng=rng0)
    model = MlpScoreModel(net=net)
    z0 = build_bpsk().points[rng0.integers(0, 2, size=12)]

    def loss_at_current_params():
        # fixed rng seed: the noise draws are identical on every call, so the
        # loss is a deterministic function of the parameters
        return dsm_loss(model, z0, sched, stream_rng(99, 0))[0]

    _, grad = dsm_loss(model, z0, sched, stream_rng(99, 0))
    h = 1e-6
    theta = net.theta
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        hi = loss_at_current_params()
        theta[i] = orig - h
        lo = loss_at_current_params()
        theta[i] = orig
        num = (hi - lo) / (2 * h)
        denom = max(abs(num), abs(grad[i]), 1e-8)
        assert abs(grad[i] - num) / denom < 1e-4, (i, grad[i], num)
    assert grad.shape == theta.shape and theta.size >= 100


def test_config_validation():
    sched = small_schedule()
    with pytest.raises(ValueError):
        DsmConfig(schedule=sched, learning_rate=0.0)
    with pytest.raises(ValueError, match="finite and positive"):
        DsmConfig(schedule=sched, learning_rate=float("inf"))
    with pytest.raises(ValueError):
        DsmConfig(schedule=sched, batch_size=0)
    with pytest.raises(ValueError):
        DsmConfig(schedule=sched, head="noise")


def test_train_deterministic():
    sched = small_schedule()
    cfg = DsmConfig(schedule=sched, hidden=(8,), steps=300, learning_rate=3e-3, seed=4)
    m1, t1 = train_score(build_bpsk(), cfg)
    m2, t2 = train_score(build_bpsk(), cfg)
    np.testing.assert_array_equal(m1.net.theta, m2.net.theta)
    np.testing.assert_array_equal(t1, t2)


def _train_score_fresh(scheme, config):
    """train_score's loop with fresh arrays on every step: one float32 copy
    of the net, whose forward and backward allocate their own arrays, Adam
    with one state per layer matrix at a float learning rate, and the
    trained values cast back into the float64 net at the end."""
    rng = stream_rng(config.seed, 0)
    net = Mlp([3, *config.hidden, 2], rng=rng)
    net32 = net.astype(np.float32)
    states = [AdamState(a) for a in net32.layers]
    ends = np.cumsum([a.size for a in net32.layers])[:-1]
    trace = []
    for step in range(config.steps):
        z0 = scheme.points[rng.integers(0, scheme.order, size=config.batch_size)]
        loss, grad = dsm_loss(MlpScoreModel(net=net32), z0, config.schedule, rng)
        lr = config.learning_rate * 0.5 * (1.0 + np.cos(np.pi * step / config.steps))
        for a, g, state in zip(net32.layers, np.split(grad, ends), states):
            adam_step(a, g.reshape(a.shape), state, lr=float(max(lr, config.learning_rate * 0.01)))
        trace.append(loss)
    for a, a32 in zip(net.layers, net32.layers):
        a[...] = a32
    return MlpScoreModel(net=net), np.array(trace)


@pytest.mark.parametrize("hidden", [(8,), (128, 128)])
def test_train_score_matches_fresh_array_loop(hidden):
    # training updates the float32 copy's theta by one Adam pass over the
    # gradient vector, through one workspace; none of that changes a bit of
    # the loss trace or of the trained float64 parameters against per-layer
    # Adam on a float32 copy of the net
    cfg = DsmConfig(schedule=build_schedule(0.01, 10.0, 64), hidden=hidden, steps=20,
                    learning_rate=8e-3, seed=12)
    scheme = build_square_qam(64)
    model, trace = train_score(scheme, cfg)
    ref_model, ref_trace = _train_score_fresh(scheme, cfg)
    np.testing.assert_array_equal(trace, ref_trace)
    assert model.net.theta.dtype == np.float64
    np.testing.assert_array_equal(model.net.theta, ref_model.net.theta)


def test_training_reduces_loss():
    sched = small_schedule()
    cfg = DsmConfig(schedule=sched, hidden=(32, 32), steps=2000, learning_rate=5e-3, seed=0)
    _, trace = train_score(build_bpsk(), cfg)
    # the first iterates carry the untrained-model loss; converged loss sits
    # well below them
    assert np.mean(trace[-200:]) < 0.6 * np.mean(trace[:10])


def test_checkpoint_roundtrip(tmp_path):
    cfg = DsmConfig(schedule=small_schedule(), hidden=(8, 8), steps=50, learning_rate=1e-3, seed=2)
    model, _ = train_score(build_bpsk(), cfg)
    path = tmp_path / "model.npz"
    save_model(str(path), model)
    loaded = load_model(str(path))
    z = np.array([0.3 + 0.1j, -1.0 - 1.0j])
    np.testing.assert_array_equal(
        forward_score(loaded, z, 0.9), forward_score(model, z, 0.9)
    )
    # files in the original layout, written key by key, still load
    legacy = tmp_path / "legacy.npz"
    write_legacy_checkpoint(legacy, model.net)
    np.testing.assert_array_equal(
        forward_score(load_model(str(legacy)), z, 0.9), forward_score(model, z, 0.9)
    )
    # a noise-head checkpoint is refused, not misread as a mean head
    noise = tmp_path / "noise.npz"
    write_legacy_checkpoint(noise, model.net, head="noise")
    with pytest.raises(ValueError, match="noise"):
        load_model(str(noise))
    # parameter arrays must match the layer sizes instead of broadcasting
    bad_shape = tmp_path / "bad_shape.npz"
    write_legacy_checkpoint(bad_shape, Mlp([3, 8, 2]), b1=np.zeros(1))
    with pytest.raises(ValueError, match="b1"):
        load_model(str(bad_shape))
    # a decoder checkpoint is not a score model
    dec_path = tmp_path / "dec.npz"
    save_decoder(str(dec_path), DecoderModel.build(2, 4, rng=stream_rng(0, 0)))
    with pytest.raises(ValueError):
        load_model(str(dec_path))


def test_relative_error_of_exact_score_is_zero():
    scheme = build_bpsk()
    assert relative_score_error(oracle_score_fn(scheme), scheme) == pytest.approx(0.0, abs=1e-12)


def test_relative_error_detects_mismatch():
    scheme = build_bpsk()
    wrong = lambda z, sigma: 0.5 * mixture_score(z, sigma, scheme)
    assert relative_score_error(wrong, scheme) == pytest.approx(0.5, rel=1e-6)


def test_model_score_fn_adapter():
    # the adapter is forward_score on a float32 copy of the net, bit for bit
    model = MlpScoreModel(net=Mlp([3, 8, 2], rng=stream_rng(3, 0)))
    fn = model_score_fn(model)
    ref = MlpScoreModel(net=model.net.astype(np.float32))
    rng = stream_rng(3, 1)
    z = rng.standard_normal((4, 300)) + 1j * rng.standard_normal((4, 300))
    for sigma in (0.05, 1.1, 8.0):
        got = fn(z, sigma)
        assert got.dtype == np.complex128 and got.shape == z.shape
        np.testing.assert_array_equal(got, forward_score(ref, z, sigma))


def test_model_score_fn_snapshots_and_leaves_the_net():
    # the float32 copy is taken when the adapter is made: model.net keeps its
    # float64 vector, bit for bit, and a later change to it does not reach
    # the adapter
    model = MlpScoreModel(net=Mlp([3, 8, 2], rng=stream_rng(4, 0)))
    theta = model.net.theta
    before = theta.copy()
    fn = model_score_fn(model)
    z = np.array([0.3 - 0.2j, -1.0 + 0.5j])
    first = fn(z, 0.7)
    assert model.net.theta is theta and theta.dtype == np.float64
    np.testing.assert_array_equal(theta, before)
    model.net.layers[-1][-1] += 1.0
    np.testing.assert_array_equal(fn(z, 0.7), first)
    assert not np.array_equal(model_score_fn(model)(z, 0.7), first)


def test_model_score_fn_refuses_parameters_beyond_float32():
    # a finite float64 parameter that float32 cannot hold is refused by name,
    # with no overflow warning; NaN and inf stay what they are (the sampler
    # and relative_score_error report them as divergence)
    model = MlpScoreModel(net=Mlp([3, 8, 2], rng=stream_rng(5, 0)))
    model.net.layers[0][1, 2] = -1e39
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="beyond float32's range"):
            model_score_fn(model)
        for value in (np.nan, np.inf):
            model.net.layers[0][1, 2] = value
            model_score_fn(model)
    model.net.layers[0][1, 2] = float(np.finfo(np.float32).max)
    model_score_fn(model)


def test_float32_inference_gap_on_trained_model():
    # The adapter's only difference from float64 forward_score is float32
    # rounding in D. A float32 dot product of length n is off by at most
    # about n * eps of its terms' magnitude, so over the layers D moves by at
    # most tol_d = eps * (sum of fan-ins) * max(1, |D|): a bound from float32's
    # epsilon and the net's widths, not from measured gaps.
    scheme = build_square_qam(16)
    sched = build_schedule(0.01, 10.0, 64)
    model, _ = train_score(scheme, DsmConfig(schedule=sched, hidden=(32, 32), steps=1500,
                                             learning_rate=8e-3, seed=1))
    fn32 = model_score_fn(model)
    fn64 = lambda z, sigma: forward_score(model, z, sigma)  # noqa: E731
    eps = float(np.finfo(np.float32).eps)
    axis = np.linspace(-3.0, 3.0, 25)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    z = (re + 1j * im).ravel()
    d_max = max(np.max(np.abs(fn64(z, s) * s * s / 2 + z)) for s in EVAL_SIGMAS)
    tol_d = eps * sum(model.net.layer_sizes[:-1]) * max(1.0, d_max)
    for s in EVAL_SIGMAS:
        assert np.max(np.abs(fn32(z, s) - fn64(z, s))) <= tol_d * 2 / s**2
    # relative_score_error: by the triangle inequality its two values differ
    # by at most sqrt(sum |ds|^2 / sum |s_exact|^2), with |ds| <= tol_d * 2/sigma^2
    den = sum(float(np.sum(np.abs(mixture_score(z, s, scheme)) ** 2)) for s in EVAL_SIGMAS)
    rel_tol = tol_d * np.sqrt(sum(z.size * (2 / s**2) ** 2 for s in EVAL_SIGMAS) / den)
    rel32, rel64 = relative_score_error(fn32, scheme), relative_score_error(fn64, scheme)
    assert abs(rel32 - rel64) <= rel_tol
    # a seeded pc_sample: each level moves z by (dvar / 2) * s and the last
    # step by (sigma^2 / 2) * s, so a gap of tol_d in D moves the output by at
    # most delta = tol_d * (1 + sum dvar / sigma_hi^2); the MSE by at most
    # delta * (2 * rms error + delta)
    config = SamplerConfig(schedule=sched)
    for snr in (-6.0, 6.0, 15.0):
        z0 = scheme.points[stream_rng(6, 0).integers(0, scheme.order, size=1000)]
        z_tilde = z0 + snr_to_sigma(snr) * complex_noise(stream_rng(6, 1), z0.size)
        est32 = pc_sample(z_tilde, snr, fn32, config, stream_rng(6, 2))
        est64 = pc_sample(z_tilde, snr, fn64, config, stream_rng(6, 2))
        sig = np.concatenate([[snr_to_sigma(snr)], sched.sigmas[:snr_to_step(snr, sched) - 1][::-1]])
        delta = tol_d * (1.0 + np.sum((sig[:-1] ** 2 - sig[1:] ** 2) / sig[:-1] ** 2))
        assert np.max(np.abs(est32 - est64)) <= delta, snr
        mse32, mse64 = np.mean(np.abs(est32 - z0) ** 2), np.mean(np.abs(est64 - z0) ** 2)
        assert abs(mse32 - mse64) <= delta * (2 * np.sqrt(mse64) + delta), snr
