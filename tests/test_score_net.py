"""Tests for the score network and its denoising-score-matching training loop."""

import numpy as np
import pytest

from scdenoise.channel import build_schedule, complex_noise, stream_rng
from scdenoise.codec import DecoderModel, save_decoder
from scdenoise.constellation import ConstellationScheme, build_bpsk, build_square_qam
from scdenoise.mlp import Mlp
from scdenoise.oracle import mixture_score, oracle_score_fn
from scdenoise.score_model import (
    DsmConfig,
    MlpScoreModel,
    dsm_loss,
    forward_score,
    load_model,
    model_score_fn,
    relative_score_error,
    save_loss_trace,
    save_model,
    train_score,
)


def small_schedule():
    return build_schedule(0.05, 4.0, 16)


def write_legacy_checkpoint(path, net, head="mean"):
    """A score checkpoint in the original on-disk layout, written key by key."""
    np.savez(
        path,
        version=1,
        head=head,
        layer_sizes=np.array(net.layer_sizes),
        **{f"w{i}": w for i, w in enumerate(net.weights)},
        **{f"b{i}": b for i, b in enumerate(net.biases)},
    )


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


def test_forward_per_symbol_sigma_broadcasts_over_rows():
    # a per-symbol sigma of shape (n,) for a (rows, n) batch: each row is
    # scored as its own 1-D call with that sigma vector
    rng = stream_rng(0, 1)
    model = MlpScoreModel(net=Mlp([3, 16, 2], rng=rng))
    z = rng.standard_normal((10, 100)) + 1j * rng.standard_normal((10, 100))
    sigma = np.geomspace(0.05, 4.0, 100)
    got = forward_score(model, z, sigma)
    assert got.shape == z.shape
    for row, z_row in zip(got, z):
        np.testing.assert_allclose(row, forward_score(model, z_row, sigma), rtol=1e-12)


def test_dsm_loss_zero_residual_is_zero():
    # single-point alphabet and a model that outputs exactly that point: the
    # denoiser then reproduces z0 for every draw
    z1 = 0.4 - 0.2j
    net = Mlp([3, 4, 2])
    net.biases[-1][:] = (z1.real, z1.imag)
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
    resid = forward_score(model, zi, sigma) - target
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

    _, grads = dsm_loss(model, z0, sched, stream_rng(99, 0))
    h = 1e-6
    checked = 0
    for p, g in zip(net.params, grads):
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + h
            hi = loss_at_current_params()
            p[ix] = orig - h
            lo = loss_at_current_params()
            p[ix] = orig
            num = (hi - lo) / (2 * h)
            denom = max(abs(num), abs(g[ix]), 1e-8)
            assert abs(g[ix] - num) / denom < 1e-4, (ix, g[ix], num)
            checked += 1
            it.iternext()
    assert checked >= 100


def test_config_validation():
    sched = small_schedule()
    with pytest.raises(ValueError):
        DsmConfig(schedule=sched, learning_rate=0.0)
    with pytest.raises(ValueError):
        DsmConfig(schedule=sched, batch_size=0)
    with pytest.raises(ValueError):
        DsmConfig(schedule=sched, head="noise")


def test_train_deterministic():
    sched = small_schedule()
    cfg = DsmConfig(schedule=sched, hidden=(8,), steps=300, learning_rate=3e-3, seed=4)
    m1, t1 = train_score(build_bpsk(), cfg)
    m2, t2 = train_score(build_bpsk(), cfg)
    for a, b in zip(m1.net.params, m2.net.params):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(t1, t2)


def test_training_reduces_loss():
    sched = small_schedule()
    cfg = DsmConfig(schedule=sched, hidden=(32, 32), steps=2000, learning_rate=5e-3, seed=0)
    _, trace = train_score(build_bpsk(), cfg)
    # the first iterates carry the untrained-model loss; converged loss sits
    # well below them
    assert np.mean(trace[-200:]) < 0.6 * np.mean(trace[:10])


def test_checkpoint_roundtrip(tmp_path):
    cfg = DsmConfig(schedule=small_schedule(), hidden=(8, 8), steps=50, learning_rate=1e-3, seed=2)
    model, trace = train_score(build_bpsk(), cfg)
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
    bad = Mlp([3, 8, 2])
    bad.biases[1] = np.zeros(1)
    write_legacy_checkpoint(bad_shape, bad)
    with pytest.raises(ValueError, match="b1"):
        load_model(str(bad_shape))
    # a decoder checkpoint is not a score model
    dec_path = tmp_path / "dec.npz"
    save_decoder(str(dec_path), DecoderModel.build(2, 4, rng=stream_rng(0, 0)))
    with pytest.raises(ValueError):
        load_model(str(dec_path))
    trace_path = tmp_path / "trace.csv"
    save_loss_trace(str(trace_path), trace)
    lines = trace_path.read_text().strip().split("\n")
    assert lines[0] == "step,loss"
    assert len(lines) == 51


def test_relative_error_of_exact_score_is_zero():
    scheme = build_bpsk()
    assert relative_score_error(oracle_score_fn(scheme), scheme) == pytest.approx(0.0, abs=1e-12)


def test_relative_error_detects_mismatch():
    scheme = build_bpsk()
    wrong = lambda z, sigma: 0.5 * mixture_score(z, sigma, scheme)
    assert relative_score_error(wrong, scheme) == pytest.approx(0.5, rel=1e-6)


def test_model_score_fn_adapter():
    model = MlpScoreModel(net=Mlp([3, 8, 2], rng=stream_rng(3, 0)))
    fn = model_score_fn(model)
    z = np.array([0.1 + 0.9j])
    np.testing.assert_array_equal(fn(z, 1.1), forward_score(model, z, 1.1))
