"""Tests for the hand-rolled MLP gradients and the Adam optimizer."""

import numpy as np
import pytest

from scdenoise import mlp
from scdenoise.errors import DivergenceError
from scdenoise.mlp import (BLOCK_BYTES, AdamState, Mlp, Workspace, adam_step, fit,
                           load_checkpoint, save_checkpoint, squared_error)


def numerical_grad(f, theta, h=1e-6):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        hi = f()
        theta[i] = orig - h
        lo = f()
        theta[i] = orig
        g[i] = (hi - lo) / (2 * h)
    return g


def _by_layer(net, vector):
    """A vector laid out like net.theta, split into its layer matrices."""
    ends = np.cumsum([a.size for a in net.layers])[:-1]
    return [g.reshape(a.shape) for g, a in zip(np.split(vector, ends), net.layers)]


def test_zero_init_outputs_zero():
    net = Mlp([3, 8, 2])  # no rng: zero weights
    x = np.random.default_rng(0).standard_normal((5, 3))
    np.testing.assert_array_equal(net(x), np.zeros((5, 2)))


def test_forward_deterministic():
    net = Mlp([4, 16, 3], rng=np.random.default_rng(1))
    x = np.random.default_rng(2).standard_normal((7, 4))
    np.testing.assert_array_equal(net(x), net(x))


@pytest.mark.parametrize("sizes", [[4, 3], [4, 16, 8, 3]])
def test_call_matches_forward_output(sizes):
    # inference keeps no activation cache but does forward's arithmetic
    rng = np.random.default_rng(4)
    net = Mlp(sizes, rng=rng)
    x = rng.standard_normal((9, 4))
    x_before = x.copy()
    np.testing.assert_array_equal(net(x), net.forward(x)[0])
    assert net(x[0]).shape == (1, 3)  # a 1-D input is one row
    np.testing.assert_array_equal(net(x[0]), net.forward(x[0])[0])
    # every call returns its own array, and the input is left as it was
    a, b = net(x), net(x)
    assert not np.shares_memory(a, b)
    np.testing.assert_array_equal(x, x_before)


@pytest.mark.parametrize("n", [129, 191, 192, 300, 505, 512, 755, 756, 1025, 1200, 2016, 2521])
def test_blocked_call_matches_forward_output(n):
    # a 64-wide net runs inference in column blocks of BLOCK_BYTES over the
    # bytes of 65 float64 values, 504 columns; neither the block edges
    # (505, 755/756, 2016, 2521) nor the merged tail may change a bit, and
    # the sizes inside one block stay checked too
    rng = np.random.default_rng(5)
    net = Mlp([3, 64, 64, 2], rng=rng)
    assert BLOCK_BYTES // (8 * 65) == 504
    x = rng.standard_normal((n, 3))
    got = net(x)
    assert got.shape == (n, 2) and got.flags.c_contiguous
    np.testing.assert_array_equal(got, net.forward(x)[0])


def _one_block(net, x):
    """`_layers`' arithmetic on the whole batch at once, in the parameters'
    dtype: feature-major activations with a row of ones, each layer one
    product with its (n_in + 1, n_out) matrix."""
    h = np.ones((x.shape[1] + 1, len(x)), net.layers[0].dtype)
    h[:-1] = x.T
    for l, a in enumerate(net.layers):
        z = a.T @ h
        if l < len(net.layers) - 1:
            np.tanh(z, out=z)
            z = np.vstack([z, np.ones((1, len(x)), z.dtype)])
        h = z
    return h.T


@pytest.mark.parametrize("n", [129, 191, 192, 300, 512, 1009, 1025, 1511, 1512, 2400, 4032, 8065])
def test_float32_blocked_call_matches_one_block(n):
    # float32 parameters run inference in float32, in blocks of the same
    # bytes (1008 columns, twice those of a float64 block), and return
    # float64; the block edges (1009, 1511/1512, 4032, 8065) may not change
    # a bit
    rng = np.random.default_rng(5)
    net = Mlp([3, 64, 64, 2], rng=rng).astype(np.float32)
    assert BLOCK_BYTES // (4 * 65) == 1008
    x = rng.standard_normal((n, 3))
    got = net(x)
    assert got.dtype == np.float64 and got.shape == (n, 2) and got.flags.c_contiguous
    want = _one_block(net, x)
    assert want.dtype == np.float32
    np.testing.assert_array_equal(got, want.astype(np.float64))


def test_call_reuses_its_arrays_without_carrying_values():
    # inference writes every block into arrays the net keeps between calls;
    # calls at other batch sizes in between change no bit of a call
    rng = np.random.default_rng(8)
    net = Mlp([3, 64, 64, 2], rng=rng).astype(np.float32)
    xs = [rng.standard_normal((n, 3)) for n in (512, 7, 2521, 512, 1)]
    for x in xs + xs[::-1]:
        np.testing.assert_array_equal(net(x), net.astype(np.float32)(x))


def _assert_layer_views(net):
    """Every layers[l] is the (n_in + 1, n_out) view of net.theta at its
    offset, the layers in order, and together they cover theta."""
    sizes, theta = net.layer_sizes, net.theta
    assert theta.ndim == 1 and theta.flags.c_contiguous and len(net.layers) == len(sizes) - 1
    start = 0
    for l, a in enumerate(net.layers):
        assert a.shape == (sizes[l] + 1, sizes[l + 1])
        view = theta[start:start + a.size].reshape(a.shape)
        assert a.__array_interface__ == view.__array_interface__
        start += a.size
    assert start == theta.size


def test_layers_stay_views_of_theta(tmp_path):
    rng = np.random.default_rng(15)
    net = Mlp([3, 8, 5, 2], rng=rng)
    _assert_layer_views(net)
    _assert_layer_views(Mlp([4, 3]))
    for dtype in (np.float32, np.float64):
        _assert_layer_views(net.astype(dtype))
    path = str(tmp_path / "net.npz")
    save_checkpoint(path, net, "kind", "test")
    _assert_layer_views(load_checkpoint(path, "kind", "test"))
    x, target = rng.standard_normal((16, 3)), rng.standard_normal((16, 2))
    theta, layers = net.theta, list(net.layers)
    fit(net, 3, lambda step: (x, target), lambda step: 1e-2)
    _assert_layer_views(net)
    assert net.theta is theta and all(a is b for a, b in zip(net.layers, layers))
    # a write through a view reaches the net's arithmetic
    net.layers[-1][:] = 0.0
    np.testing.assert_array_equal(net(x), np.zeros((16, 2)))


def test_astype_copies_every_parameter():
    # a cast copy owns its vector: the net keeps its float64 vector, and a
    # change to either side does not reach the other
    net = Mlp([3, 8, 5, 2], rng=np.random.default_rng(14))
    theta = net.theta
    for dtype in (np.float32, np.float64):
        copy = net.astype(dtype)
        assert copy.layer_sizes == net.layer_sizes
        assert copy.theta.dtype == dtype and not np.shares_memory(copy.theta, theta)
        np.testing.assert_array_equal(copy.theta, theta.astype(dtype))
    assert net.theta is theta and theta.dtype == np.float64
    copy.layers[0][0, 0] += 1.0
    assert copy.layers[0][0, 0] != net.layers[0][0, 0]


def test_constructor_validation():
    with pytest.raises(ValueError):
        Mlp([5])


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    net = Mlp([3, 6, 5, 2], rng=rng)
    x = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 2))

    def loss():
        out = net(x)
        return 0.5 * np.sum((out - target) ** 2)

    out, cache = net.forward(x)
    grad = net.backward(cache, out - target)
    expected = numerical_grad(loss, net.theta)
    np.testing.assert_allclose(grad, expected, rtol=1e-6, atol=1e-8)


def _step(net, x, target, cache=None):
    """One forward and backward pass; returns (output, gradient, cache)."""
    out, cache = net.forward(x, cache)
    return out, net.backward(cache, out - target), cache


@pytest.mark.parametrize("sizes", [[3, 5], [3, 16, 2], [3, 128, 128, 2]])
def test_reused_workspace_matches_fresh_arrays(sizes):
    # two steps on different inputs through one workspace: the second writes
    # into the first one's arrays, and neither changes a bit of its output or
    # gradient against fresh-array calls; for the net and its float32 copy,
    # all of them are in the parameters' dtype, though the inputs are float64
    rng = np.random.default_rng(6)
    net64 = Mlp(sizes, rng=rng)
    x1, x2 = rng.standard_normal((2, 256, 3))
    t1, t2 = rng.standard_normal((2, 256, sizes[-1]))
    for dtype in (np.float64, np.float32):
        net = net64.astype(dtype)
        results = []
        cache = Workspace()
        for x, t in ((x1, t1), (x2, t2)):
            out, grad, cache_out = _step(net, x, t, cache)
            assert cache_out is cache
            assert all(a.dtype == dtype for a in [out, grad, *cache.acts])
            ref_out, ref_grad, _ = _step(net, x, t)
            np.testing.assert_array_equal(out, ref_out)
            np.testing.assert_array_equal(grad, ref_grad)
            results.append((out, grad, list(cache.acts)))
        (out1, grad1, acts1), (out2, grad2, acts2) = results
        assert np.shares_memory(out1, out2)
        for a, b in zip(acts1[1:] + [grad1], acts2[1:] + [grad2]):  # all but the input
            assert np.shares_memory(a, b)
        # backward reads grad_out without writing it
        grad_out = out2 - t1
        grad_before = grad_out.copy()
        net.backward(cache, grad_out)
        np.testing.assert_array_equal(grad_out, grad_before)


def test_workspace_of_another_batch_shape_is_not_reused():
    rng = np.random.default_rng(7)
    net = Mlp([3, 8, 8, 2], rng=rng)
    x, t = rng.standard_normal((10, 3)), rng.standard_normal((10, 2))
    _, grad, cache = _step(net, x, t, Workspace())
    acts = list(cache.acts)
    # fewer rows: new activation arrays, exactly the fresh-array result
    out_small, grad_small, cache = _step(net, x[:7], t[:7], cache)
    ref_out, ref_grad, _ = _step(net, x[:7], t[:7])
    np.testing.assert_array_equal(out_small, ref_out)
    np.testing.assert_array_equal(grad_small, ref_grad)
    for a, b in zip(cache.acts[1:], acts[1:]):
        assert a.shape != b.shape and not np.shares_memory(a, b)
    # the gradient's shape does not depend on the batch, so it stays in place
    assert grad_small is grad
    # a net of other widths gets arrays of its own shapes, and a float32
    # copy of the first net arrays of its own dtype
    for other in (Mlp([3, 4, 2], rng=rng), net.astype(np.float32)):
        out_other, grad_other, _ = _step(other, x, t, cache)
        ref_out, ref_grad, _ = _step(other, x, t)
        np.testing.assert_array_equal(out_other, ref_out)
        np.testing.assert_array_equal(grad_other, ref_grad)
        assert not np.shares_memory(grad_other, grad)


def _adam_reference(p, g, m, v, t, lr):
    """Adam with one expression per quantity and fresh temporaries; adam_step
    must match it bit for bit."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g**2
    mhat = m / (1.0 - b1**t)
    vhat = v / (1.0 - b2**t)
    p -= lr * mhat / (np.sqrt(vhat) + eps)


def _layer_scaled_grad(rng, layers, dtype=np.float64):
    """A random gradient per layer matrix, each at its own scale."""
    return [(rng.standard_normal(a.shape) * 10.0 ** rng.integers(-6, 3)).astype(dtype)
            for a in layers]


def test_adam_step_matches_reference_expression():
    rng = np.random.default_rng(8)
    net = Mlp([3, 16, 16, 2], rng=rng)
    ref = net.theta.copy()
    m, v = np.zeros_like(ref), np.zeros_like(ref)
    state = AdamState(net.theta)
    for t in range(1, 8):
        grad = np.concatenate([g.ravel() for g in _layer_scaled_grad(rng, net.layers)])
        lr = np.float64(8e-3) * 0.5 * (1.0 + np.cos(np.pi * t / 8))
        adam_step(net.theta, grad, state, lr=lr)
        _adam_reference(ref, grad, m, v, t, lr)
        np.testing.assert_array_equal(net.theta, ref)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_over_one_vector_matches_per_array(dtype):
    # Adam is elementwise, so one state over theta moves every value exactly
    # as one state per layer matrix does
    rng = np.random.default_rng(18)
    net = Mlp([3, 16, 16, 2], rng=rng).astype(dtype)
    layers = [a.copy() for a in net.layers]
    state, states = AdamState(net.theta), [AdamState(a) for a in layers]
    for t in range(1, 8):
        grads = _layer_scaled_grad(rng, layers, dtype)
        lr = 8e-3 * 0.5 * (1.0 + np.cos(np.pi * t / 8))
        for a, g, s in zip(layers, grads, states):
            adam_step(a, g, s, lr=lr)
        adam_step(net.theta, np.concatenate([g.ravel() for g in grads]), state, lr=lr)
        assert net.theta.dtype == dtype
        for got, want in ((net.theta, layers), (state.m, [s.m for s in states]),
                          (state.v, [s.v for s in states])):
            np.testing.assert_array_equal(got, np.concatenate([a.ravel() for a in want]))


def test_adam_zero_grad_is_noop():
    net = Mlp([2, 4, 1], rng=np.random.default_rng(0))
    before = net.theta.copy()
    state = AdamState(net.theta)
    adam_step(net.theta, np.zeros_like(net.theta), state, lr=0.1)
    np.testing.assert_array_equal(net.theta, before)


def test_adam_first_step_magnitude():
    # with bias correction, the first update is lr * g / (|g| + eps): bounded
    # by lr regardless of the gradient scale
    p = np.array([1.0, -2.0, 0.5])
    g = np.array([100.0, -0.003, 1e-9])
    state = AdamState(p)
    before = p.copy()
    adam_step(p, g, state, lr=0.01)
    delta = p - before
    assert np.all(np.abs(delta) <= 0.01 * (1 + 1e-6))
    # large-gradient coordinates move essentially a full step against the sign
    assert delta[0] == pytest.approx(-0.01, rel=1e-5)
    assert delta[1] == pytest.approx(0.01, rel=1e-3)


def test_adam_minimizes_quadratic():
    target = np.array([3.0, -1.0])
    p = np.zeros(2)
    state = AdamState(p)
    for _ in range(2000):
        g = 2.0 * (p - target)
        adam_step(p, g, state, lr=0.05)
    np.testing.assert_allclose(p, target, atol=1e-3)


def test_adam_shape_mismatch():
    p = np.zeros(3)
    state = AdamState(p)
    for g in (np.zeros(4), np.zeros((3, 1)), []):
        with pytest.raises(ValueError, match="shape mismatch"):
            adam_step(p, g, state, lr=0.1)


def _batches(rng, steps, rows=16):
    return [(rng.standard_normal((rows, 3)), rng.standard_normal((rows, 2))) for _ in range(steps)]


@pytest.mark.parametrize("k", [1, 3])
def test_fit_stops_at_non_finite_loss(k):
    # a NaN target at step k: DivergenceError names step k before its Adam
    # step, so the parameters are those after steps 0 .. k-1
    data = _batches(np.random.default_rng(9), k + 2)
    data[k] = (data[k][0], np.full_like(data[k][1], np.nan))
    ref = Mlp([3, 8, 2], rng=np.random.default_rng(10))
    losses = fit(ref, k, data.__getitem__, lambda step: 1e-2)
    assert losses.shape == (k,) and np.all(np.isfinite(losses))
    net = Mlp([3, 8, 2], rng=np.random.default_rng(10))
    with pytest.raises(DivergenceError, match=f"non-finite loss at step {k}$"):
        fit(net, k + 2, data.__getitem__, lambda step: 1e-2)
    np.testing.assert_array_equal(net.theta, ref.theta)


def test_fit_takes_any_real_learning_rate_as_a_float():
    # a rate that lr(k) returns as a numpy float64 (as np.cos gives it) would
    # make float32 Adam compute its step in float64; fit passes float(lr(k)),
    # so both kinds of rate train the same parameters, bit for bit
    data = _batches(np.random.default_rng(19), 6)
    nets = [Mlp([3, 16, 2], rng=np.random.default_rng(20)) for _ in range(2)]
    rate = 8e-3 / 3
    fit(nets[0], 6, data.__getitem__, lambda step: np.float64(rate))
    fit(nets[1], 6, data.__getitem__, lambda step: rate)
    np.testing.assert_array_equal(nets[0].theta, nets[1].theta)


def test_fit_refuses_non_finite_parameters():
    # finite losses throughout, but a learning rate that overflows the
    # parameters on the last step
    data = _batches(np.random.default_rng(11), 2)
    net = Mlp([3, 8, 2], rng=np.random.default_rng(12))
    with pytest.raises(DivergenceError, match="non-finite parameters after training"):
        fit(net, 2, data.__getitem__, lambda step: 1e-2 if step == 0 else np.inf)


def _abs_gradient_terms(net, x, target):
    """For each layer of the float64 `squared_error` pass, the sum over rows
    of |layer input| * |delta| for its weights and of |delta| for its bias:
    the magnitude of the terms that each gradient sums."""
    acts = [x]
    for l, a in enumerate(net.layers):
        h = acts[-1] @ a[:-1] + a[-1]
        acts.append(np.tanh(h) if l < len(net.layers) - 1 else h)
    terms = []
    delta = (2.0 / len(x)) * (acts[-1] - target)
    for l in range(len(net.layers) - 1, -1, -1):
        if l < len(net.layers) - 1:
            delta = delta * (1.0 - acts[l + 1] ** 2)
        terms.insert(0, (np.abs(acts[l]).T @ np.abs(delta), np.sum(np.abs(delta), axis=0)))
        delta = delta @ net.layers[l][:-1].T
    return terms


def test_fit_step_gradients_within_float32_rounding(monkeypatch):
    # fit's step runs forward and backward in float32, with the gradient in
    # one vector laid out like theta that Adam sees whole, split here by
    # layer matrix and each matrix into its weights and its bias row. A
    # float32 sum of n terms (the bias row's n - 1 of them times the input's
    # row of ones) is off by at most about n * eps times the sum of
    # their magnitudes, and every factor carries the rounding of the layers
    # before it; so each gradient moves from the float64 one of
    # squared_error by at most eps * (rows + sum of widths) * sum |a| |delta|.
    # The loss, from outputs that move by tol_out = eps * (sum of fan-ins) *
    # max(1, |out|), moves by at most mean(sum(2 |r| tol_out + tol_out^2)).
    # Bounds from float32's epsilon, the batch and the widths, not from
    # measured gaps.
    rng = np.random.default_rng(15)
    net = Mlp([3, 128, 128, 2], rng=rng)
    x, target = rng.standard_normal((256, 3)), rng.standard_normal((256, 2))
    want_loss, want = squared_error(net, x, target)
    seen = []

    def spy(theta, grad, state, lr):
        seen.append(grad.copy())
        adam_step(theta, grad, state, lr)

    monkeypatch.setattr(mlp, "adam_step", spy)
    losses = fit(net.astype(np.float64), 1, lambda step: (x, target), lambda step: 1e-3)
    (flat,) = seen
    eps = float(np.finfo(np.float32).eps)
    scale = eps * (len(x) + sum(net.layer_sizes))
    for g32, g64, (w_terms, b_terms) in zip(_by_layer(net, flat), _by_layer(net, want),
                                            _abs_gradient_terms(net, x, target)):
        assert g32.dtype == np.float32
        assert np.all(np.abs(g32[:-1] - g64[:-1]) <= scale * w_terms)
        assert np.all(np.abs(g32[-1] - g64[-1]) <= scale * b_terms)
    out = net(x)
    resid = np.abs(out - target)
    tol_out = eps * sum(net.layer_sizes[:-1]) * max(1.0, np.max(np.abs(out)))
    assert abs(losses[0] - want_loss) <= np.mean(np.sum(2 * resid * tol_out + tol_out**2, axis=-1))
    assert losses[0] != want_loss  # the step did compute in float32


def test_fit_keeps_float64_parameter_arrays(tmp_path):
    # fit trains float32 parameters and writes them into the caller's theta:
    # after fit the net has the same float64 vector, every layer of it
    # trained, every value of it a float32 value, and its checkpoint holds it
    data = _batches(np.random.default_rng(16), 5)
    net = Mlp([3, 8, 8, 2], rng=np.random.default_rng(17))
    theta = net.theta
    before = [a.copy() for a in net.layers]
    fit(net, 5, data.__getitem__, lambda step: 1e-2)
    assert net.theta is theta and theta.dtype == np.float64
    assert all(not np.array_equal(a, b) for a, b in zip(net.layers, before))
    np.testing.assert_array_equal(theta.astype(np.float32).astype(np.float64), theta)
    path = tmp_path / "trained.npz"
    save_checkpoint(str(path), net, "head", "mean")
    with np.load(path) as saved:
        assert saved.files == ["version", "head", "layer_sizes", "w0", "w1", "w2", "b0", "b1", "b2"]
    loaded = load_checkpoint(str(path), "head", "mean")
    assert loaded.theta.dtype == np.float64
    np.testing.assert_array_equal(loaded.theta, net.theta)


def _checkpoint_file(path, **replace):
    net = Mlp([3, 8, 2], rng=np.random.default_rng(13))
    save_checkpoint(str(path), net, "head", "mean")
    with np.load(path) as data:
        arrays = {**data, **replace}
    np.savez(path, **arrays)


# Files that are not checkpoints: each must raise ValueError, never a
# TypeError, MemoryError or zip error.
MALFORMED_CHECKPOINTS = {
    "0-d layer_sizes": lambda path: _checkpoint_file(path, layer_sizes=np.array(3)),
    "2-d layer_sizes": lambda path: _checkpoint_file(path, layer_sizes=np.array([[3, 8, 2]])),
    "column layer_sizes": lambda path: _checkpoint_file(path, layer_sizes=np.array([[3], [8], [2]])),
    "float layer_sizes": lambda path: _checkpoint_file(path, layer_sizes=np.array([3.5, 8, 2])),
    "huge layer_sizes": lambda path: _checkpoint_file(path, layer_sizes=np.array([3, 10**12, 2])),
    "1-d version": lambda path: _checkpoint_file(path, version=np.array([1, 1])),
    "complex version": lambda path: _checkpoint_file(path, version=np.array(1 + 1j)),
    "float32 weights": lambda path: _checkpoint_file(path, w0=np.zeros((3, 8), np.float32)),
    "zip header only": lambda path: path.write_bytes(b"PK\x03\x04 not a zip archive"),
    "empty file": lambda path: path.write_bytes(b""),
    "npy array": lambda path: _npy_file(path),
    "other kind": lambda path: _checkpoint_file(path, head=np.array("noise")),
}


def _npy_file(path):
    with path.open("wb") as f:
        np.save(f, np.zeros(3))


@pytest.mark.parametrize("case", list(MALFORMED_CHECKPOINTS))
def test_load_checkpoint_refuses_malformed_files(tmp_path, case):
    path = tmp_path / "bad.npz"
    MALFORMED_CHECKPOINTS[case](path)
    with pytest.raises(ValueError):
        load_checkpoint(str(path), "head", "mean")


def test_load_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "good.npz"
    _checkpoint_file(path)
    with np.load(path) as data:  # one kind marker beside the net's arrays
        assert data.files == ["version", "head", "layer_sizes", "w0", "w1", "b0", "b1"]
        assert str(data["head"]) == "mean"
    net = load_checkpoint(str(path), "head", "mean")
    ref = Mlp([3, 8, 2], rng=np.random.default_rng(13))
    assert net.layer_sizes == [3, 8, 2]
    np.testing.assert_array_equal(net.theta, ref.theta)
