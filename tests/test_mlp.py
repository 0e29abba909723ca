"""Tests for the hand-rolled MLP gradients and the Adam optimizer."""

import numpy as np
import pytest

from scdenoise import mlp
from scdenoise.errors import DivergenceError
from scdenoise.mlp import (BLOCK_BYTES, AdamState, Mlp, Workspace, adam_step, fit,
                           load_checkpoint, save_checkpoint, squared_error)


def numerical_grad(f, params, h=1e-6):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + h
            hi = f()
            p[ix] = orig - h
            lo = f()
            p[ix] = orig
            g[ix] = (hi - lo) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


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
    """weights[l] and biases[l] are exactly the first rows and the last row
    of the one (n_in + 1, n_out) matrix layers[l], and params lists them."""
    sizes = net.layer_sizes
    assert len(net.layers) == len(net.weights) == len(net.biases) == len(sizes) - 1
    for l, a in enumerate(net.layers):
        assert a.shape == (sizes[l] + 1, sizes[l + 1]) and a.flags.c_contiguous
        assert net.weights[l].__array_interface__ == a[:-1].__array_interface__
        assert net.biases[l].__array_interface__ == a[-1].__array_interface__
    assert all(p is q for p, q in zip(net.params, net.weights + net.biases))


def test_weights_and_biases_stay_views_of_one_layer_matrix(tmp_path):
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
    layers = list(net.layers)
    fit(net, 3, lambda step: (x, target), lambda step: 1e-2)
    _assert_layer_views(net)
    assert all(a is b for a, b in zip(net.layers, layers))
    # a write through a view reaches the net's arithmetic
    net.biases[-1][:] = 0.0
    net.weights[-1][:] = 0.0
    np.testing.assert_array_equal(net(x), np.zeros((16, 2)))


def test_astype_copies_every_parameter():
    # a cast copy owns its arrays: the net keeps its float64 arrays, and a
    # change to either side does not reach the other
    net = Mlp([3, 8, 5, 2], rng=np.random.default_rng(14))
    arrays = list(net.params)
    for dtype in (np.float32, np.float64):
        copy = net.astype(dtype)
        assert copy.layer_sizes == net.layer_sizes
        for got, want in zip(copy.params, net.params):
            assert got.dtype == dtype and not np.shares_memory(got, want)
            np.testing.assert_array_equal(got, want.astype(dtype))
    assert all(p is q and p.dtype == np.float64 for p, q in zip(net.params, arrays))
    copy.weights[0][0, 0] += 1.0
    assert copy.weights[0][0, 0] != net.weights[0][0, 0]


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
    grads = net.backward(cache, out - target)
    expected = numerical_grad(loss, net.params)
    for g, e in zip(grads, expected):
        np.testing.assert_allclose(g, e, rtol=1e-6, atol=1e-8)


def _step(net, x, target, cache=None):
    """One forward and backward pass; returns (output, grads, cache)."""
    out, cache = net.forward(x, cache)
    return out, net.backward(cache, out - target), cache


@pytest.mark.parametrize("sizes", [[3, 5], [3, 16, 2], [3, 128, 128, 2]])
def test_reused_workspace_matches_fresh_arrays(sizes):
    # two steps on different inputs through one workspace: the second writes
    # into the first one's arrays, and neither changes a bit of its output or
    # gradients against fresh-array calls; for the net and its float32 copy,
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
            out, grads, cache_out = _step(net, x, t, cache)
            assert cache_out is cache
            assert all(a.dtype == dtype for a in [out, *grads, *cache.acts])
            ref_out, ref_grads, _ = _step(net, x, t)
            np.testing.assert_array_equal(out, ref_out)
            for got, want in zip(grads, ref_grads):
                np.testing.assert_array_equal(got, want)
            results.append((out, grads, list(cache.acts)))
        (out1, grads1, acts1), (out2, grads2, acts2) = results
        assert np.shares_memory(out1, out2)
        for a, b in zip(acts1[1:] + grads1, acts2[1:] + grads2):  # all but the input
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
    _, grads, cache = _step(net, x, t, Workspace())
    acts = list(cache.acts)
    # fewer rows: new activation arrays, exactly the fresh-array result
    out_small, grads_small, cache = _step(net, x[:7], t[:7], cache)
    ref_out, ref_grads, _ = _step(net, x[:7], t[:7])
    np.testing.assert_array_equal(out_small, ref_out)
    for got, want in zip(grads_small, ref_grads):
        np.testing.assert_array_equal(got, want)
    for a, b in zip(cache.acts[1:], acts[1:]):
        assert a.shape != b.shape and not np.shares_memory(a, b)
    # the gradients' shapes do not depend on the batch, so they stay in place
    assert all(np.shares_memory(a, b) for a, b in zip(grads_small, grads))
    # a net of other widths gets arrays of its own shapes, and a float32
    # copy of the first net arrays of its own dtype
    for other in (Mlp([3, 4, 2], rng=rng), net.astype(np.float32)):
        out_other, grads_other, _ = _step(other, x, t, cache)
        ref_out, ref_grads, _ = _step(other, x, t)
        np.testing.assert_array_equal(out_other, ref_out)
        for got, want in zip(grads_other, ref_grads):
            np.testing.assert_array_equal(got, want)
    assert not any(np.shares_memory(a, b) for a, b in zip(grads_other, grads))


def _adam_reference(params, grads, m, v, t, lr):
    """Adam with one expression per quantity and fresh temporaries; adam_step
    must match it bit for bit."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= b1
        mi += (1.0 - b1) * g
        vi *= b2
        vi += (1.0 - b2) * g**2
        mhat = mi / (1.0 - b1**t)
        vhat = vi / (1.0 - b2**t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)


def test_adam_step_matches_reference_expression():
    rng = np.random.default_rng(8)
    net = Mlp([3, 16, 16, 2], rng=rng)
    ref = [p.copy() for p in net.params]
    m = [np.zeros_like(p) for p in ref]
    v = [np.zeros_like(p) for p in ref]
    state = AdamState(net.params)
    for t in range(1, 8):
        grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3) for p in ref]
        lr = np.float64(8e-3) * 0.5 * (1.0 + np.cos(np.pi * t / 8))
        adam_step(net.params, grads, state, lr=lr)
        _adam_reference(ref, grads, m, v, t, lr)
        for got, want in zip(net.params, ref):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(state.m + state.v, m + v):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_over_one_vector_matches_per_array(dtype):
    # Adam is elementwise, so one state over the concatenated parameters
    # moves every value exactly as one state per array does
    rng = np.random.default_rng(18)
    params = [p.astype(dtype) for p in Mlp([3, 16, 16, 2], rng=rng).params]
    flat = np.concatenate([p.ravel() for p in params])
    flat_state, state = AdamState([flat]), AdamState(params)
    for t in range(1, 8):
        grads = [(rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)).astype(dtype)
                 for p in params]
        lr = 8e-3 * 0.5 * (1.0 + np.cos(np.pi * t / 8))
        adam_step(params, grads, state, lr=lr)
        adam_step([flat], [np.concatenate([g.ravel() for g in grads])], flat_state, lr=lr)
        assert flat.dtype == dtype
        np.testing.assert_array_equal(flat, np.concatenate([p.ravel() for p in params]))
        for got, want in zip((flat_state.m[0], flat_state.v[0]), (state.m, state.v)):
            np.testing.assert_array_equal(got, np.concatenate([a.ravel() for a in want]))


def test_adam_zero_grad_is_noop():
    net = Mlp([2, 4, 1], rng=np.random.default_rng(0))
    before = [p.copy() for p in net.params]
    state = AdamState(net.params)
    adam_step(net.params, [np.zeros_like(p) for p in net.params], state, lr=0.1)
    for p, b in zip(net.params, before):
        np.testing.assert_array_equal(p, b)


def test_adam_first_step_magnitude():
    # with bias correction, the first update is lr * g / (|g| + eps): bounded
    # by lr regardless of the gradient scale
    p = np.array([1.0, -2.0, 0.5])
    params = [p]
    g = np.array([100.0, -0.003, 1e-9])
    state = AdamState(params)
    before = p.copy()
    adam_step(params, [g], state, lr=0.01)
    delta = p - before
    assert np.all(np.abs(delta) <= 0.01 * (1 + 1e-6))
    # large-gradient coordinates move essentially a full step against the sign
    assert delta[0] == pytest.approx(-0.01, rel=1e-5)
    assert delta[1] == pytest.approx(0.01, rel=1e-3)


def test_adam_minimizes_quadratic():
    target = np.array([3.0, -1.0])
    p = np.zeros(2)
    params = [p]
    state = AdamState(params)
    for _ in range(2000):
        g = 2.0 * (p - target)
        adam_step(params, [g], state, lr=0.05)
    np.testing.assert_allclose(p, target, atol=1e-3)


def test_adam_shape_mismatch():
    p = np.zeros(3)
    state = AdamState([p])
    with pytest.raises(ValueError):
        adam_step([p], [np.zeros(4)], state, lr=0.1)
    with pytest.raises(ValueError):
        adam_step([p], [], state, lr=0.1)


def test_all_finite_flag():
    net = Mlp([2, 3, 1], rng=np.random.default_rng(0))
    assert net.all_finite()
    net.weights[0][0, 0] = np.nan
    assert not net.all_finite()


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
    for got, want in zip(net.params, ref.params):
        np.testing.assert_array_equal(got, want)


def test_fit_takes_any_real_learning_rate_as_a_float():
    # a rate that lr(k) returns as a numpy float64 (as np.cos gives it) would
    # make float32 Adam compute its step in float64; fit passes float(lr(k)),
    # so both kinds of rate train the same parameters, bit for bit
    data = _batches(np.random.default_rng(19), 6)
    nets = [Mlp([3, 16, 2], rng=np.random.default_rng(20)) for _ in range(2)]
    rate = 8e-3 / 3
    fit(nets[0], 6, data.__getitem__, lambda step: np.float64(rate))
    fit(nets[1], 6, data.__getitem__, lambda step: rate)
    for got, want in zip(*(net.params for net in nets)):
        np.testing.assert_array_equal(got, want)


def test_fit_refuses_non_finite_parameters():
    # finite losses throughout, but a learning rate that overflows the
    # parameters on the last step
    data = _batches(np.random.default_rng(11), 2)
    net = Mlp([3, 8, 2], rng=np.random.default_rng(12))
    with pytest.raises(DivergenceError, match="non-finite parameters after training"):
        fit(net, 2, data.__getitem__, lambda step: 1e-2 if step == 0 else np.inf)


def _abs_gradient_terms(net, x, target):
    """For each gradient of the float64 `squared_error` pass, ordered like
    net.params, the sum over rows of |layer input| * |delta|: the magnitude
    of the terms that the gradient sums."""
    acts = [x]
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = acts[-1] @ w + b
        acts.append(np.tanh(h) if l < len(net.weights) - 1 else h)
    n_layers = len(net.weights)
    terms = [None] * (2 * n_layers)
    delta = (2.0 / len(x)) * (acts[-1] - target)
    for l in range(n_layers - 1, -1, -1):
        if l < n_layers - 1:
            delta = delta * (1.0 - acts[l + 1] ** 2)
        terms[l] = np.abs(acts[l]).T @ np.abs(delta)
        terms[n_layers + l] = np.sum(np.abs(delta), axis=0)
        delta = delta @ net.weights[l].T
    return terms


def test_fit_step_gradients_within_float32_rounding(monkeypatch):
    # fit's step runs forward and backward in float32, with the gradients in
    # one flat vector that Adam sees whole, split here by layer matrix and
    # each matrix into its weights and its bias row. A float32 sum of n
    # terms (the bias row's n - 1 of them times the input's row of ones) is
    # off by at most about n * eps times the sum of
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

    def spy(params, grads, state, lr):
        seen.append([g.copy() for g in grads])
        adam_step(params, grads, state, lr)

    monkeypatch.setattr(mlp, "adam_step", spy)
    losses = fit(net.astype(np.float64), 1, lambda step: (x, target), lambda step: 1e-3)
    (flat,) = seen
    layers = np.split(flat[0], np.cumsum([a.size for a in net.layers])[:-1])
    layers = [g.reshape(a.shape) for g, a in zip(layers, net.layers)]
    got = [g[:-1] for g in layers] + [g[-1] for g in layers]
    eps = float(np.finfo(np.float32).eps)
    scale = eps * (len(x) + sum(net.layer_sizes))
    for g32, g64, terms in zip(got, want, _abs_gradient_terms(net, x, target)):
        assert g32.dtype == np.float32
        assert np.all(np.abs(g32 - g64) <= scale * terms)
    out = net(x)
    resid = np.abs(out - target)
    tol_out = eps * sum(net.layer_sizes[:-1]) * max(1.0, np.max(np.abs(out)))
    assert abs(losses[0] - want_loss) <= np.mean(np.sum(2 * resid * tol_out + tol_out**2, axis=-1))
    assert losses[0] != want_loss  # the step did compute in float32


def test_fit_keeps_float64_parameter_arrays(tmp_path):
    # fit trains float32 parameters and writes them into the caller's arrays:
    # after fit the net has the same float64 array objects, trained, every
    # value of them a float32 value, and its checkpoint holds them
    data = _batches(np.random.default_rng(16), 5)
    net = Mlp([3, 8, 8, 2], rng=np.random.default_rng(17))
    arrays = list(net.params)
    before = [p.copy() for p in arrays]
    fit(net, 5, data.__getitem__, lambda step: 1e-2)
    assert all(p is q and p.dtype == np.float64 for p, q in zip(net.params, arrays))
    assert all(not np.array_equal(p, q) for p, q in zip(net.params, before))
    for p in net.params:
        np.testing.assert_array_equal(p.astype(np.float32).astype(np.float64), p)
    path = tmp_path / "trained.npz"
    save_checkpoint(str(path), net, "head", "mean")
    with np.load(path) as saved:
        assert saved.files == ["version", "head", "layer_sizes", "w0", "w1", "w2", "b0", "b1", "b2"]
    loaded = load_checkpoint(str(path), "head", "mean")
    for got, want in zip(loaded.params, net.params):
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


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
    for got, want in zip(net.params, ref.params):
        np.testing.assert_array_equal(got, want)
