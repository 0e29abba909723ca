"""Tests for the hand-rolled MLP gradients and the Adam optimizer."""

import numpy as np
import pytest

from scdenoise.errors import DivergenceError
from scdenoise.mlp import (BLOCK_ACTIVATIONS, AdamState, Mlp, Workspace, adam_step, fit,
                           load_checkpoint, save_checkpoint)


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


@pytest.mark.parametrize("n", [129, 191, 192, 300, 512, 1025])
def test_blocked_call_matches_forward_output(n):
    # a 64-wide net runs inference in blocks of BLOCK_ACTIVATIONS // 64 rows;
    # neither the block edges nor the merged tail may change a bit
    rng = np.random.default_rng(5)
    net = Mlp([3, 64, 64, 2], rng=rng)
    assert BLOCK_ACTIVATIONS // 64 == 128
    x = rng.standard_normal((n, 3))
    got = net(x)
    assert got.shape == (n, 2) and got.flags.c_contiguous
    np.testing.assert_array_equal(got, net.forward(x)[0])


def _float32_copy(net):
    copy = Mlp(net.layer_sizes)
    copy.weights = [w.astype(np.float32) for w in net.weights]
    copy.biases = [b.astype(np.float32) for b in net.biases]
    return copy


def _one_block(net, x):
    """`_layers`' arithmetic on the whole batch at once, in the parameters' dtype."""
    h = x.astype(net.weights[0].dtype)
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w
        h += b
        if l < len(net.weights) - 1:
            np.tanh(h, out=h)
    return h


@pytest.mark.parametrize("n", [129, 191, 192, 300, 512, 1025])
def test_float32_blocked_call_matches_one_block(n):
    # float32 parameters run inference in float32, in blocks of the same
    # 64 KiB (twice the rows of a float64 block), and return float64; the
    # block edges may not change a bit
    rng = np.random.default_rng(5)
    net = _float32_copy(Mlp([3, 64, 64, 2], rng=rng))
    x = rng.standard_normal((n, 3))
    got = net(x)
    assert got.dtype == np.float64 and got.shape == (n, 2) and got.flags.c_contiguous
    want = _one_block(net, x)
    assert want.dtype == np.float32
    np.testing.assert_array_equal(got, want.astype(np.float64))


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
    # gradients against fresh-array calls
    rng = np.random.default_rng(6)
    net = Mlp(sizes, rng=rng)
    x1, x2 = rng.standard_normal((2, 256, 3))
    t1, t2 = rng.standard_normal((2, 256, sizes[-1]))
    results = []
    cache = Workspace()
    for x, t in ((x1, t1), (x2, t2)):
        out, grads, cache_out = _step(net, x, t, cache)
        assert cache_out is cache
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
    # a net of other widths gets arrays of its own shapes
    other = Mlp([3, 4, 2], rng=rng)
    out_other, grads_other, _ = _step(other, x, t, cache)
    ref_out, ref_grads, _ = _step(other, x, t)
    np.testing.assert_array_equal(out_other, ref_out)
    for got, want in zip(grads_other, ref_grads):
        np.testing.assert_array_equal(got, want)


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


def test_fit_refuses_non_finite_parameters():
    # finite losses throughout, but a learning rate that overflows the
    # parameters on the last step
    data = _batches(np.random.default_rng(11), 2)
    net = Mlp([3, 8, 2], rng=np.random.default_rng(12))
    with pytest.raises(DivergenceError, match="non-finite parameters after training"):
        fit(net, 2, data.__getitem__, lambda step: 1e-2 if step == 0 else np.inf)


def _checkpoint_file(path, **replace):
    net = Mlp([3, 8, 2], rng=np.random.default_rng(13))
    save_checkpoint(str(path), net, head="mean")
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
}


def _npy_file(path):
    with path.open("wb") as f:
        np.save(f, np.zeros(3))


@pytest.mark.parametrize("case", list(MALFORMED_CHECKPOINTS))
def test_load_checkpoint_refuses_malformed_files(tmp_path, case):
    path = tmp_path / "bad.npz"
    MALFORMED_CHECKPOINTS[case](path)
    with pytest.raises(ValueError):
        load_checkpoint(str(path), "head")


def test_load_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "good.npz"
    _checkpoint_file(path)
    net, head = load_checkpoint(str(path), "head")
    ref = Mlp([3, 8, 2], rng=np.random.default_rng(13))
    assert head == "mean" and net.layer_sizes == [3, 8, 2]
    for got, want in zip(net.params, ref.params):
        np.testing.assert_array_equal(got, want)
