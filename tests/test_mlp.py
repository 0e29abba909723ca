"""Tests for the hand-rolled MLP gradients and the Adam optimizer."""

import numpy as np
import pytest

from scdenoise.mlp import BLOCK_ACTIVATIONS, AdamState, Mlp, adam_step


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
