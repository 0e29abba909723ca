"""Tests for the exact mixture score / posterior-mean oracle."""

import numpy as np
import pytest

from scdenoise.channel import snr_to_sigma
from scdenoise.constellation import ConstellationScheme, build_bpsk, build_square_qam
from scdenoise.oracle import (
    _axis_mean,
    _hermite_rule,
    log_density,
    mixture_score,
    mmse_bound,
    oracle_score_fn,
    posterior_mean,
)

# The BPSK posterior-mean error at sigma = 1, pinned from an independent
# numerical-integration run of E[(1 - tanh(2y))^2] with y ~ N(1, 1/2).
BPSK_MMSE_SIGMA1 = 0.231018


# The M-point references: the mixture over all points, with no per-axis
# factorization.


def _reference_mean(z, sigma, points):
    """Posterior mean over all points, weighted by the softmax of
    -|z - z_m|^2 / sigma^2."""
    d = np.asarray(z, dtype=np.complex128)[..., None] - points
    a = -(d.real**2 + d.imag**2) / sigma**2
    a -= np.max(a, axis=-1, keepdims=True)
    w = np.exp(a)
    w /= np.sum(w, axis=-1, keepdims=True)
    return np.sum(w * points, axis=-1)


def _reference_log_density(z, sigma, points):
    """log of (1/M) sum_m exp(-|z - z_m|^2 / sigma^2) / (pi sigma^2), by log-sum-exp."""
    d = np.asarray(z, dtype=np.complex128)[..., None] - points
    a = -(d.real**2 + d.imag**2) / sigma**2
    amax = np.max(a, axis=-1)
    lse = amax + np.log(np.sum(np.exp(a - amax[..., None]), axis=-1))
    return lse - np.log(points.size * np.pi * sigma**2)


def _reference_product_floor(sigma, scheme):
    """The K x K product rule over both axes at z = z_m + sigma (t_i + j t_j),
    through the M-point posterior mean; in blocks of 256 nodes, so that the
    (256, M) temporaries stay in cache (twice as fast on 64-QAM as whole
    (K^2, M) arrays)."""
    t, w = _hermite_rule()
    noise = sigma * (t[:, None] + 1j * t).ravel()
    weights = np.outer(w, w).ravel()
    total = 0.0
    for zm in scheme.points:
        for i in range(0, noise.size, 256):
            err = zm - _reference_mean(zm + noise[i:i + 256], sigma, scheme.points)
            total += (err.real**2 + err.imag**2) @ weights[i:i + 256]
    return float(total / scheme.order)


def single_point_scheme(z1=0.3 - 0.7j):
    return ConstellationScheme(points=np.array([z1]), bit_map=("",))


def test_log_density_single_gaussian():
    z1 = 0.3 - 0.7j
    scheme = single_point_scheme(z1)
    z = np.array([0.0 + 0.0j, 1.0 + 2.0j])
    for sigma in (0.5, 1.0, 2.0):
        expected = -np.log(np.pi * sigma**2) - np.abs(z - z1) ** 2 / sigma**2
        np.testing.assert_allclose(log_density(z, sigma, scheme), expected, rtol=1e-12)


def test_log_density_bpsk_origin():
    scheme = build_bpsk()
    got = log_density(np.array([0.0 + 0.0j]), 1.0, scheme)[0]
    assert got == pytest.approx(-1.0 - np.log(np.pi), rel=1e-12)


def test_log_density_antipodal_symmetry():
    scheme = build_bpsk()
    rng = np.random.default_rng(0)
    z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    np.testing.assert_allclose(
        log_density(z, 0.8, scheme), log_density(-z, 0.8, scheme), rtol=1e-12
    )


def test_log_density_far_field_stable():
    # log-sum-exp must not overflow or return nan far from the alphabet
    scheme = build_square_qam(64)
    val = log_density(np.array([200.0 + 200.0j]), 0.1, scheme)
    assert np.all(np.isfinite(val))


def test_sigma_validation():
    scheme = build_bpsk()
    z = np.array([0.1 + 0.1j])
    for fn in (log_density, mixture_score, posterior_mean):
        with pytest.raises(ValueError):
            fn(z, 0.0, scheme)
        with pytest.raises(ValueError):
            fn(z, -1.0, scheme)


def test_posterior_mean_within_levels():
    scheme = build_square_qam(64)
    levels = scheme.axis_levels[0]
    rng = np.random.default_rng(1)
    z = 3.0 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
    for sigma in (0.05, 1.0, 8.0):
        # a mean under non-negative weights that sum to 1 stays within the levels
        x = posterior_mean(z, sigma, scheme).view(np.float64)
        assert np.all(x >= levels[0] - 1e-12) and np.all(x <= levels[-1] + 1e-12)
    # far from everything at small sigma the nearest point takes all the mass
    got = posterior_mean(np.array([100.0 + 100.0j]), 0.1, scheme)[0]
    assert got == pytest.approx(levels[-1] * (1.0 + 1.0j), abs=1e-12)


def test_mixture_score_single_point():
    z1 = 0.3 - 0.7j
    scheme = single_point_scheme(z1)
    z = np.array([1.0 + 1.0j, -2.0 + 0.5j])
    for sigma in (0.5, 2.0):
        np.testing.assert_allclose(
            mixture_score(z, sigma, scheme), 2.0 * (z1 - z) / sigma**2, rtol=1e-12
        )


def test_mixture_score_bpsk_values():
    scheme = build_bpsk()
    # odd symmetry pins the score to zero at the origin
    assert mixture_score(np.array([0.0 + 0.0j]), 1.0, scheme)[0] == pytest.approx(0.0, abs=1e-12)
    got = mixture_score(np.array([0.5 + 0.0j]), 1.0, scheme)[0]
    assert got.real == pytest.approx(2.0 * (np.tanh(1.0) - 0.5), rel=1e-12)
    assert got.imag == pytest.approx(0.0, abs=1e-12)


def test_mixture_score_is_gradient_of_log_density():
    # central finite differences on log p, per real coordinate
    h = 1e-6
    rng = np.random.default_rng(2)
    for scheme in (build_bpsk(), build_square_qam(16)):
        z = 1.5 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
        for sigma in (0.3, 1.0, 3.0):
            s = mixture_score(z, sigma, scheme)
            d_re = (log_density(z + h, sigma, scheme) - log_density(z - h, sigma, scheme)) / (2 * h)
            d_im = (
                log_density(z + 1j * h, sigma, scheme)
                - log_density(z - 1j * h, sigma, scheme)
            ) / (2 * h)
            np.testing.assert_allclose(s.real, d_re, rtol=1e-4, atol=1e-7)
            np.testing.assert_allclose(s.imag, d_im, rtol=1e-4, atol=1e-7)


def test_tweedie_identity():
    rng = np.random.default_rng(3)
    for scheme in (build_bpsk(), build_square_qam(64)):
        z = 2.0 * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
        for sigma in (0.1, 1.0, 5.0):
            pm = posterior_mean(z, sigma, scheme)
            via_score = z + (sigma**2 / 2.0) * mixture_score(z, sigma, scheme)
            np.testing.assert_allclose(pm, via_score, atol=1e-12)


def test_posterior_mean_values():
    scheme = build_bpsk()
    assert posterior_mean(np.array([0.0 + 0.0j]), 1.0, scheme)[0] == pytest.approx(0.0, abs=1e-12)
    got = posterior_mean(np.array([0.5 + 0.0j]), 1.0, scheme)[0]
    assert got.real == pytest.approx(np.tanh(1.0), rel=1e-12)
    single = single_point_scheme()
    out = posterior_mean(np.array([5.0 + 5.0j]), 1.0, single)
    np.testing.assert_allclose(out, single.points[0], atol=1e-12)


def test_mmse_bound_limits():
    for scheme in (build_bpsk(), build_square_qam(64)):
        assert mmse_bound(1e-3, scheme) < 1e-4
        # far below 0 dB the floor is the linear MMSE, the prior variance 1.0
        # less its first-order gain, up to O(sigma^-4)
        sigma = 1e3
        half = sigma**2 / 2.0  # noise variance per real axis
        linear = sum(v * half / (v + half) for v in (np.mean(scheme.points.real**2),
                                                     np.mean(scheme.points.imag**2)))
        assert abs(mmse_bound(sigma, scheme) - linear) <= 1e-9
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                mmse_bound(bad, scheme)


def test_mmse_bound_bpsk_pinned_value():
    assert mmse_bound(1.0, build_bpsk()) == pytest.approx(BPSK_MMSE_SIGMA1, rel=1e-5)


def test_oracle_score_fn_matches_direct_call():
    scheme = build_square_qam(16)
    fn = oracle_score_fn(scheme)
    z = np.array([0.2 - 0.4j, 1.0 + 1.0j])
    np.testing.assert_array_equal(fn(z, 0.7), mixture_score(z, 0.7, scheme))


# QPSK rotated by 45 degrees is not the product grid of its real and
# imaginary parts, so it is refused as a scheme. It is served in 4-QAM's
# frame, which this rotation maps onto its points: the isotropic noise is
# unchanged by a rotation.
QPSK_ROTATION = np.exp(0.25j * np.pi)


def _scheme(name):
    if name == "qpsk_rot45":
        with pytest.raises(ValueError, match="product grid"):
            ConstellationScheme(points=QPSK_ROTATION * build_square_qam(4).points,
                                bit_map=("00", "01", "10", "11"))
        return build_square_qam(4)
    return {
        "bpsk": build_bpsk,
        "qam4": lambda: build_square_qam(4),
        "qam16": lambda: build_square_qam(16),
        "qam64": lambda: build_square_qam(64),
    }[name]()


def _equivalence_input(shape):
    rng = np.random.default_rng(11)
    if shape == "far":
        # |z| = 200, kept off the axes: next to an axis the reference's
        # |z - z_m|^2 ~ 4e4 rounds away the small coordinate, so the M-point
        # reference, not the per-axis oracle, would be the inaccurate side
        theta = 0.25 * np.pi + 0.5 * np.pi * np.arange(8) + rng.uniform(-0.3, 0.3, 8)
        return 200.0 * np.exp(1j * theta)
    return 1.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("shape", [(), (64,), (4, 32), "far"])
@pytest.mark.parametrize("sigma", [0.01, 0.1, 0.5, 5.0, 10.0])
@pytest.mark.parametrize("name", ["bpsk", "qam4", "qam16", "qam64", "qpsk_rot45"])
def test_per_axis_path_matches_general_path(name, sigma, shape):
    scheme = _scheme(name)
    re_levels, im_levels = scheme.axis_levels
    assert (re_levels is im_levels) == (name != "bpsk")
    rot = QPSK_ROTATION if name == "qpsk_rot45" else 1.0
    z = _equivalence_input(shape)
    ref_mean = _reference_mean(z, sigma, rot * scheme.points)
    ref_score = (2.0 / sigma**2) * (ref_mean - z)
    ref_log_density = _reference_log_density(z, sigma, rot * scheme.points)
    for got, ref in ((rot * posterior_mean(z / rot, sigma, scheme), ref_mean),
                     (rot * mixture_score(z / rot, sigma, scheme), ref_score),
                     (log_density(z / rot, sigma, scheme), ref_log_density)):
        assert got.shape == np.shape(z)
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("order", [2, 4, 16, 64])
def test_mmse_bound_per_axis_matches_general_path(order):
    scheme = build_bpsk() if order == 2 else build_square_qam(order)
    for sigma in (0.05, 0.3, 1.0, 3.0, 8.0):
        assert mmse_bound(sigma, scheme) == pytest.approx(
            _reference_product_floor(sigma, scheme), rel=1e-10)


def _dense_floor(sigma, levels, axes):
    """Reference floor: `axes` times the per-axis floor (1/L) sum_k
    E(l_k - E[l | l_k + u])^2, u ~ N(0, sigma^2 / 2), by the trapezoid rule
    on a grid that resolves both the noise and the sigma^2 / d wide
    transitions between levels d apart, out to 13 standard deviations."""
    s = sigma / np.sqrt(2.0)
    h = min(s, sigma**2 / np.min(np.diff(levels))) / 40.0
    u = np.arange(-13.0 * s, 13.0 * s + h, h)
    density = np.exp(-(u**2) / (2.0 * s * s)) / np.sqrt(2.0 * np.pi * s * s)
    total = 0.0
    for level in levels:
        logits = -((level + u)[:, None] - levels) ** 2 / sigma**2
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        mean = weights @ levels / weights.sum(axis=1)
        f = (level - mean) ** 2 * density
        total += h * (f.sum() - 0.5 * (f[0] + f[-1]))
    return axes * total / len(levels)


def _reference_floor(name, sigma):
    if name == "bpsk":
        return _dense_floor(sigma, np.array([-1.0, 1.0]), axes=1)
    # a rotation leaves the isotropic noise unchanged: QPSK's floor is 4-QAM's
    order = 4 if name == "qpsk_rot45" else int(name[3:])
    return _dense_floor(sigma, build_square_qam(order).axis_levels[0], axes=2)


@pytest.mark.parametrize("name", ["bpsk", "qam4", "qam16", "qam64", "qpsk_rot45"])
def test_mmse_bound_matches_dense_reference(name):
    scheme = _scheme(name)
    pts = scheme.points
    spacing = np.min(np.abs(pts[:, None] - pts)[~np.eye(pts.size, dtype=bool)])
    for snr_db in range(-18, 25, 3):
        sigma = snr_to_sigma(snr_db)
        got, ref = mmse_bound(sigma, scheme), _reference_floor(name, sigma)
        if sigma >= spacing / 4.0:
            assert got == pytest.approx(ref, rel=1e-6), snr_db
        else:
            # the nodes no longer resolve the sigma^2 / d wide transitions
            # between points d apart; the floor is below 1e-3 here
            assert abs(got - ref) <= 1e-8, snr_db
        if name == "qam64" and snr_db <= 18:
            # every SNR of the default sweep
            assert got == pytest.approx(ref, rel=1e-10), snr_db
    # the smallest noise level of the default schedule
    assert abs(mmse_bound(0.01, scheme) - _reference_floor(name, 0.01)) <= 1e-12


def _axis_mean_unclamped(x, sigma, levels):
    """`_axis_mean` without the floor on the log-weights before np.exp."""
    a = levels[:, None] - x
    a *= a
    a -= np.min(a, axis=0)
    a *= -1.0 / sigma**2
    np.exp(a, out=a)
    num, den = np.stack([levels, np.ones_like(levels)]) @ a
    return num / den


@pytest.mark.parametrize("sigma", [0.003, 0.01, 0.0215, 0.0334, 0.05])
@pytest.mark.parametrize("order", [4, 16, 64])
def test_axis_mean_exp_floor_changes_nothing(order, sigma):
    levels = build_square_qam(order).axis_levels[0]
    rng = np.random.default_rng(int(order / sigma))
    x = np.concatenate([1.5 * rng.standard_normal(4096),
                        rng.choice(levels, 1024) + sigma * rng.standard_normal(1024)])
    # the inputs reach the clamp: many log-weights are below it
    d2 = (levels[:, None] - x) ** 2
    assert np.mean((d2 - d2.min(axis=0)) / sigma**2 > 700.0) > 0.3
    got = _axis_mean(x, sigma, levels)
    assert got.tobytes() == _axis_mean_unclamped(x, sigma, levels).tobytes()
    # exactly between symmetric levels the true mean is 0; the clamped
    # weights of at most e^-700 may move it by about that much
    zero = np.array([0.0, -0.0])
    ref = _axis_mean_unclamped(zero, sigma, levels)
    assert np.max(np.abs(_axis_mean(zero, sigma, levels) - ref)) <= 1e-290
    score = mixture_score(np.array([0.0 + 0.0j]), sigma, build_square_qam(order))
    assert abs(score[0].real - (2.0 / sigma**2) * ref[0]) <= (2.0 / sigma**2) * 1e-290


def test_posterior_mean_keeps_small_offset_far_away():
    # each coordinate is resolved on its own axis, so a large real part does
    # not round away a small imaginary one: for levels +-a the mean is
    # a tanh(2 a y / sigma^2), -4.9e-10 here
    scheme = build_square_qam(4)
    a = scheme.axis_levels[1][-1]
    y = -4.9e-14
    got = posterior_mean(np.array([200.0 + 1j * y]), 0.01, scheme)[0]
    assert got.real == a
    assert got.imag == pytest.approx(a * np.tanh(2.0 * a * y / 0.01**2), rel=1e-12)
