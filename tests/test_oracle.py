"""Tests for the exact mixture score / posterior-mean oracle."""

import numpy as np
import pytest

from scdenoise.channel import stream_rng
from scdenoise.constellation import ConstellationScheme, build_bpsk, build_square_qam
from scdenoise.oracle import (
    dump_score_field_csv,
    log_density,
    mixture_score,
    mmse_bound,
    oracle_score_fn,
    posterior_mean,
    posterior_weights,
)

# Monte-Carlo value for the BPSK posterior-mean error at sigma = 1, pinned
# from an independent numerical-integration run of E[(1 - tanh(2y))^2] with
# y ~ N(1, 1/2).
BPSK_MMSE_SIGMA1 = 0.231018


def single_point_scheme(z1=0.3 - 0.7j):
    return ConstellationScheme(order=1, points=np.array([z1]), bit_map=("",))


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
    for fn in (log_density, mixture_score, posterior_mean, posterior_weights):
        with pytest.raises(ValueError):
            fn(z, 0.0, scheme)
        with pytest.raises(ValueError):
            fn(z, -1.0, scheme)


def test_posterior_weights_normalized():
    scheme = build_square_qam(64)
    rng = np.random.default_rng(1)
    z = 3.0 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
    for sigma in (0.05, 1.0, 8.0):
        w = posterior_weights(z, sigma, scheme)
        np.testing.assert_allclose(np.sum(w, axis=-1), 1.0, atol=1e-12)
        assert np.all(w >= 0)
    # far from everything at small sigma the nearest point takes all the mass
    w = posterior_weights(np.array([100.0 + 100.0j]), 0.1, scheme)
    assert np.max(w) == pytest.approx(1.0, abs=1e-12)


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
    scheme = build_bpsk()
    rng = stream_rng(0, 50)
    small = mmse_bound(1e-3, scheme, 20_000, rng)
    assert small < 1e-4
    big = mmse_bound(1e3, scheme, 20_000, stream_rng(0, 51))
    assert big == pytest.approx(1.0, rel=0.05)  # prior variance of the alphabet
    with pytest.raises(ValueError):
        mmse_bound(1.0, scheme, 0, rng)


def test_mmse_bound_bpsk_pinned_value():
    scheme = build_bpsk()
    vals = [mmse_bound(1.0, scheme, 1_000_000, stream_rng(seed, 0)) for seed in (0, 1)]
    for v in vals:
        assert 0.0 < v < 1.0
        assert v == pytest.approx(BPSK_MMSE_SIGMA1, rel=0.01)
    assert vals[0] == pytest.approx(vals[1], rel=0.01)


def test_oracle_score_fn_matches_direct_call():
    scheme = build_square_qam(16)
    fn = oracle_score_fn(scheme)
    z = np.array([0.2 - 0.4j, 1.0 + 1.0j])
    np.testing.assert_array_equal(fn(z, 0.7), mixture_score(z, 0.7, scheme))


def test_score_field_csv(tmp_path):
    scheme = build_bpsk()
    path = tmp_path / "field.csv"
    dump_score_field_csv(scheme, (0.5, 1.0), str(path), n_grid=5)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "re,im,sigma,score_re,score_im"
    assert len(lines) == 1 + 2 * 25


def _rotated_qpsk():
    points = np.exp(0.25j * np.pi) * build_square_qam(4).points
    return ConstellationScheme(order=4, points=points, bit_map=("00", "01", "10", "11"))


def _equivalence_input(shape):
    rng = np.random.default_rng(11)
    if shape == "far":
        # |z| = 200, kept off the axes: next to an axis the reference's
        # |z - z_m|^2 ~ 4e4 rounds away the small coordinate, so the general
        # path, not the per-axis one, would be the inaccurate side
        theta = 0.25 * np.pi + 0.5 * np.pi * np.arange(8) + rng.uniform(-0.3, 0.3, 8)
        return 200.0 * np.exp(1j * theta)
    return 1.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("shape", [(), (64,), (4, 32), "far"])
@pytest.mark.parametrize("sigma", [0.01, 0.1, 0.5, 5.0, 10.0])
@pytest.mark.parametrize("name", ["bpsk", "qam4", "qam16", "qam64", "qpsk_rot45"])
def test_per_axis_path_matches_general_path(name, sigma, shape):
    scheme = {
        "bpsk": build_bpsk,
        "qam4": lambda: build_square_qam(4),
        "qam16": lambda: build_square_qam(16),
        "qam64": lambda: build_square_qam(64),
        "qpsk_rot45": _rotated_qpsk,
    }[name]()
    assert (scheme.axis_levels is None) == (name in ("bpsk", "qpsk_rot45"))
    z = _equivalence_input(shape)
    # the general M-point path: posterior weights over all points
    ref_mean = np.sum(posterior_weights(z, sigma, scheme) * scheme.points, axis=-1)
    ref_score = (2.0 / sigma**2) * (ref_mean - z)
    for got, ref in ((posterior_mean(z, sigma, scheme), ref_mean),
                     (mixture_score(z, sigma, scheme), ref_score)):
        assert got.shape == np.shape(z)
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))
