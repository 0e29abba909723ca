"""Tests for the AWGN channel and the annealed forward process."""

import numpy as np
import pytest

from scdenoise.channel import (
    NoiseSchedule,
    awgn_transmit,
    build_schedule,
    complex_noise,
    forward_diffuse,
    snr_to_sigma,
    snr_to_step,
    stream_rng,
    vp_forward_reference,
)
from scdenoise.constellation import build_bpsk, build_square_qam


def default_schedule():
    return build_schedule(0.01, 10.0, 64)


def test_snr_to_sigma_values():
    assert snr_to_sigma(0.0) == pytest.approx(1.0)
    assert snr_to_sigma(-18.0) == pytest.approx(7.943282347242816, rel=1e-12)
    assert snr_to_sigma(18.0) == pytest.approx(0.12589254117941673, rel=1e-12)
    # |SNR| up to 3000 dB maps into check_sigma's range [1e-150, 1e150]
    assert snr_to_sigma(3000.0) == pytest.approx(1e-150, rel=1e-12)
    assert snr_to_sigma(-3000.0) == pytest.approx(1e150, rel=1e-12)
    with pytest.raises(ValueError, match="SNR -3001.0 dB is too low"):
        snr_to_sigma(-3001.0)
    with pytest.raises(ValueError, match="SNR 3001.0 dB is too high"):
        snr_to_sigma(3001.0)


def test_awgn_zero_sigma_identity():
    rng = stream_rng(0, 1)
    z = np.array([1 + 1j, -1 - 1j])
    out = awgn_transmit(z, 0.0, rng)
    np.testing.assert_array_equal(out, z)
    assert out is not z  # a copy, not an alias


def test_awgn_noise_statistics():
    rng = stream_rng(42, 0)
    n = 100_000
    z0 = np.ones(n, dtype=complex)
    zt = awgn_transmit(z0, 1.0, rng)
    noise = zt - z0
    assert np.mean(np.abs(noise) ** 2) == pytest.approx(1.0, rel=0.02)
    # circular symmetry: half the variance per real dimension
    assert np.var(noise.real) == pytest.approx(0.5, rel=0.02)
    assert np.var(noise.imag) == pytest.approx(0.5, rel=0.02)
    # sigma = 0 is the noiseless channel; any other sigma must be finite and
    # positive, and the generator is left untouched when it is refused
    state = rng.bit_generator.state
    for bad in (-1.0, np.nan, np.inf, -np.inf, 1e-151, 1e151):
        with pytest.raises(ValueError, match="finite and positive"):
            awgn_transmit(z0, bad, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("shape", [(), 1, 7, (3, 5), (2, 0), 2048])
def test_complex_noise_bits_match_complex_division(shape):
    # complex_noise scales each part by 1/sqrt(2) in place; that must give the
    # bits of the complex expression it replaced, so every seeded output stays
    for seed in (0, 1, 7, 2024):
        got = complex_noise(stream_rng(seed, 3), shape)
        rng = stream_rng(seed, 3)
        re, im = rng.standard_normal(shape), rng.standard_normal(shape)
        want = (re + 1j * im) / np.sqrt(2.0)
        assert np.shape(got) == np.shape(want) and got.dtype == np.complex128
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_complex_noise_unit_variance():
    rng = stream_rng(7, 0)
    eps = complex_noise(rng, 100_000)
    assert np.mean(np.abs(eps) ** 2) == pytest.approx(1.0, rel=0.02)
    assert abs(np.mean(eps)) < 0.02


def test_schedule_geometric():
    sched = default_schedule()
    assert sched.sigma(1) == pytest.approx(0.01, rel=1e-12)
    assert sched.sigma(64) == pytest.approx(10.0, rel=1e-12)
    assert sched.sigma(0) == 0.0
    ratios = sched.sigmas[1:] / sched.sigmas[:-1]
    np.testing.assert_allclose(ratios, 1000.0 ** (1.0 / 63.0), rtol=1e-12)


def test_schedule_two_point_and_errors():
    sched = build_schedule(1.0, 2.0, 2)
    np.testing.assert_allclose(sched.sigmas, [1.0, 2.0])
    assert sched.n_steps == 2
    # 0.3 * (7 / 0.3) is 7 + 1 ulp: the grid still ends at sigma_max exactly,
    # which snr_to_step's range check compares against
    for lo, hi in ((0.3, 7.0), (0.7, 3.0), (0.01, 10.0)):
        grid = build_schedule(lo, hi, 16)
        assert grid.sigmas[0] == lo and grid.sigmas[-1] == hi == grid.sigma_max
    with pytest.raises(ValueError):
        build_schedule(2.0, 1.0, 4)
    with pytest.raises(ValueError):
        build_schedule(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        build_schedule(0.1, 1.0, 1)
    with pytest.raises(ValueError):
        sched.sigma(3)
    with pytest.raises(ValueError):
        sched.sigma(-1)


@pytest.mark.parametrize("sigmas", [
    [],  # empty: nothing to step down or train on
    [[0.1, 0.2], [0.3, 0.4]],  # not 1-D
    0.5,  # a scalar is not a grid either
    [0.1, np.nan, 1.0],  # NaN: training would end in a non-finite loss
    [0.1, 0.5, np.inf],
    [0.0, 0.5, 1.0],  # sigma_1 = 0 repeats the noiseless origin sigma_0
    [-0.2, 0.5, 1.0],  # negative
    [0.5, 0.2, 1.0],  # not increasing: the sampler would fail mid-chain
    [0.1, 0.5, 0.5],  # repeated level
], ids=["empty", "2d", "scalar", "nan", "inf", "zero", "negative", "unsorted", "repeated"])
def test_schedule_refuses_unusable_grids(sigmas):
    with pytest.raises(ValueError, match="strictly increasing"):
        NoiseSchedule(np.array(sigmas, dtype=float))


def test_schedule_accepts_any_increasing_positive_grid():
    sched = NoiseSchedule(np.array([0.3]))
    assert (sched.n_steps, sched.sigma_max, sched.sigma(1)) == (1, 0.3, 0.3)
    sched = NoiseSchedule([0.1, 0.25, 2.0])  # a list is taken as an array
    np.testing.assert_array_equal(sched.sigmas, [0.1, 0.25, 2.0])
    assert not sched.sigmas.flags.writeable


def test_forward_diffuse_statistics():
    sched = default_schedule()
    rng = stream_rng(3, 0)
    n = 100_000
    z0 = np.full(n, 1.0 + 0.0j)
    for i in (1, 32, 64):
        zi = forward_diffuse(z0, i, sched, rng)
        sigma = sched.sigma(i)
        assert np.mean(np.abs(zi - z0) ** 2) == pytest.approx(sigma**2, rel=0.02)
        tol = 4.0 * (sigma / np.sqrt(2.0)) / np.sqrt(n)
        assert abs(np.mean(zi.real) - 1.0) < tol
        assert abs(np.mean(zi.imag)) < tol


def test_forward_diffuse_small_sigma_stays_near_point():
    sched = default_schedule()  # sigma_1 = 0.01
    rng = stream_rng(11, 0)
    zi = forward_diffuse(np.full(10_000, 1.0 + 0.0j), 1, sched, rng)
    # 0.1 is ~14 noise standard deviations per real axis; excursions are
    # astronomically unlikely at this sample size
    assert np.all(np.abs(zi - 1.0) < 0.1)


def test_forward_diffuse_matches_iterated_corruption():
    # one-shot z0 + sigma_i * eps has the same marginal variance as stepping
    # through every intermediate level with independent increments
    sched = build_schedule(0.1, 2.0, 8)
    rng = stream_rng(5, 0)
    n = 100_000
    z0 = np.zeros(n, dtype=complex)
    z_step = z0.copy()
    prev_var = 0.0
    for i in range(1, 9):
        dvar = sched.sigma(i) ** 2 - prev_var
        z_step = z_step + np.sqrt(dvar) * complex_noise(rng, n)
        prev_var = sched.sigma(i) ** 2
    z_once = forward_diffuse(z0, 8, sched, rng)
    assert np.var(z_step.real) == pytest.approx(np.var(z_once.real), rel=0.03)
    assert np.mean(np.abs(z_step) ** 2) == pytest.approx(sched.sigma(8) ** 2, rel=0.02)
    assert np.mean(np.abs(z_once) ** 2) == pytest.approx(sched.sigma(8) ** 2, rel=0.02)


def test_forward_diffuse_level_range():
    sched = default_schedule()
    rng = stream_rng(0, 0)
    with pytest.raises(ValueError):
        forward_diffuse(np.ones(4, dtype=complex), 0, sched, rng)
    with pytest.raises(ValueError):
        forward_diffuse(np.ones(4, dtype=complex), 65, sched, rng)


def test_snr_to_step_on_grid():
    sched = default_schedule()
    # endpoints round-trip exactly through the dB conversion
    for k, snr in ((1, 40.0), (64, -20.0)):
        assert snr_to_step(snr, sched) == k
    # interior levels: the defining bracketing property (the dB round trip can
    # land a float epsilon off the grid value, shifting the exact match)
    for k in (10, 33):
        snr = -20.0 * np.log10(sched.sigma(k))
        level = snr_to_step(snr, sched)
        sigma_ch = snr_to_sigma(snr)
        assert sched.sigma(level) >= sigma_ch
        assert sched.sigma(level - 1) < sigma_ch


def test_snr_to_step_below_grid():
    sched = default_schedule()
    snr = 60.0  # sigma_ch = 1e-3, below sigma_1 = 0.01
    assert snr_to_step(snr, sched) == 1


def test_snr_to_step_minus18():
    sched = default_schedule()
    sigma_ch = snr_to_sigma(-18.0)
    level = snr_to_step(-18.0, sched)
    assert sched.sigma(level) >= sigma_ch
    assert sched.sigma(level - 1) < sigma_ch


def test_snr_to_step_monotone_and_range_error():
    sched = default_schedule()
    levels = [snr_to_step(s, sched) for s in np.arange(-19.9, 40.0, 0.5)]
    assert all(a >= b for a, b in zip(levels, levels[1:]))
    with pytest.raises(ValueError):
        snr_to_step(-25.0, sched)  # sigma_ch > sigma_max


def test_vp_reference_shrinks_mean():
    rng = stream_rng(21, 0)
    n = 100_000
    z0 = np.full(n, 1.0 + 1.0j)
    out = vp_forward_reference(z0, 64, 0.1, rng)
    shrink = 0.9 ** 32  # sqrt(1 - beta) applied 64 times
    assert np.mean(out.real) == pytest.approx(shrink, abs=0.02)
    assert np.mean(out.imag) == pytest.approx(shrink, abs=0.02)

    # the drift-free forward keeps the mean pinned at z0
    sched = default_schedule()
    kept = forward_diffuse(z0, 64, sched, stream_rng(21, 1))
    tol = 4.0 * (sched.sigma(64) / np.sqrt(2.0)) / np.sqrt(n)
    assert np.mean(kept.real) == pytest.approx(1.0, abs=tol)


@pytest.mark.parametrize("i", [1, 4, 16, 32])
def test_vp_reference_rescaled_is_drift_free(i):
    # criterion 1's check on the drifted reference: with abar = (1 - beta)^i,
    # z_i / sqrt(abar) - z0 has mean 0 on each real axis and total variance
    # (1 - abar) / abar, the drift-free state at that noise
    from scdenoise.sweep import SCATTER_BETA

    n = 100_000
    rng = stream_rng(22, 0)
    z0 = build_square_qam(64).points[rng.integers(0, 64, size=n)]
    abar = (1.0 - SCATTER_BETA) ** i
    dev = vp_forward_reference(z0, i, SCATTER_BETA, stream_rng(22, i)) / np.sqrt(abar) - z0
    var = (1.0 - abar) / abar
    assert np.mean(np.abs(dev) ** 2) == pytest.approx(var, rel=0.02)
    tol = 4.0 * np.sqrt(var / 2.0) / np.sqrt(n)
    assert abs(np.mean(dev.real)) <= tol and abs(np.mean(dev.imag)) <= tol


def test_vp_reference_near_identity_for_tiny_beta():
    rng = stream_rng(2, 0)
    z0 = build_bpsk().points.repeat(100)
    out = vp_forward_reference(z0, 1, 1e-8, rng)
    assert np.max(np.abs(out - z0)) < 1e-3


def test_vp_reference_validation():
    rng = stream_rng(0, 0)
    z = np.ones(3, dtype=complex)
    for beta in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            vp_forward_reference(z, 4, beta, rng)
    with pytest.raises(ValueError):
        vp_forward_reference(z, 0, 0.1, rng)


def test_stream_rng_reproducible_and_independent():
    a = stream_rng(0, 1, 2).standard_normal(8)
    b = stream_rng(0, 1, 2).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    c = stream_rng(0, 1, 3).standard_normal(8)
    assert not np.allclose(a, c)


def test_stream_rng_accepts_negative_ids():
    # SNR values double as stream identifiers, so negatives must work
    a = stream_rng(0, -18, 4).standard_normal(4)
    b = stream_rng(0, -18, 4).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    c = stream_rng(0, 18, 4).standard_normal(4)
    assert not np.allclose(a, c)
