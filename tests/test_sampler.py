"""Tests for the reverse-diffusion sampler."""

import numpy as np
import pytest

from scdenoise.channel import (
    build_schedule,
    complex_noise,
    snr_to_sigma,
    snr_to_step,
    stream_rng,
)
from scdenoise.constellation import ConstellationScheme, build_bpsk, build_square_qam
from scdenoise.errors import DivergenceError
from scdenoise.metrics import mse
from scdenoise.oracle import oracle_score_fn
from scdenoise.sampler import SamplerConfig, denoise_from_level, pc_sample, predictor_step
from scdenoise.sweep import ExperimentConfig


def default_config(**kw):
    kw.setdefault("schedule", build_schedule(0.01, 10.0, 64))
    return SamplerConfig(**kw)


def single_point_scheme(z1=0.5 + 0.5j):
    return ConstellationScheme(points=np.array([z1]), bit_map=("",))


def test_config_validation():
    # the sampler has no corrector: its former knobs are rejected, not ignored,
    # so a config file that still sets them fails with ValueError (exit 2)
    sched = build_schedule(0.01, 10.0, 64)
    for key, value in (("langevin_steps", 2), ("step_scale", 0.16)):
        with pytest.raises(TypeError):
            SamplerConfig(schedule=sched, **{key: value})
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            ExperimentConfig.from_mapping({key: str(value)})


def test_predictor_zero_score_zero_noise_is_identity():
    z = np.array([0.3 + 0.1j, -1.0 + 2.0j])
    zero = lambda z, s: np.zeros_like(z)
    for noise in (None, np.zeros(2, dtype=complex)):
        np.testing.assert_array_equal(predictor_step(z, zero, 1.0, 0.5, noise), z)


def test_predictor_step_is_pure():
    # z_next + drift + sqrt(dvar) * noise, with the caller's noise and z_next
    # only read: the same call twice gives the same bits, and noise=None is
    # the noise-free step
    rng = stream_rng(3, 0)
    z = complex_noise(rng, (4, 16))
    noise = complex_noise(rng, z.shape)
    z_before, noise_before = z.copy(), noise.copy()
    score = oracle_score_fn(build_square_qam(16))
    sigma_next, sigma_cur = 0.8, 0.5
    dvar = sigma_next**2 - sigma_cur**2
    out = predictor_step(z, score, sigma_next, sigma_cur, noise)
    np.testing.assert_array_equal(noise, noise_before)
    np.testing.assert_array_equal(z, z_before)
    np.testing.assert_array_equal(predictor_step(z, score, sigma_next, sigma_cur, noise), out)
    clean = predictor_step(z, score, sigma_next, sigma_cur, None)
    np.testing.assert_array_equal(clean, z + (dvar / 2.0) * score(z, sigma_next))
    np.testing.assert_array_equal(out, clean + np.sqrt(dvar) * noise)


def test_predictor_sigma_ordering():
    z = np.ones(2, dtype=complex)
    fn = lambda z, s: np.zeros_like(z)
    for sigma_next, sigma_cur in ((0.5, 1.0), (1.0, 1.0), (1.0, -0.5), (np.nan, 0.5),
                                  (np.inf, 0.5)):
        with pytest.raises(ValueError):
            predictor_step(z, fn, sigma_next, sigma_cur, None)


def test_predictor_contracts_toward_single_point():
    # start far out relative to the noise scale: the drift dominates and each
    # reverse step pulls the population toward the single prior mass
    scheme = single_point_scheme()
    z1 = scheme.points[0]
    rng = stream_rng(1, 0)
    n = 10_000
    z = z1 + 10.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    before = np.mean(np.abs(z - z1) ** 2)
    out = predictor_step(z, oracle_score_fn(scheme), 3.0, 0.5, complex_noise(rng, n))
    after = np.mean(np.abs(out - z1) ** 2)
    assert after < before


def test_predictor_linear_score_closed_form():
    # for s(z) = -2 z / sigma_next^2 the drift dvar / 2 * s is a deterministic
    # shrink by (1 - dvar / sigma_next^2), plus noise of variance dvar
    rng = stream_rng(2, 0)
    n = 200_000
    sigma_next, sigma_cur = 1.0, 0.6
    dvar = sigma_next**2 - sigma_cur**2
    z = complex_noise(rng, n)  # E|z|^2 = 1
    score = lambda z, s: -2.0 * z / sigma_next**2
    out = predictor_step(z, score, sigma_next, sigma_cur, complex_noise(rng, n))
    expected = (1.0 - dvar / sigma_next**2) ** 2 * 1.0 + dvar
    assert np.mean(np.abs(out) ** 2) == pytest.approx(expected, rel=0.02)


def _two_rule_chain(z, level, score_fn, sched, rng, sigma_start=None):
    """The sampler written with two rules, as a reference: each step above
    level 0 draws its own noise and scales it in place, and a separate
    Tweedie line, z + (sigma^2 / 2) s, closes the chain."""
    sigma_hi = sched.sigma(level) if sigma_start is None else sigma_start
    z = np.asarray(z, dtype=np.complex128)
    for i in range(level - 1, 0, -1):
        sigma_lo = sched.sigma(i)
        dvar = sigma_hi**2 - sigma_lo**2
        step = (dvar / 2.0) * score_fn(z, sigma_hi)
        step += z
        noise = complex_noise(rng, z.shape)
        noise *= np.sqrt(dvar)
        step += noise
        z, sigma_hi = step, sigma_lo
    return z + (sigma_hi**2 / 2.0) * score_fn(z, sigma_hi)


def test_one_walk_matches_the_two_rule_chain_bit_for_bit():
    # the step to sigma = 0 is the old closing line: dvar / 2 is exactly
    # sigma^2 / 2 there, and a two-term sum commutes; the generator ends in
    # the same state, so later draws from it are unchanged too
    from scdenoise.mlp import Mlp
    from scdenoise.score_model import MlpScoreModel, model_score_fn

    qam = build_square_qam(64)
    config = default_config()
    sched = config.schedule
    net = Mlp([3, 16, 16, 2], rng=stream_rng(15, 0))
    scores = {"oracle": oracle_score_fn(qam), "learned": model_score_fn(MlpScoreModel(net=net))}
    for name, fn in scores.items():
        for level in range(1, sched.n_steps + 1):
            rng = stream_rng(15, 1, level)
            z0 = qam.points[rng.integers(0, 64, size=(4, 8))]
            z = z0 + sched.sigma(level) * complex_noise(rng, z0.shape)
            ours, ref = stream_rng(15, 2, level), stream_rng(15, 2, level)
            np.testing.assert_array_equal(denoise_from_level(z, level, fn, config, ours),
                                          _two_rule_chain(z, level, fn, sched, ref),
                                          err_msg=f"{name} score, level {level}")
            assert ours.bit_generator.state == ref.bit_generator.state
        for snr in (-18.0, -4.0, 40.0):  # pc_sample starts at sigma_ch
            z = qam.points[:32] + snr_to_sigma(snr) * complex_noise(stream_rng(15, 3), 32)
            ours, ref = stream_rng(15, 4), stream_rng(15, 4)
            np.testing.assert_array_equal(
                pc_sample(z, snr, fn, config, ours),
                _two_rule_chain(z, snr_to_step(snr, sched), fn, sched, ref,
                                sigma_start=snr_to_sigma(snr)),
                err_msg=f"{name} score, {snr} dB")
            assert ours.bit_generator.state == ref.bit_generator.state


def test_denoise_from_level_validation_and_observer():
    config = default_config()
    fn = oracle_score_fn(build_bpsk())
    z = np.ones(8, dtype=complex)
    with pytest.raises(ValueError):
        denoise_from_level(z, 0, fn, config, stream_rng(0, 0))
    with pytest.raises(ValueError):
        denoise_from_level(z, 65, fn, config, stream_rng(0, 0))
    seen = []
    denoise_from_level(z, 5, fn, config, stream_rng(0, 0),
                       observer=lambda lvl, sig, zz: seen.append((lvl, sig)))
    # the starting level, then each completed level down to sigma = 0
    assert [lvl for lvl, _ in seen] == [5, 4, 3, 2, 1, 0]
    assert seen[-1][1] == 0.0


def test_denoise_from_level_rejects_non_finite_output():
    config = default_config()
    z = np.ones((2, 8), dtype=complex)
    nan_score = lambda z, s: np.full_like(z, np.nan)
    for level in (1, 5):  # the step to sigma = 0 alone, and the full loop
        with pytest.raises(DivergenceError):
            denoise_from_level(z, level, nan_score, config, stream_rng(0, 0))
    with pytest.raises(DivergenceError):
        pc_sample(z, 0.0, nan_score, config, stream_rng(0, 0))


def test_pc_sample_near_noiseless_passthrough():
    config = default_config()
    scheme = build_bpsk()
    rng = stream_rng(5, 0)
    z0 = scheme.points[rng.integers(0, 2, size=100)]
    sigma_ch = snr_to_sigma(40.0)  # exactly sigma_min: level 1, no reverse steps
    z_tilde = z0 + sigma_ch * complex_noise(rng, 100)
    # only the noise-free step to sigma = 0 runs, and it snaps the output
    # essentially onto z0
    out = pc_sample(z_tilde, 40.0, oracle_score_fn(scheme), config, stream_rng(5, 1))
    assert mse(out, z0) < sigma_ch**2


def test_pc_sample_observer_starts_at_received_symbols():
    # no noise matching: the loop starts from z_tilde itself, at sigma_ch,
    # inside the interval of the level snr_to_step picks
    config = default_config()
    scheme = build_bpsk()
    rng = stream_rng(12, 0)
    snr = -10.0  # off the grid
    sigma_ch = snr_to_sigma(snr)
    level = snr_to_step(snr, config.schedule)
    assert sigma_ch < config.schedule.sigma(level)
    z_tilde = scheme.points[rng.integers(0, 2, size=64)] + sigma_ch * complex_noise(rng, 64)
    seen = []
    pc_sample(z_tilde, snr, oracle_score_fn(scheme), config, rng,
              observer=lambda lvl, sig, zz: seen.append((lvl, sig, zz.copy())))
    first_level, first_sigma, first_z = seen[0]
    assert first_level == level
    assert first_sigma == sigma_ch
    np.testing.assert_array_equal(first_z, z_tilde)
    assert [lvl for lvl, _, _ in seen] == list(range(level, -1, -1))


def test_pc_sample_collapses_single_point():
    # a unit-energy point, as every scheme is: P = 1 in the SNR convention
    z1 = np.exp(0.3j)
    scheme = single_point_scheme(z1)
    config = default_config()
    rng = stream_rng(6, 0)
    n = 1000
    sigma_ch = snr_to_sigma(-10.0)
    z_tilde = z1 + sigma_ch * complex_noise(rng, n)
    out = pc_sample(z_tilde, -10.0, oracle_score_fn(scheme), config, rng)
    assert np.mean(np.abs(out - z1) ** 2) <= 1e-2


def test_pc_sample_beats_raw_at_low_snr():
    scheme = build_bpsk()
    config = default_config()
    rng = stream_rng(7, 0)
    n = 10_000
    for snr in (-18.0, -12.0, -6.0):
        sigma_ch = snr_to_sigma(snr)
        z0 = scheme.points[rng.integers(0, 2, size=n)]
        z_tilde = z0 + sigma_ch * complex_noise(rng, n)
        out = pc_sample(z_tilde, snr, oracle_score_fn(scheme), config, rng)
        assert mse(out, z0) < 0.95 * sigma_ch**2, snr


def test_pc_sample_deterministic():
    scheme = build_bpsk()
    config = default_config()
    z0 = scheme.points[stream_rng(8, 0).integers(0, 2, size=64)]
    z_tilde = z0 + snr_to_sigma(-6.0) * complex_noise(stream_rng(8, 1), 64)
    a = pc_sample(z_tilde, -6.0, oracle_score_fn(scheme), config, stream_rng(8, 2))
    b = pc_sample(z_tilde, -6.0, oracle_score_fn(scheme), config, stream_rng(8, 2))
    np.testing.assert_array_equal(a, b)
    # rows of a batch are denoised independently: changing row 0's input
    # leaves rows 1-2 bit-identical under the same seed, which the batched
    # sweep relies on
    qam = build_square_qam(64)
    z0 = qam.points[stream_rng(8, 3).integers(0, 64, size=(3, 128))]
    z_tilde = z0 + snr_to_sigma(3.0) * complex_noise(stream_rng(8, 4), z0.shape)
    changed = z_tilde.copy()
    changed[0] = -changed[0] + 0.5
    a = pc_sample(z_tilde, 3.0, oracle_score_fn(qam), config, stream_rng(8, 5))
    b = pc_sample(changed, 3.0, oracle_score_fn(qam), config, stream_rng(8, 5))
    assert not np.array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1:], b[1:])
    # every operation is elementwise, so the batch shape does not matter:
    # 3200 symbols as (400, 8) rows give the flat array's output, reshaped
    z0 = qam.points[stream_rng(8, 6).integers(0, 64, size=3200)]
    z_tilde = z0 + snr_to_sigma(0.0) * complex_noise(stream_rng(8, 7), z0.shape)
    flat = pc_sample(z_tilde, 0.0, oracle_score_fn(qam), config, stream_rng(8, 8))
    rows = pc_sample(z_tilde.reshape(400, 8), 0.0, oracle_score_fn(qam), config,
                     stream_rng(8, 8))
    np.testing.assert_array_equal(rows, flat.reshape(400, 8))


def test_score_evaluations_per_level():
    # the cost unit the traced sampler.score_evals_per_symbol reports: one
    # score evaluation per level, k predictor steps, the last one to sigma = 0
    scheme = build_square_qam(64)
    oracle = oracle_score_fn(scheme)
    evaluated = []

    def counting(z, sigma):
        evaluated.append(z.size)
        return oracle(z, sigma)

    config = default_config()
    z = scheme.points[stream_rng(14, 0).integers(0, 64, size=(2, 16))]
    for k in (1, 2, 17, 64):
        evaluated.clear()
        denoise_from_level(z, k, counting, config, stream_rng(14, k))
        assert len(evaluated) == k
    # over the default sweep's 13 SNRs (levels 62 down to 25)
    defaults = ExperimentConfig()
    evaluated.clear()
    n = 128
    for snr in defaults.snr_grid:
        z_tilde = z[0, 0] + snr_to_sigma(snr) * complex_noise(stream_rng(14, 100), n)
        pc_sample(z_tilde, snr, counting, defaults.sampler_config(), stream_rng(14, 101))
    per_symbol = sum(evaluated) / (n * len(defaults.snr_grid))
    assert per_symbol == pytest.approx(566 / 13)  # 43.54


def test_learned_score_tracks_oracle_mse():
    # swapping the oracle for a trained model moves the denoised MSE by a
    # bounded relative amount
    from scdenoise.score_model import DsmConfig, model_score_fn, train_score

    scheme = build_bpsk()
    sched = build_schedule(0.01, 10.0, 64)
    cfg = DsmConfig(schedule=sched, hidden=(64, 64), steps=8000,
                    learning_rate=5e-3, seed=0)
    model, _ = train_score(scheme, cfg)
    config = default_config()
    n = 4000
    for snr in (-12.0, 0.0):
        sigma_ch = snr_to_sigma(snr)
        z0 = scheme.points[stream_rng(9, 0).integers(0, 2, size=n)]
        z_tilde = z0 + sigma_ch * complex_noise(stream_rng(9, 1), n)
        m_oracle = mse(pc_sample(z_tilde, snr, oracle_score_fn(scheme), config,
                                 stream_rng(9, 2)), z0)
        m_model = mse(pc_sample(z_tilde, snr, model_score_fn(model), config,
                                stream_rng(9, 2)), z0)
        assert abs(m_model - m_oracle) / m_oracle <= 0.20, snr
