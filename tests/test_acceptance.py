"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run pytest with -s to see them all, or
read the captured output of failing tests). The checks exercise the library
through its public interfaces only.
"""

import numpy as np
import pytest

from scdenoise.channel import (
    awgn_transmit,
    build_schedule,
    complex_noise,
    forward_diffuse,
    snr_to_sigma,
    snr_to_step,
    stream_rng,
)
from scdenoise.codec import (
    DecoderModel,
    JointTrainConfig,
    QuantizingEncoder,
    decode,
    encode,
    joint_train,
)
from scdenoise.constellation import build_bpsk, build_square_qam, demodulate_hard
from scdenoise.metrics import mse, ser
from scdenoise.mlp import Mlp
from scdenoise.oracle import (
    log_density,
    mixture_score,
    mmse_bound,
    oracle_score_fn,
    posterior_mean,
)
from scdenoise.sampler import SamplerConfig, pc_sample
from scdenoise.score_model import (
    DsmConfig,
    MlpScoreModel,
    dsm_loss,
    model_score_fn,
    relative_score_error,
    train_score,
)
from scdenoise.sweep import ExperimentConfig, emit_scatter, run_sweep, write_sweep_csv

SNR_GRID = (-18.0, -12.0, -6.0, 0.0, 6.0, 12.0, 18.0)


def report(num: int, passed: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def qam64():
    return build_square_qam(64)


@pytest.fixture(scope="module")
def schedule():
    return build_schedule(0.01, 10.0, 64)


@pytest.fixture(scope="module")
def snr_measurements(qam64, schedule):
    """Raw, oracle-denoised, and MMSE-floor MSE per SNR; shared by the
    sampler-optimality and trend checks. 10^4 symbols per SNR point."""
    config = SamplerConfig(schedule=schedule)
    fn = oracle_score_fn(qam64)
    n = 10_000
    rows = {}
    for si, snr in enumerate(SNR_GRID):
        sigma_ch = snr_to_sigma(snr)
        rng = stream_rng(2024, si, 0)
        z0 = qam64.points[rng.integers(0, 64, size=n)]
        z_tilde = awgn_transmit(z0, sigma_ch, rng)
        z_hat = pc_sample(z_tilde, snr, fn, config, stream_rng(2024, si, 1))
        bound = mmse_bound(sigma_ch, qam64)
        rows[snr] = {
            "raw": mse(z_tilde, z0),
            "denoised": mse(z_hat, z0),
            "bound": bound,
        }
    return rows


def test_criterion_1_forward_channel_match(qam64, schedule):
    n = 100_000
    failures = []
    rng = stream_rng(11, 0)
    idx = rng.integers(0, 64, size=n)
    z0 = qam64.points[idx]
    for i in (1, 16, 32, 64):
        zi = forward_diffuse(z0, i, schedule, stream_rng(11, i))
        sigma = schedule.sigma(i)
        var = np.mean(np.abs(zi - z0) ** 2)
        if not np.isclose(var, sigma**2, rtol=0.02):
            failures.append(f"var at level {i}: {var:.4g} vs {sigma**2:.4g}")
        # drift-free: the mean of the deviation is zero per real dimension
        dev = zi - z0
        tol = 4.0 * (sigma / np.sqrt(2.0)) / np.sqrt(n)
        if abs(np.mean(dev.real)) > tol or abs(np.mean(dev.imag)) > tol:
            failures.append(f"mean drift at level {i}")
    report(1, not failures, "; ".join(failures) or
           "Var(z_i - z_0) = sigma_i^2 within 2% and mean drift-free at i in {1,16,32,64}")


def test_criterion_2_score_oracle_correctness(qam64):
    h = 1e-5
    axis = np.linspace(-2.0, 2.0, 41)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    z = (re + 1j * im).ravel()
    worst = 0.0
    for scheme in (build_bpsk(), qam64):
        for sigma in (0.1, 0.5, 1.0, 3.0):
            s = mixture_score(z, sigma, scheme)
            d_re = (log_density(z + h, sigma, scheme)
                    - log_density(z - h, sigma, scheme)) / (2 * h)
            d_im = (log_density(z + 1j * h, sigma, scheme)
                    - log_density(z - 1j * h, sigma, scheme)) / (2 * h)
            err = np.hypot(s.real - d_re, s.imag - d_im)
            rel = err / np.maximum(np.abs(s), 1e-3)
            worst = max(worst, float(rel.max()))
    tweedie_worst = 0.0
    rng = stream_rng(12, 0)
    pts = 3.0 * complex_noise(rng, 500)
    for sigma in (0.1, 1.0, 5.0):
        pm = posterior_mean(pts, sigma, qam64)
        via = pts + (sigma**2 / 2.0) * mixture_score(pts, sigma, qam64)
        tweedie_worst = max(tweedie_worst, float(np.max(np.abs(pm - via))))
    ok = worst <= 1e-5 and tweedie_worst <= 1e-12
    report(2, ok, f"finite-difference rel err {worst:.2e} (<= 1e-5), "
                  f"Tweedie residual {tweedie_worst:.2e} (<= 1e-12)")


def test_criterion_3_dsm_training(qam64, schedule):
    # analytic gradients against central differences on a small model
    rng0 = stream_rng(13, 0)
    worst_grad = 0.0
    net = Mlp([3, 10, 2], rng=rng0)
    model = MlpScoreModel(net=net)
    z0 = qam64.points[rng0.integers(0, 64, size=16)]
    _, grad = dsm_loss(model, z0, schedule, stream_rng(77, 0))
    h = 1e-6
    theta = net.theta
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        hi = dsm_loss(model, z0, schedule, stream_rng(77, 0))[0]
        theta[i] = orig - h
        lo = dsm_loss(model, z0, schedule, stream_rng(77, 0))[0]
        theta[i] = orig
        num = (hi - lo) / (2 * h)
        denom = max(abs(num), abs(float(grad[i])), 1e-8)
        worst_grad = max(worst_grad, abs(float(grad[i]) - num) / denom)

    bpsk_cfg = DsmConfig(schedule=schedule, hidden=(64, 64), steps=20_000,
                         learning_rate=5e-3, seed=0)
    bpsk_model, _ = train_score(build_bpsk(), bpsk_cfg)
    bpsk_rel = relative_score_error(model_score_fn(bpsk_model), build_bpsk())

    qam_cfg = DsmConfig(schedule=schedule, hidden=(128, 128), steps=60_000,
                        learning_rate=8e-3, seed=0)
    qam_model, _ = train_score(qam64, qam_cfg)
    qam_rel = relative_score_error(model_score_fn(qam_model), qam64)

    ok = worst_grad <= 1e-4 and bpsk_rel <= 0.05 and qam_rel <= 0.05
    report(3, ok, f"gradient check {worst_grad:.2e} (<= 1e-4), "
                  f"relative score error BPSK {bpsk_rel:.4f} / 64-QAM {qam_rel:.4f} (<= 0.05)")


def test_criterion_4_sampler_optimality_gap(snr_measurements):
    # A posterior sample z' has E|z0 - z'|^2 = 2 MMSE, so the exact posterior
    # sampler's MSE, not the MMSE floor itself, is the reference.
    details = []
    ok = True
    for snr in SNR_GRID:
        row = snr_measurements[snr]
        ratio = row["denoised"] / (2.0 * row["bound"])
        details.append(f"{snr:+.0f} dB: {ratio:.2f}x")
        if ratio > 1.15:
            ok = False
    report(4, ok, "denoised MSE / exact posterior sampler MSE (2 x MMSE bound, "
                  "<= 1.15 required): " + ", ".join(details))


def _axis_weights(x, sigma, levels):
    """(L, N) posterior weights of the levels given the coordinates x, under
    N(0, sigma^2 / 2) noise: the softmax in oracle._axis_mean."""
    a = levels[:, None] - x
    a *= a
    a -= np.min(a, axis=0)
    w = np.exp(a * (-1.0 / sigma**2))
    return w / np.sum(w, axis=0)


def _level_hits(z_tilde, z_hat, sigma, levels):
    """Per real coordinate: w_k'(z~), the posterior weight at z~ of the level
    k' that z_hat's coordinate rounds to, and sum_k w_k(z~)^2, the
    posterior's collision probability. If z_hat is an exact posterior sample
    of z~, the two have equal means."""
    w = _axis_weights(z_tilde.view(np.float64), sigma, levels)
    k = np.argmin(np.abs(levels[:, None] - z_hat.view(np.float64)), axis=0)
    return w[k, np.arange(k.size)], np.sum(w * w, axis=0)


def _moment_matched_sample(z, snr, levels, sched, rng):
    """A reverse sampler whose step from sigma_{i+1} to sigma_i matches the
    exact transition's mean and variance per real axis (ROADMAP item 13),
    from the oracle's per-axis posterior: with dvar = sigma_{i+1}^2 -
    sigma_i^2, g = dvar / sigma_{i+1}^2 and D and V the posterior mean and
    variance of a coordinate's level at sigma_{i+1}, the mean is
    x + g (D - x) and the variance dvar sigma_i^2 / (2 sigma_{i+1}^2) +
    g^2 V. The step to sigma = 0 is the Tweedie step, x -> D. Like
    `pc_sample`, it starts at the channel noise itself."""
    sigma_hi = snr_to_sigma(snr)
    x = z.view(np.float64)
    for i in range(snr_to_step(snr, sched) - 1, -1, -1):
        w = _axis_weights(x, sigma_hi, levels)
        d = levels @ w
        if i == 0:
            return d.view(np.complex128)
        sigma_lo = sched.sigma(i)
        dvar = sigma_hi**2 - sigma_lo**2
        g = dvar / sigma_hi**2
        var = dvar * sigma_lo**2 / (2.0 * sigma_hi**2) + g**2 * ((levels**2) @ w - d**2)
        x = x + g * (d - x) + np.sqrt(var) * rng.standard_normal(x.shape)
        sigma_hi = sigma_lo


def _source_mean(y, sigma, levels):
    """Exact E[x | y] per source coordinate of the quantizing encoder: x ~
    U[-1, 1] is sent as the level nearest x * span, and y is that level under
    N(0, sigma^2 / 2) noise. Level k's cell in x has centre c_k, on which x
    is uniform, and width w_k, its prior weight, so E[x | y] = sum_k c_k
    w_k p(y | k) / sum_k w_k p(y | k). y is 1-D."""
    inner = (levels[:-1] + levels[1:]) / (2.0 * levels[-1])
    lo, hi = np.append(-1.0, inner), np.append(inner, 1.0)
    w = _axis_weights(y, sigma, levels) * (hi - lo)[:, None]
    return ((lo + hi) / 2.0) @ w / np.sum(w, axis=0)


def test_sampler_level_frequencies_match_posterior(qam64, schedule):
    # Sharper than criterion 4's MSE: if z' is an exact posterior sample of
    # z~ and k' the level a coordinate of z' rounds to, then E[w_k'(z~)] =
    # E[sum_k w_k(z~)^2], the posterior's collision probability. The bound is
    # 2%: with N = 64 levels the oracle sampler reads 0.2-1.4% low over six
    # seeds (discretization bias; the standard error on 20k symbols is about
    # 0.2%), and with N = 16 it reads 2.3-4.3% low from -6 to +12 dB.
    config = SamplerConfig(schedule=schedule)
    fn = oracle_score_fn(qam64)
    levels = qam64.axis_levels[0]
    n = 20_000
    ok, details = True, []
    for si, snr in enumerate((-12.0, -6.0, 0.0, 6.0, 12.0)):
        sigma_ch = snr_to_sigma(snr)
        rng = stream_rng(2025, si, 0)
        z_tilde = awgn_transmit(qam64.points[rng.integers(0, 64, size=n)], sigma_ch, rng)
        z_hat = pc_sample(z_tilde, snr, fn, config, stream_rng(2025, si, 1))
        hit, collision = _level_hits(z_tilde, z_hat, sigma_ch, levels)
        observed, expected = np.mean(hit), np.mean(collision)
        ok &= abs(observed / expected - 1.0) <= 0.02
        details.append(f"{snr:+.0f} dB: {observed:.4f} vs {expected:.4f}")
    assert ok, "mean w_k'(z~) vs collision probability (within 2%): " + ", ".join(details)


def test_moment_matched_step_matches_posterior_on_16_levels(qam64):
    # ROADMAP item 13, measured test-side on the level-frequency test's data:
    # on a 16-level grid the moment-matched step's w_k'(z~) - collision
    # probability reads +0.7, +0.4, -1.6, +0.6 and -1.1 standard errors from
    # -12 to +12 dB, and its MSE 0.985-1.013 x the posterior sampler's
    # (2 x floor); the package's Euler step on the same grid reads -11.7 to
    # -18.5 SE, which shows the statistic can see a biased sampler.
    sched = build_schedule(0.01, 10.0, 16)
    config = SamplerConfig(schedule=sched)
    fn = oracle_score_fn(qam64)
    levels = qam64.axis_levels[0]
    n = 20_000

    def excess_se(z_tilde, z_hat, sigma):
        diff = np.subtract(*_level_hits(z_tilde, z_hat, sigma, levels))
        return np.mean(diff) / (np.std(diff) / np.sqrt(diff.size))

    ok, details = True, []
    for si, snr in enumerate((-12.0, -6.0, 0.0, 6.0, 12.0)):
        sigma_ch = snr_to_sigma(snr)
        rng = stream_rng(2025, si, 0)
        z0 = qam64.points[rng.integers(0, 64, size=n)]
        z_tilde = awgn_transmit(z0, sigma_ch, rng)
        matched = _moment_matched_sample(z_tilde, snr, levels, sched, stream_rng(2025, si, 1))
        euler = pc_sample(z_tilde, snr, fn, config, stream_rng(2025, si, 1))
        se, euler_se = excess_se(z_tilde, matched, sigma_ch), excess_se(z_tilde, euler, sigma_ch)
        ratio = mse(matched, z0) / (2.0 * mmse_bound(sigma_ch, qam64))
        ok &= abs(se) <= 3.0 and 0.97 <= ratio <= 1.03 and euler_se < -6.0
        details.append(f"{snr:+.0f} dB: {se:+.1f} SE, {ratio:.3f}x, Euler {euler_se:+.1f} SE")
    assert ok, ("moment-matched step within 3 SE and 0.97-1.03 x 2 floor, Euler below "
                "-6 SE, on 16 levels: " + ", ".join(details))


def test_criterion_5_gain_trend(snr_measurements):
    failures = []
    gaps = []
    for snr in SNR_GRID:
        row = snr_measurements[snr]
        gaps.append((snr, row["raw"] - row["denoised"]))
    for snr, gap in gaps:
        if snr <= 12.0 and gap <= 0.0:
            failures.append(f"no gain at {snr:+.0f} dB (gap {gap:.3f})")
    ordered = [gap for snr, gap in sorted(gaps) if snr <= 12.0]
    if any(a <= b for a, b in zip(ordered, ordered[1:])):
        failures.append("gap not monotonically increasing toward low SNR")
    raw_m18 = snr_measurements[-18.0]["raw"]
    den_m18 = snr_measurements[-18.0]["denoised"]
    if not np.isclose(raw_m18, 10.0**1.8, rtol=0.02):
        failures.append(f"raw MSE at -18 dB {raw_m18:.2f} vs 63.10")
    if den_m18 > 1.2:
        failures.append(f"denoised MSE at -18 dB {den_m18:.3f} > 1.2")
    report(5, not failures, "; ".join(failures) or
           "denoising gain positive and increasing toward low SNR; -18 dB anchors hold")


def test_criterion_6_joint_training_benefit(qam64, schedule):
    enc = QuantizingEncoder(qam64)
    fn = oracle_score_fn(qam64)
    sampler_cfg = SamplerConfig(schedule=schedule)
    d = 16

    def train(denoise):
        dec = DecoderModel.build(d // 2, d, rng=stream_rng(42, 0))
        cfg = JointTrainConfig(steps=1500, batch_size=64, learning_rate=1e-3)
        dec, _ = joint_train(enc, dec, fn if denoise else None, sampler_cfg, schedule,
                             cfg, stream_rng(42, 1))
        return dec

    dec_denoised = train(True)
    dec_raw = train(False)

    rng = stream_rng(42, 99)
    x = rng.uniform(-1.0, 1.0, size=(2000, d))
    z0 = encode(x, enc)
    sigma_ch = snr_to_sigma(-6.0)
    z_tilde = awgn_transmit(z0, sigma_ch, rng)
    z_hat = pc_sample(z_tilde, -6.0, fn, sampler_cfg, rng)
    mse_denoised = float(np.mean((decode(z_hat, dec_denoised) - x) ** 2))
    mse_raw = float(np.mean((decode(z_tilde, dec_raw) - x) ** 2))
    gain = (mse_raw - mse_denoised) / mse_raw
    # the floor any decoder of z_tilde has, shown beside the two, not gated
    x_exact = _source_mean(z_tilde.view(np.float64).ravel(), sigma_ch, qam64.axis_levels[0])
    floor = float(np.mean((x_exact.reshape(x.shape) - x) ** 2))
    report(6, gain >= 0.05,
           f"held-out reconstruction MSE at -6 dB: denoised pipeline {mse_denoised:.4f}, "
           f"raw pipeline {mse_raw:.4f}, relative gain {gain:+.3f} (>= 0.05 required); "
           f"exact decoder E[x | z~] {floor:.4f}")


def test_codec_pipeline_floor(qam64):
    # criterion 6's layout (16-dimensional sources on 64-QAM) at 200k source
    # coordinates per SNR: the exact decoder's MSE matches the table measured
    # for it (ROADMAP item 16, also 200k coordinates) within 4 combined
    # standard errors, and is no larger than the training-free estimator's,
    # the oracle posterior mean over the level span
    enc = QuantizingEncoder(qam64)
    levels = qam64.axis_levels[0]
    table = {-12.0: 0.3170, -6.0: 0.2774, 0.0: 0.1844, 6.0: 0.0783, 12.0: 0.0277}
    details = []
    for si, (snr, expected) in enumerate(table.items()):
        rng = stream_rng(16, si)
        x = rng.uniform(-1.0, 1.0, size=(12_500, 16))
        sigma_ch = snr_to_sigma(snr)
        z_tilde = awgn_transmit(encode(x, enc), sigma_ch, rng)
        x_exact = _source_mean(z_tilde.view(np.float64).ravel(), sigma_ch, levels)
        err = (x_exact.reshape(x.shape) - x) ** 2
        free = float(np.mean((posterior_mean(z_tilde, sigma_ch, qam64).view(np.float64)
                              / enc.level_span - x) ** 2))
        got, se = float(np.mean(err)), float(np.std(err)) / np.sqrt(err.size)
        details.append(f"{snr:+.0f} dB: {got:.4f} (table {expected:.4f}, free {free:.4f})")
        assert abs(got - expected) <= 4.0 * np.sqrt(2.0) * se, details[-1]
        assert got <= free, details[-1]
    print("exact decoder MSE per source coordinate: " + ", ".join(details))


def test_fading_floor(qam64):
    # flat Rayleigh fading with a known gain h: zero-forced symbols are AWGN
    # with sigma_i = sigma / |h_i|, so the floor is E_g[mmse_bound(sigma /
    # sqrt(g))] with g = |h|^2 ~ Exp(1), here a 600-point trapezoid rule in
    # log g; it matches the table measured for it (ROADMAP item 17) and a
    # Monte-Carlo posterior mean at each symbol's own sigma_i within 4
    # standard errors
    levels = qam64.axis_levels[0]
    u = np.linspace(np.log(1e-12), np.log(60.0), 600)
    g = np.exp(u)
    density = g * np.exp(-g)  # of log g
    n = 100_000
    for si, (snr, expected) in enumerate(((-6.0, 0.8226), (12.0, 0.1420))):
        sigma = snr_to_sigma(snr)
        floors = np.array([mmse_bound(sigma / np.sqrt(gk), qam64) for gk in g])
        floor = np.trapezoid(floors * density, u)
        assert floor == pytest.approx(expected, abs=5e-5), snr
        rng = stream_rng(17, si)
        z0 = qam64.points[rng.integers(0, 64, size=n)]
        sigma_i = sigma / np.abs(complex_noise(rng, n))
        z_tilde = z0 + sigma_i * complex_noise(rng, n)
        w = _axis_weights(z_tilde.view(np.float64), np.repeat(sigma_i, 2), levels)
        err = np.abs((levels @ w).view(np.complex128) - z0) ** 2
        assert abs(np.mean(err) - floor) <= 4.0 * np.std(err) / np.sqrt(n), (
            f"{snr:+.0f} dB: Monte Carlo {np.mean(err):.4f} vs floor {floor:.4f}")


def test_criterion_7_bpsk_ser_anchor():
    scheme = build_bpsk()
    rng = stream_rng(7, 0)
    n = 1_000_000
    idx = rng.integers(0, 2, size=n)
    z0 = scheme.points[idx]
    z_tilde = awgn_transmit(z0, snr_to_sigma(0.0), rng)
    got = ser(idx, demodulate_hard(z_tilde, scheme))
    q_sqrt2 = 0.07864960352514251  # Gaussian tail Q(sqrt(2))
    ok = abs(got - q_sqrt2) / q_sqrt2 <= 0.05
    report(7, ok, f"hard-decision SER at 0 dB: {got:.5f} vs Q(sqrt 2) = {q_sqrt2:.5f}")


def test_criterion_8_determinism(tmp_path):
    cfg = ExperimentConfig(order=16, n_steps=32, n_symbols=64, trials=4,
                           snr_grid=(-12.0, 0.0),
                           modes=("raw", "mmse", "oracle_pc"), master_seed=5)
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    write_sweep_csv(run_sweep(cfg), str(p1))
    write_sweep_csv(run_sweep(cfg), str(p2))
    sweep_ok = p1.read_bytes() == p2.read_bytes()

    s1, s2 = tmp_path / "sc1.csv", tmp_path / "sc2.csv"
    emit_scatter(cfg, 16, str(s1))
    emit_scatter(cfg, 16, str(s2))
    scatter_ok = s1.read_bytes() == s2.read_bytes()

    # per-trial RNG streams make results independent of execution order
    scheme = cfg.scheme()
    per_trial = []
    for order_ in (list(range(4)), list(reversed(range(4)))):
        values = {}
        for trial in order_:
            rng = stream_rng(cfg.master_seed, 0, trial, 0)
            idx = rng.integers(0, scheme.order, size=cfg.n_symbols)
            z0 = scheme.points[idx]
            values[trial] = mse(awgn_transmit(z0, 1.0, rng), z0)
        per_trial.append(values)
    order_ok = per_trial[0] == per_trial[1]

    report(8, sweep_ok and scatter_ok and order_ok,
           f"sweep byte-identical: {sweep_ok}, scatter byte-identical: {scatter_ok}, "
           f"trial-order independence: {order_ok}")
