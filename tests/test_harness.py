"""Tests for metrics, the sweep runner, config parsing, and the CLI."""

import dataclasses

import numpy as np
import pytest

from scdenoise.channel import awgn_transmit, complex_noise, snr_to_sigma, stream_rng
from scdenoise.cli import main
from scdenoise.constellation import demodulate_hard, modulate
from scdenoise.errors import ConfigError
from scdenoise.metrics import mse, ser
from scdenoise.mlp import Mlp
from scdenoise.oracle import mmse_bound, oracle_score_fn, posterior_mean
from scdenoise.sampler import pc_sample
from scdenoise.score_model import MlpScoreModel, save_model
from scdenoise.sweep import (
    ExperimentConfig,
    emit_scatter,
    parse_config_file,
    run_sweep,
    write_sweep_csv,
)


def tiny_config(**kw):
    base = dict(order=4, n_steps=16, n_symbols=32, trials=4,
                snr_grid=(-12.0, 0.0), mmse_trials=5000,
                modes=("raw", "mmse"), master_seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_mse_values():
    a = np.array([1 + 1j, -1 - 1j])
    assert mse(a, a) == 0.0
    assert mse(a + (1 + 0j), a) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mse(a, a[:1])


def test_mse_matches_noise_variance():
    rng = stream_rng(0, 0)
    sigma = 0.8
    z = np.zeros(100_000, dtype=complex)
    assert mse(z + sigma * complex_noise(rng, z.shape), z) == pytest.approx(
        sigma**2, rel=0.02
    )


def test_ser_values():
    a = np.array([0, 1, 2, 3])
    assert ser(a, a) == 0.0
    assert ser(a, a + 1) == 1.0
    assert ser(a, np.array([0, 1, 2, 0])) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        ser(a, a[:2])


def test_config_from_mapping_and_validation():
    cfg = ExperimentConfig.from_mapping({"order": "16", "snr_grid": "-6,0,6",
                                         "modes": "raw,mmse", "sigma_min": "0.02"})
    assert cfg.order == 16
    assert cfg.snr_grid == (-6.0, 0.0, 6.0)
    assert cfg.sigma_min == pytest.approx(0.02)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"no_such_key": "1"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"trials": "many"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"modes": "raw,telepathy"})
    for empty in ({"trials": "0"}, {"n_symbols": "0"}, {"snr_grid": ""}, {"modes": ""}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping(empty)
    # every field parses from its default written as a string
    default = ExperimentConfig()
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(default, f.name)
        if isinstance(value, tuple):
            text = ",".join(str(v) for v in value)
        else:
            text = "" if value is None else str(value)
        parsed = getattr(ExperimentConfig.from_mapping({f.name: text}), f.name)
        assert parsed == value and type(parsed) is type(value), f.name


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# comment line\norder = 16\ntrials=3  # inline\n\nsnr_grid = -6,0\n")
    parsed = parse_config_file(str(path))
    assert parsed == {"order": "16", "trials": "3", "snr_grid": "-6,0"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("order 16\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad))


def test_run_sweep_raw_matches_channel_variance():
    cfg = tiny_config(trials=100, n_symbols=256, snr_grid=(-6.0, 0.0, 6.0))
    records = run_sweep(cfg)
    for rec in records:
        assert rec.mse >= 0.0 and 0.0 <= rec.ser <= 1.0
        if rec.mode == "raw":
            assert rec.mse == pytest.approx(snr_to_sigma(rec.snr_db) ** 2, rel=0.02)


def test_run_sweep_mmse_below_raw_and_bound_consistent():
    cfg = tiny_config(trials=30, n_symbols=256)
    records = run_sweep(cfg)
    by_snr = {}
    for rec in records:
        by_snr.setdefault(rec.snr_db, {})[rec.mode] = rec
    for snr, modes in by_snr.items():
        assert modes["mmse"].mse <= modes["raw"].mse
        # the posterior mean's MSE should track the floor closely
        assert modes["mmse"].mse == pytest.approx(modes["mmse"].mmse_bound, rel=0.15)


def test_run_sweep_oracle_pc_mode():
    cfg = tiny_config(order=4, trials=4, n_symbols=64, snr_grid=(-12.0,),
                      modes=("raw", "mmse", "oracle_pc"))
    records = {r.mode: r for r in run_sweep(cfg)}
    assert records["oracle_pc"].mse < records["raw"].mse
    # no estimator beats the MMSE floor (up to the sampling noise of a
    # 256-symbol MSE)
    assert records["oracle_pc"].mse >= 0.9 * records["mmse"].mmse_bound


def test_run_sweep_matches_per_trial_reference():
    # the RNG contract: each trial's channel realization from stream
    # (seed, si, trial, 0) and each sampler mode's noise for the whole
    # (trials, n_symbols) batch from (seed, si, 1 << 21, 1 + mode index); the
    # floor is deterministic; MSE and SER averaged in trial order
    cfg = tiny_config(order=16, trials=3, n_symbols=24, snr_grid=(-6.0, 3.0),
                      modes=("raw", "mmse", "oracle_pc"), master_seed=5)
    scheme = cfg.scheme()
    records = iter(run_sweep(cfg))
    for si, snr_db in enumerate(cfg.snr_grid):
        sigma = snr_to_sigma(snr_db)
        bound = mmse_bound(sigma, scheme)
        sums = {m: [0.0, 0.0] for m in ("raw", "mmse")}
        rows = []
        for trial in range(cfg.trials):
            rng = stream_rng(cfg.master_seed, si, trial, 0)
            idx = rng.integers(0, scheme.order, size=cfg.n_symbols)
            z0 = modulate(idx, scheme)
            z_tilde = awgn_transmit(z0, sigma, rng)
            rows.append((idx, z0, z_tilde))
            for mode, est in (("raw", z_tilde), ("mmse", posterior_mean(z_tilde, sigma, scheme))):
                sums[mode][0] += mse(est, z0)
                sums[mode][1] += ser(idx, demodulate_hard(est, scheme))
        for mode in ("raw", "mmse"):
            rec = next(records)
            assert (rec.snr_db, rec.mode, rec.mmse_bound) == (snr_db, mode, bound)
            assert rec.mse == sums[mode][0] / cfg.trials
            assert rec.ser == sums[mode][1] / cfg.trials
        idx, z0, z_tilde = (np.stack(c) for c in zip(*rows))
        rng_pc = stream_rng(cfg.master_seed, si, 1 << 21, 3)
        est = pc_sample(z_tilde, snr_db, oracle_score_fn(scheme), cfg.sampler_config(), rng_pc)
        mse_sum = ser_sum = 0.0
        for trial in range(cfg.trials):
            mse_sum += mse(est[trial], z0[trial])
            ser_sum += ser(idx[trial], demodulate_hard(est[trial], scheme))
        rec = next(records)
        assert (rec.mode, rec.mmse_bound) == ("oracle_pc", bound)
        assert (rec.mse, rec.ser) == (mse_sum / cfg.trials, ser_sum / cfg.trials)
        # the sampler stream aliases no channel stream
        draw = stream_rng(cfg.master_seed, si, 1 << 21, 3).standard_normal(4)
        others = [stream_rng(cfg.master_seed, si, trial, 0) for trial in range(cfg.trials)]
        for other in others:
            assert not np.array_equal(draw, other.standard_normal(4))


def test_run_sweep_learned_requires_checkpoint():
    cfg = tiny_config(modes=("learned_pc",))
    with pytest.raises(ConfigError):
        run_sweep(cfg)


def test_sweep_csv_deterministic(tmp_path):
    cfg = tiny_config()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(run_sweep(cfg), str(p1))
    write_sweep_csv(run_sweep(cfg), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().split("\n", 1)[0]
    assert header == "snr_db,mode,mse,ser,mmse_bound,trials,seed"


def test_emit_scatter(tmp_path):
    cfg = tiny_config(scatter_trials=200)
    path = tmp_path / "scatter.csv"
    emit_scatter(cfg, 16, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "step,mode,trial,re,im"
    assert len(lines) == 1 + 2 * 200
    modes = {line.split(",")[1] for line in lines[1:]}
    assert modes == {"scdm", "vp"}
    with pytest.raises(ConfigError):
        emit_scatter(cfg, 0, str(path))
    with pytest.raises(ConfigError):
        emit_scatter(cfg, 17, str(path))


def test_emit_scatter_drift_contrast(tmp_path):
    # at the last step the drift-free cloud keeps per-symbol means at the
    # constellation (zero overall mean, full power retained in the means is
    # not observable from the pooled cloud, so check the vp shrink instead)
    cfg = ExperimentConfig(order=4, n_steps=16, scatter_trials=4000,
                           scatter_beta=0.1, master_seed=3)
    path = tmp_path / "sc.csv"
    emit_scatter(cfg, 1, str(path))
    rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
    scdm = np.array([complex(float(r[3]), float(r[4])) for r in rows if r[1] == "scdm"])
    # step 1, sigma tiny: every sample sits essentially on a constellation point
    from scdenoise.constellation import build_square_qam

    scheme = build_square_qam(4)
    idx = demodulate_hard(scdm, scheme)
    assert np.max(np.abs(scdm - scheme.points[idx])) < 0.05


def test_cli_basic_commands(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["constellation", "--order", "16", "--out", str(out)]) == 0
    assert out.exists()
    assert main(["schedule", "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["scatter", "--order", "4", "--step", "8",
                 "--out", str(tmp_path / "sc.csv"), "--seed", "1",
                 "--config", str(write_cfg(tmp_path, "scatter_trials=50\nn_steps=16\n"))]) == 0
    assert main(["score-field", "--order", "2", "--out", str(tmp_path / "f.csv")]) == 0


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_cli_denoise_and_sweep(tmp_path):
    cfg = write_cfg(tmp_path, "order=4\nn_steps=16\ntrials=2\nn_symbols=32\n"
                              "snr_grid=-6,0\nmmse_trials=2000\nmodes=raw,mmse\n")
    trace = tmp_path / "trace.csv"
    assert main(["denoise", "--snr-db", "-6", "--order", "4", "--config", str(cfg),
                 "--trace", str(trace)]) == 0
    assert trace.read_text().startswith("step,sigma,mse_vs_z0")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 1 + 2 * 2


def test_cli_train_eval_joint(tmp_path):
    cfg = write_cfg(tmp_path, "order=2\nn_steps=16\nsigma_min=0.05\nsigma_max=4\n")
    ckpt = tmp_path / "score.npz"
    assert main(["train-score", "--order", "2", "--steps", "300", "--hidden", "16",
                 "--out", str(ckpt), "--config", str(cfg), "--seed", "0",
                 "--trace", str(tmp_path / "loss.csv")]) == 0
    assert ckpt.exists()
    assert main(["eval", "--order", "2", "--checkpoint", str(ckpt),
                 "--config", str(cfg)]) == 0
    dec = tmp_path / "dec.npz"
    assert main(["joint-train", "--order", "4", "--source-dim", "4", "--steps", "30",
                 "--batch-size", "8", "--out", str(dec), "--config", str(cfg),
                 "--trace", str(tmp_path / "jt.csv")]) == 0
    assert dec.exists()


def test_cli_error_exit_codes(tmp_path):
    bad = write_cfg(tmp_path, "order=banana\n")
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["joint-train", "--order", "4", "--source-dim", "3",
                 "--out", str(tmp_path / "d.npz")]) == 2
    assert main(["eval", "--checkpoint", str(tmp_path / "missing.npz")]) == 2
    # a decoder checkpoint handed to a score-model command
    dec = tmp_path / "dec.npz"
    assert main(["joint-train", "--order", "4", "--source-dim", "4", "--steps", "1",
                 "--out", str(dec)]) == 0
    assert main(["eval", "--checkpoint", str(dec)]) == 2
    # a noise-head checkpoint, and one whose b1 does not match its layer sizes
    net = Mlp([3, 8, 2])
    arrays = dict(version=1, layer_sizes=np.array([3, 8, 2]),
                  w0=net.weights[0], w1=net.weights[1], b0=net.biases[0])
    np.savez(tmp_path / "noise.npz", head="noise", b1=net.biases[1], **arrays)
    np.savez(tmp_path / "bad_shape.npz", head="mean", b1=np.zeros(1), **arrays)
    for name in ("noise.npz", "bad_shape.npz"):
        assert main(["eval", "--checkpoint", str(tmp_path / name)]) == 2
    # train-score has no --head flag
    with pytest.raises(SystemExit) as exc:
        main(["train-score", "--head", "mean", "--out", str(tmp_path / "s.npz")])
    assert exc.value.code == 2
    # empty work
    assert main(["sweep", "--trials", "0", "--out", str(tmp_path / "x.csv")]) == 2
    for empty in ("n_symbols=0\n", "snr_grid=\n", "modes=\n"):
        cfg = write_cfg(tmp_path, empty)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    # a score model whose output is NaN: the sampler's output never reaches the CSV
    net = Mlp([3, 8, 2])
    net.biases[-1][:] = np.nan
    nan_ckpt = tmp_path / "nan.npz"
    save_model(str(nan_ckpt), MlpScoreModel(net=net))
    cfg = write_cfg(tmp_path, "snr_grid=0\nmmse_trials=1000\n")
    out = tmp_path / "nan.csv"
    assert main(["sweep", "--config", str(cfg), "--modes", "raw,learned_pc",
                 "--checkpoint", str(nan_ckpt), "--trials", "1", "--out", str(out)]) == 3
    assert not out.exists()


def test_cli_sweep_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, "order=4\nn_steps=16\ntrials=2\nn_symbols=16\n"
                              "snr_grid=0\nmmse_trials=1000\nmodes=raw,mmse,oracle_pc\n")
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(p1), "--seed", "7"]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(p2), "--seed", "7"]) == 0
    assert p1.read_bytes() == p2.read_bytes()
