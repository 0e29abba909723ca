"""Tests for metrics, the sweep runner, config parsing, and the CLI."""

import argparse
import dataclasses
import re
import warnings

import numpy as np
import pytest

from scdenoise.channel import awgn_transmit, complex_noise, snr_to_sigma, snr_to_step, stream_rng
from scdenoise import sweep
from scdenoise.cli import build_parser, main
from scdenoise.codec import (
    DecoderModel,
    JointTrainConfig,
    QuantizingEncoder,
    joint_train,
    load_decoder,
)
from scdenoise.constellation import demodulate_hard, modulate
from scdenoise.metrics import mse, ser
from scdenoise.mlp import Mlp
from scdenoise.oracle import mmse_bound, oracle_score_fn, posterior_mean
from scdenoise.sampler import pc_sample
from scdenoise.score_model import DsmConfig, MlpScoreModel, load_model, save_model, train_score
from scdenoise.sweep import (
    ExperimentConfig,
    emit_scatter,
    parse_config_file,
    run_sweep,
    write_csv,
)


def tiny_config(**kw):
    base = dict(order=4, n_steps=16, n_symbols=32, trials=4,
                snr_grid=(-12.0, 0.0),
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
    with pytest.raises(ValueError, match="unknown config key 'no_such_key'"):
        ExperimentConfig.from_mapping({"no_such_key": "1"})
    with pytest.raises(ValueError, match="bad value for 'trials': 'many'"):
        ExperimentConfig.from_mapping({"trials": "many"})
    with pytest.raises(ValueError, match="unknown sweep mode 'telepathy'"):
        ExperimentConfig.from_mapping({"modes": "raw,telepathy"})
    for empty, message in (({"trials": "0"}, "trials must be at least 1, got 0"),
                           ({"n_symbols": "0"}, "n_symbols must be at least 1, got 0"),
                           ({"scatter_trials": "0"}, "scatter_trials must be at least 1, got 0"),
                           ({"modes": "raw,mmse,raw"}, "repeated sweep mode 'raw'"),
                           ({"snr_grid": ""}, "snr_grid and modes must each name at least one"),
                           ({"modes": ""}, "snr_grid and modes must each name at least one"),
                           # refused when the config is built, not by the
                           # commands that use the scheme or the schedule
                           ({"order": "3"}, "unsupported QAM order 3"),
                           ({"n_steps": "1"}, "need at least 2 schedule steps"),
                           ({"sigma_min": "20"}, "need 0 < sigma_min < sigma_max")):
        with pytest.raises(ValueError, match=message):
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
    with pytest.raises(ValueError, match=re.escape(f"{bad}:1: expected key=value")):
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


def test_run_sweep_observer():
    # the observer sees each sampler mode's whole batch at levels k .. 0 and
    # changes no record; raw and mmse are not traced
    cfg = tiny_config(order=16, trials=3, n_symbols=24, snr_grid=(-6.0, 0.0, 9.0),
                      modes=("raw", "oracle_pc", "mmse"))
    rows = []
    records = run_sweep(cfg, lambda *row: rows.append(row))
    assert records == run_sweep(cfg)
    by_key = {(r.snr_db, r.mode): r for r in records}
    groups = {}
    for snr_db, mode, level, sigma, err in rows:
        groups.setdefault((snr_db, mode), []).append((level, sigma, err))
    assert list(groups) == [(snr, "oracle_pc") for snr in cfg.snr_grid]
    for (snr_db, mode), trace in groups.items():
        k = snr_to_step(snr_db, cfg.schedule())
        assert [level for level, _, _ in trace] == list(range(k, -1, -1))
        assert trace[0][1] == snr_to_sigma(snr_db) and trace[-1][1] == 0.0
        # the chain starts at the received symbols and ends at the estimate
        assert trace[0][2] == pytest.approx(by_key[(snr_db, "raw")].mse, rel=1e-12)
        assert trace[-1][2] == pytest.approx(by_key[(snr_db, mode)].mse, rel=1e-12)


def test_run_sweep_learned_requires_checkpoint():
    cfg = tiny_config(modes=("learned_pc",))
    with pytest.raises(ValueError, match="learned_pc mode requires a checkpoint"):
        run_sweep(cfg)


def test_write_csv_formats_cells(tmp_path):
    # floats, Python or numpy, to 12 significant digits; everything else by str()
    path = tmp_path / "cells.csv"
    rows = [(0.1, np.float64(1.0) / 3, 7, np.int64(-4), "raw"),
            (2.0, np.float64(1e-20), 0, np.int64(0), "")]
    write_csv(str(path), "a,b,c,d,e", rows)
    assert path.read_text() == "a,b,c,d,e\n0.1,0.333333333333,7,-4,raw\n2,1e-20,0,0,\n"


def test_emit_scatter(tmp_path):
    cfg = tiny_config(scatter_trials=200)
    path = tmp_path / "scatter.csv"
    emit_scatter(cfg, 16, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "step,mode,trial,re,im"
    assert len(lines) == 1 + 2 * 200
    modes = {line.split(",")[1] for line in lines[1:]}
    assert modes == {"scdm", "vp"}
    with pytest.raises(ValueError, match=re.escape("scatter step 0 outside [1, 16]")):
        emit_scatter(cfg, 0, str(path))
    with pytest.raises(ValueError, match=re.escape("scatter step 17 outside [1, 16]")):
        emit_scatter(cfg, 17, str(path))


def test_emit_scatter_drift_contrast(tmp_path):
    # at the last step the drift-free cloud keeps per-symbol means at the
    # constellation (zero overall mean, full power retained in the means is
    # not observable from the pooled cloud, so check the vp shrink instead)
    cfg = ExperimentConfig(order=4, n_steps=16, scatter_trials=4000, master_seed=3)
    path = tmp_path / "sc.csv"
    emit_scatter(cfg, 1, str(path))
    rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
    scdm = np.array([complex(float(r[3]), float(r[4])) for r in rows if r[1] == "scdm"])
    # step 1, sigma tiny: every sample sits essentially on a constellation point
    from scdenoise.constellation import build_square_qam

    scheme = build_square_qam(4)
    idx = demodulate_hard(scdm, scheme)
    assert np.max(np.abs(scdm - scheme.points[idx])) < 0.05


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_cli_sweep_trace(tmp_path, capsys):
    # --trace writes the observer's rows and changes no byte of the data CSV
    # or of stdout
    cfg = write_cfg(tmp_path, "order=4\nn_steps=16\ntrials=2\nn_symbols=32\n"
                              "snr_grid=-6,0\nmodes=raw,mmse,oracle_pc\n")
    out, trace = tmp_path / "sweep.csv", tmp_path / "trace.csv"
    runs = []
    for extra in ([], ["--trace", str(trace)]):
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg), "--out", str(out), *extra]) == 0
        runs.append((capsys.readouterr().out, out.read_bytes()))
    assert runs[0] == runs[1]
    assert len(runs[0][1].decode().strip().split("\n")) == 1 + 2 * 3
    rows = []
    run_sweep(ExperimentConfig.from_mapping(parse_config_file(str(cfg))),
              lambda *row: rows.append(row))
    ref = tmp_path / "ref.csv"
    write_csv(str(ref), "snr_db,mode,step,sigma,mse_vs_z0", rows)
    assert trace.read_bytes() == ref.read_bytes()
    # the one-SNR denoise command is gone: a sweep with --trace replaces it
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--snr-db", "0", "--trace", str(tmp_path / "d.csv")])
    assert exc.value.code == 2


def test_cli_train_score_matches_library(tmp_path):
    # a trainer flag left out keeps DsmConfig's default (here the batch size
    # and learning rate)
    ckpt, trace_path = tmp_path / "score.npz", tmp_path / "loss.csv"
    assert main(["train-score", "--order", "4", "--steps", "30", "--hidden", "8",
                 "--seed", "3", "--out", str(ckpt), "--trace", str(trace_path)]) == 0
    config = ExperimentConfig(order=4)
    model, trace = train_score(config.scheme(), DsmConfig(schedule=config.schedule(),
                                                          hidden=(8,), steps=30, seed=3))
    np.testing.assert_array_equal(load_model(str(ckpt)).net.theta, model.net.theta)
    ref_path = tmp_path / "ref.csv"
    write_csv(str(ref_path), "step,loss", enumerate(trace))
    assert trace_path.read_bytes() == ref_path.read_bytes()


def test_cli_hidden_widths_parse_as_a_config_list(tmp_path, capsys):
    # --hidden is parsed as ExperimentConfig's tuple fields are: a trailing
    # comma is dropped, an empty value keeps DsmConfig's default, and a bad
    # width is refused by the flag's name
    ckpt = tmp_path / "score.npz"
    for hidden, sizes in (("8,", [3, 8, 2]), ("", [3, 64, 64, 2])):
        assert main(["train-score", "--order", "4", "--steps", "1", "--hidden", hidden,
                     "--out", str(ckpt)]) == 0
        assert load_model(str(ckpt)).net.layer_sizes == sizes
    capsys.readouterr()
    assert main(["train-score", "--order", "4", "--steps", "1", "--hidden", "x",
                 "--out", str(tmp_path / "bad.npz")]) == 2
    assert "bad value for 'hidden'" in capsys.readouterr().err
    assert not (tmp_path / "bad.npz").exists()


def test_cli_raw_baseline_matches_library(tmp_path):
    # --raw-baseline is joint_train with no score function: the decoder
    # trains on the noisy symbols, and no score model is built or loaded
    dec_path, trace_path = tmp_path / "raw.npz", tmp_path / "raw.csv"
    assert main(["joint-train", "--order", "4", "--source-dim", "4", "--steps", "20",
                 "--batch-size", "8", "--seed", "5", "--raw-baseline",
                 "--out", str(dec_path), "--trace", str(trace_path)]) == 0
    config = ExperimentConfig(order=4, master_seed=5)
    rng = stream_rng(5, 200)
    dec, trace = joint_train(QuantizingEncoder(config.scheme()),
                             DecoderModel.build(2, 4, rng=rng), None,
                             config.sampler_config(), config.schedule(),
                             JointTrainConfig(steps=20, batch_size=8), rng)
    np.testing.assert_array_equal(load_decoder(str(dec_path)).net.theta, dec.net.theta)
    ref_path = tmp_path / "ref.csv"
    write_csv(str(ref_path), "step,loss,snr_step", ((i, *row) for i, row in enumerate(trace)))
    assert trace_path.read_bytes() == ref_path.read_bytes()
    # the raw baseline takes no score checkpoint
    assert main(["joint-train", "--raw-baseline", "--checkpoint", str(dec_path),
                 "--out", str(tmp_path / "both.npz")]) == 2
    assert not (tmp_path / "both.npz").exists()


def test_cli_config_file_checkpoint(tmp_path, capsys):
    # a config file's checkpoint key reaches sweep and joint-train as the
    # --checkpoint flag does: joint-train does not fall back to the oracle,
    # and a learned_pc sweep does not refuse to run
    ckpt = tmp_path / "score.npz"
    assert main(["train-score", "--order", "4", "--steps", "20", "--hidden", "8",
                 "--out", str(ckpt)]) == 0
    base = "order=4\ntrials=2\nn_symbols=16\nsnr_grid=-3,6\n"
    base_cfg, ckpt_cfg = tmp_path / "base.cfg", tmp_path / "ckpt.cfg"
    base_cfg.write_text(base)
    ckpt_cfg.write_text(base + f"checkpoint={ckpt}\n")
    # eval scores the trained checkpoint against the exact score
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--config", str(base_cfg)]) == 0
    assert capsys.readouterr().out.startswith("relative score error vs exact mixture score: ")
    runs = {
        "joint-train": ["joint-train", "--source-dim", "4", "--steps", "10", "--batch-size", "8",
                        "--out", "{}.npz", "--trace", "{}.csv"],
        "sweep": ["sweep", "--modes", "raw,learned_pc", "--out", "{}.csv",
                  "--trace", "{}.trace.csv"],
    }
    sources = {"flag": ["--config", str(base_cfg), "--checkpoint", str(ckpt)],
               "config": ["--config", str(ckpt_cfg)],
               "oracle": ["--config", str(base_cfg)]}
    for command, argv in runs.items():
        outputs = {}
        for source, extra in sources.items():
            stem = tmp_path / f"{command}_{source}"
            capsys.readouterr()
            code = main([a.format(stem) for a in argv] + extra)
            files = sorted(tmp_path.glob(f"{command}_{source}.*"))
            outputs[source] = (code, capsys.readouterr().out.replace(str(stem), "STEM"),
                               [f.read_bytes() for f in files])
        assert outputs["config"] == outputs["flag"], command
        assert outputs["config"][0] == 0 and len(outputs["config"][2]) == 2, command
        assert outputs["config"] != outputs["oracle"], command
    # with no checkpoint anywhere, a learned_pc sweep is refused and writes nothing
    assert outputs["oracle"] == (2, "", [])
    # a diverged checkpoint named in the config file exits 3, as the flag does
    net = Mlp([3, 8, 2])
    net.layers[-1][-1] = np.nan
    nan_ckpt = tmp_path / "nan.npz"
    save_model(str(nan_ckpt), MlpScoreModel(net=net))
    nan_cfg = write_cfg(tmp_path, f"checkpoint={nan_ckpt}\n")
    for extra in (["--checkpoint", str(nan_ckpt)], ["--config", str(nan_cfg)]):
        assert main(["sweep", "--order", "4", "--trials", "1", "--modes", "raw,learned_pc",
                     "--out", str(tmp_path / "nan.csv"), *extra]) == 3
        assert not (tmp_path / "nan.csv").exists()
    # the raw baseline refuses a config file's checkpoint as it refuses the flag
    out = tmp_path / "raw.npz"
    capsys.readouterr()
    assert main(["joint-train", "--order", "4", "--steps", "1", "--raw-baseline",
                 "--config", str(nan_cfg), "--out", str(out)]) == 2
    assert "--raw-baseline takes no score checkpoint" in capsys.readouterr().err
    assert not out.exists()


def test_cli_error_exit_codes(tmp_path, capsys):
    bad = write_cfg(tmp_path, "order=banana\n")
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "x.csv")]) == 2
    # an odd source dimension leaves one value without a symbol
    capsys.readouterr()
    assert main(["joint-train", "--order", "4", "--source-dim", "3",
                 "--out", str(tmp_path / "d.npz")]) == 2
    assert ("source dimension 3 must be two per symbol of the decoder's 1-symbol input"
            in capsys.readouterr().err)
    # the quantizing encoder has no per-axis levels for BPSK
    assert main(["joint-train", "--order", "2", "--steps", "1",
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
                  w0=net.layers[0][:-1], w1=net.layers[1][:-1], b0=net.layers[0][-1])
    np.savez(tmp_path / "noise.npz", head="noise", b1=net.layers[1][-1], **arrays)
    np.savez(tmp_path / "bad_shape.npz", head="mean", b1=np.zeros(1), **arrays)
    # a 0-d layer_sizes, and a file that starts like a zip archive but is none
    np.savez(tmp_path / "sizes_0d.npz", head="mean", b1=net.layers[1][-1],
             **{**arrays, "layer_sizes": np.array(3)})
    (tmp_path / "not_zip.npz").write_bytes(b"PK\x03\x04 not a zip archive")
    for name in ("noise.npz", "bad_shape.npz", "sizes_0d.npz", "not_zip.npz"):
        assert main(["eval", "--checkpoint", str(tmp_path / name)]) == 2
    # train-score has no --head flag
    with pytest.raises(SystemExit) as exc:
        main(["train-score", "--head", "mean", "--out", str(tmp_path / "s.npz")])
    assert exc.value.code == 2
    # empty work, refused before any checkpoint is written
    assert main(["sweep", "--trials", "0", "--out", str(tmp_path / "x.csv")]) == 2
    for cmd in (["train-score", "--steps", "0"], ["joint-train", "--steps", "0"],
                ["joint-train", "--order", "4", "--batch-size", "0"],
                # a non-positive, NaN or infinite learning rate, and a layer of width 0
                ["joint-train", "--order", "4", "--steps", "1", "--learning-rate", "0"],
                ["joint-train", "--order", "4", "--steps", "1", "--learning-rate=-1e-3"],
                ["joint-train", "--order", "4", "--steps", "1", "--learning-rate", "nan"],
                ["train-score", "--steps", "1", "--learning-rate", "nan"],
                ["joint-train", "--order", "4", "--steps", "1", "--learning-rate", "inf"],
                ["train-score", "--steps", "1", "--learning-rate", "inf"],
                ["train-score", "--steps", "1", "--hidden", "8,0"],
                ["joint-train", "--order", "4", "--steps", "1", "--source-dim", "0"]):
        assert main([*cmd, "--out", str(tmp_path / "zero.npz")]) == 2
        assert not (tmp_path / "zero.npz").exists()
    # a non-finite SNR is refused by name, not mapped to a level or a sigma;
    # so is an SNR so high that its noise std underflows to 0, and one so low
    # that its noise variance overflows a float
    out = tmp_path / "bad_snr.csv"
    for snr, message in (("nan", "SNR must be finite, got nan dB"),
                         ("inf", "SNR must be finite, got inf dB"),
                         ("-inf", "SNR must be finite, got -inf dB"),
                         ("7000", "SNR 7000.0 dB is too high"),
                         ("-7000", "SNR -7000.0 dB is too low")):
        cfg = write_cfg(tmp_path, f"snr_grid={snr}\n")
        capsys.readouterr()
        assert main(["sweep", "--order", "4", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    # a repeated sweep mode would give two rows under one (SNR, mode) key
    assert main(["sweep", "--modes", "raw,raw", "--out", str(out)]) == 2
    assert "repeated sweep mode 'raw'" in capsys.readouterr().err
    assert not out.exists()
    # a scatter of no trials
    cfg = write_cfg(tmp_path, "scatter_trials=0\n")
    assert main(["scatter", "--step", "8", "--config", str(cfg), "--out", str(out)]) == 2
    assert "scatter_trials must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()
    # an unsupported order, refused by a command that builds no scheme
    cfg = write_cfg(tmp_path, "order=3\n")
    sched_out = tmp_path / "schedule.csv"
    capsys.readouterr()
    assert main(["schedule", "--config", str(cfg), "--out", str(sched_out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: unsupported QAM order 3; expected one of (4, 16, 64)"]
    assert not sched_out.exists()
    # a directory where a file is expected
    assert main(["constellation", "--out", str(tmp_path)]) == 2
    assert main(["eval", "--checkpoint", str(tmp_path)]) == 2
    assert main(["sweep", "--config", str(tmp_path), "--out", str(tmp_path / "x.csv")]) == 2
    # scatter_beta is a constant, not a config key
    for empty in ("n_symbols=0\n", "snr_grid=\n", "modes=\n", "scatter_beta=0.1\n"):
        cfg = write_cfg(tmp_path, empty)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    # a score model whose output is NaN: the sampler's output never reaches
    # the CSV, and eval prints no score error
    net = Mlp([3, 8, 2])
    net.layers[-1][-1] = np.nan
    nan_ckpt = tmp_path / "nan.npz"
    save_model(str(nan_ckpt), MlpScoreModel(net=net))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(nan_ckpt)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite relative score error nan" in captured.err
    cfg = write_cfg(tmp_path, "snr_grid=0\n")
    out = tmp_path / "nan.csv"
    assert main(["sweep", "--config", str(cfg), "--modes", "raw,learned_pc",
                 "--checkpoint", str(nan_ckpt), "--trials", "1", "--out", str(out)]) == 3
    assert not out.exists()


def test_cli_refuses_checkpoint_beyond_float32(tmp_path, capsys):
    # learned inference runs on a float32 copy of the net; a finite parameter
    # that float32 cannot hold is a config error (exit 2, one stderr line, no
    # numpy warning, no CSV), not an inf that the sampler runs on
    net = Mlp([3, 8, 2], rng=stream_rng(2, 0))
    net.layers[1][0, 0] = 1e39
    ckpt = tmp_path / "huge.npz"
    save_model(str(ckpt), MlpScoreModel(net=net))
    out = tmp_path / "huge.csv"
    message = "config error: score model has a finite parameter beyond float32's range"
    runs = (["sweep", "--order", "4", "--trials", "1", "--modes", "raw,learned_pc",
             "--checkpoint", str(ckpt), "--out", str(out)],
            ["eval", "--checkpoint", str(ckpt)],
            ["joint-train", "--order", "4", "--steps", "1", "--checkpoint", str(ckpt),
             "--out", str(out)])
    for argv in runs:
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv[0]
        assert captured.err.startswith(message), argv[0]
        assert not out.exists(), argv[0]


@pytest.mark.parametrize("command", [["train-score"], ["joint-train"]])
def test_cli_training_divergence(tmp_path, capsys, command):
    # a learning rate that overflows the parameters on the first Adam step:
    # the next loss is not finite, so the command exits 3 with one line on
    # stderr, no numpy warning, no checkpoint and no trace
    out, trace = tmp_path / "model.npz", tmp_path / "trace.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*command, "--order", "4", "--steps", "20", "--learning-rate", "1e300",
                     "--out", str(out), "--trace", str(trace)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical divergence: non-finite loss at step 1\n"
    assert not out.exists() and not trace.exists()


@pytest.mark.parametrize("steps,rate,code,message", [
    ("5", "3e38", 3, "numerical divergence: non-finite loss at step 1"),
    ("5", "1e38", 3, "numerical divergence: non-finite loss at step 1"),
    ("1", "1e39", 3, "numerical divergence: non-finite parameters after training"),
    ("1", "3e38", 3, "numerical divergence: non-finite relative score error inf"),
], ids=["beyond-float32", "overflow", "last-step-beyond-float32", "last-step-overflow"])
def test_cli_train_score_writes_nothing_on_failure(tmp_path, capsys, steps, rate, code,
                                                   message):
    # training keeps its parameters in float32, so a first Adam step that
    # moves them by about 3e38 or 1e38 makes the next loss non-finite. When
    # that step is the last one, a rate beyond float32's range (1e39) leaves
    # non-finite parameters, and a rate of 3e38 leaves finite ones whose
    # float32 score overflows in the error that train-score prints. Either
    # way the command fails before it writes a file
    out, trace = tmp_path / "model.npz", tmp_path / "trace.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["train-score", "--order", "4", "--steps", steps, "--hidden", "8",
                     "--learning-rate", rate, "--out", str(out), "--trace", str(trace)]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(message)
    assert not out.exists() and not trace.exists()


def test_cli_float32_overflow_raises_no_warning(tmp_path, capsys):
    # every parameter fits in float32 (the largest is 2e38), but the float32
    # activations overflow: each hidden unit reads tanh(1) and each output
    # sums eight of them at weight 2e38. eval and a learned sweep exit 3 with
    # their one line, no numpy warning and no CSV
    net = Mlp([3, 8, 2])
    net.layers[0][-1] = 1.0
    net.layers[1][:-1] = 2e38
    assert np.abs(net.theta).max() < np.finfo(np.float32).max
    assert np.all(np.isfinite(net(np.zeros((1, 3)))))  # finite in float64
    ckpt, out = tmp_path / "overflow.npz", tmp_path / "overflow.csv"
    save_model(str(ckpt), MlpScoreModel(net=net))
    runs = {"eval": ["eval", "--order", "4", "--checkpoint", str(ckpt)],
            "sweep": ["sweep", "--order", "4", "--trials", "1", "--modes", "raw,learned_pc",
                      "--checkpoint", str(ckpt), "--out", str(out)]}
    for name, argv in runs.items():
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 3, name
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, name
        assert captured.err.startswith("numerical divergence: non-finite"), name
        assert not out.exists(), name


def test_cli_joint_train_takes_the_sweep_score(tmp_path, monkeypatch):
    # joint-train with no checkpoint denoises with the score that
    # sweep.score_fn picks, the oracle that sweep.oracle_score_fn builds: a
    # NaN score in its place makes the command exit 3 and write nothing
    monkeypatch.setattr(sweep, "oracle_score_fn",
                        lambda scheme: lambda z, sigma: np.full(np.shape(z), np.nan + 0j))
    out = tmp_path / "dec.npz"
    assert main(["joint-train", "--order", "4", "--source-dim", "4", "--steps", "2",
                 "--batch-size", "8", "--out", str(out)]) == 3
    assert not out.exists()


# Every CSV a subcommand writes: (arguments, the flag naming the CSV, header,
# data rows, cells of the first data row). Each runs with CLI_CSV_CONFIG, whose
# order every --order flag overrides, but the -default cases, which run with no
# config file at every default size.
CLI_CSV_CONFIG = ("order=2\nn_steps=16\nscatter_trials=50\ntrials=2\nn_symbols=32\n"
                  "snr_grid=-6,0\nmodes=raw,mmse\n")
CLI_CSV_CASES = {
    "constellation": (["constellation", "--order", "16"], "--out", "index,re,im,bits", 16,
                      {"index": "0", "re": "-0.948683298051", "bits": "0000"}),
    "schedule": (["schedule"], "--out", "step,sigma", 16, {"step": "1", "sigma": "0.01"}),
    "score-field": (["score-field", "--order", "2"], "--out", "re,im,sigma,score_re,score_im",
                    5 * 41 * 41, {"re": "-2", "im": "-2", "sigma": "0.05"}),
    "scatter": (["scatter", "--order", "4", "--step", "8"], "--out", "step,mode,trial,re,im",
                2 * 50, {"step": "8", "mode": "scdm", "trial": "0"}),
    "sweep": (["sweep", "--order", "4"], "--out", "snr_db,mode,mse,ser,mmse_bound,trials,seed",
              2 * 2, {"snr_db": "-6", "mode": "raw", "trials": "2", "seed": "0"}),
    # levels 13 (sigma_13 is the first above the -6 dB channel noise) down to
    # 0, then 12 .. 0 at 0 dB (sigma_11 rounds to just below 1)
    "sweep-trace": (["sweep", "--order", "4", "--modes", "raw,oracle_pc", "--out", "data.csv"],
                    "--trace", "snr_db,mode,step,sigma,mse_vs_z0", 14 + 13,
                    {"snr_db": "-6", "mode": "oracle_pc", "step": "13"}),
    "train-score": (["train-score", "--order", "2", "--steps", "30", "--hidden", "8",
                     "--out", "score.npz"], "--trace", "step,loss", 30, {"step": "0"}),
    "joint-train": (["joint-train", "--order", "4", "--source-dim", "4", "--steps", "10",
                     "--batch-size", "8", "--out", "dec.npz"], "--trace",
                    "step,loss,snr_step", 10, {"step": "0"}),
    # 64-QAM: 64 points and 64 levels, 5 sigmas x 41 x 41 grid points, and
    # 2 modes x 2000 scatter trials
    "constellation-default": (["constellation"], "--out", "index,re,im,bits", 64,
                              {"index": "0", "re": "-1.08012344973", "bits": "000000"}),
    "schedule-default": (["schedule"], "--out", "step,sigma", 64, {"step": "1", "sigma": "0.01"}),
    "score-field-default": (["score-field"], "--out", "re,im,sigma,score_re,score_im",
                            5 * 41 * 41, {"re": "-2", "im": "-2", "sigma": "0.05"}),
    "scatter-default": (["scatter", "--step", "32"], "--out", "step,mode,trial,re,im",
                        2 * 2000, {"step": "32", "mode": "scdm", "trial": "0"}),
}


@pytest.mark.parametrize("command", list(CLI_CSV_CASES))
def test_cli_csv_files(tmp_path, monkeypatch, command):
    argv, flag, header, n_rows, first = CLI_CSV_CASES[command]
    monkeypatch.chdir(tmp_path)
    write_cfg(tmp_path, CLI_CSV_CONFIG)
    config = [] if command.endswith("-default") else ["--config", "run.cfg"]
    assert main([*argv, flag, "out.csv", *config]) == 0
    lines = (tmp_path / "out.csv").read_text().split("\n")
    assert lines[0] == header and lines[-1] == ""
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines[1:-1]]
    assert len(rows) == n_rows
    assert {key: rows[0][key] for key in first} == first
    for line, row in zip(lines[1:-1], rows):
        assert line.count(",") == header.count(",")
        for key, cell in row.items():
            # integers are written without a fraction, everything else but
            # the mode and bit labels parses as a float
            if key in ("index", "step", "trial", "trials", "seed", "snr_step"):
                int(cell)
            elif key not in ("mode", "bits"):
                float(cell)


# Every subcommand's flags: option -> (default, type, required).
CLI_FLAGS = {
    "constellation": {"--order": (None, int, False), "--out": (None, None, True),
                      "--seed": (None, int, False), "--config": (None, None, False)},
    "schedule": {"--out": (None, None, True), "--seed": (None, int, False),
                 "--config": (None, None, False)},
    "train-score": {"--order": (None, int, False), "--steps": (None, int, False),
                    "--batch-size": (None, int, False), "--learning-rate": (None, float, False),
                    "--hidden": (None, None, False), "--out": (None, None, True),
                    "--trace": (None, None, False), "--seed": (None, int, False),
                    "--config": (None, None, False)},
    "eval": {"--order": (None, int, False), "--checkpoint": (None, None, True),
             "--seed": (None, int, False), "--config": (None, None, False)},
    "sweep": {"--order": (None, int, False), "--trials": (None, int, False),
              "--modes": (None, None, False), "--checkpoint": (None, None, False),
              "--trace": (None, None, False), "--out": (None, None, True),
              "--seed": (None, int, False),
              "--config": (None, None, False)},
    "scatter": {"--order": (None, int, False), "--step": (None, int, True),
                "--out": (None, None, True), "--seed": (None, int, False),
                "--config": (None, None, False)},
    "score-field": {"--order": (None, int, False), "--out": (None, None, True),
                    "--seed": (None, int, False), "--config": (None, None, False)},
    "joint-train": {"--order": (None, int, False), "--source-dim": (16, int, False),
                    "--steps": (None, int, False), "--batch-size": (None, int, False),
                    "--learning-rate": (None, float, False),
                    "--checkpoint": (None, None, False), "--raw-baseline": (False, None, False),
                    "--out": (None, None, True), "--trace": (None, None, False),
                    "--seed": (None, int, False), "--config": (None, None, False)},
}


def test_cli_flag_inventory(capsys):
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(CLI_FLAGS)
    for name, flags in CLI_FLAGS.items():
        parser = subparsers.choices[name]
        actions = {action.option_strings[0]: action for action in parser._actions
                   if not isinstance(action, argparse._HelpAction)}
        assert set(actions) == set(flags), name
        for flag, (default, type_, required) in flags.items():
            action = actions[flag]
            assert action.option_strings == [flag], (name, flag)
            assert (action.default, action.type, action.required) == (default, type_, required), \
                (name, flag)
        # --seed fills the config's master seed, and --help still names it SEED
        assert actions["--seed"].dest == "master_seed"
        # joint-train refuses --raw-baseline with a checkpoint itself (exit 2)
        assert not parser._mutually_exclusive_groups, name
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert "--seed SEED" in capsys.readouterr().out
