"""Command-line surface tying the simulation pieces together.

Subcommands emit CSV data; plotting is left to external tools. Exit codes:
0 on success, 2 for configuration errors and for file-system errors (a
missing file, a directory given as a file), 3 for numerical divergence.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import codec, score_model, sweep as sweep_mod
from .channel import awgn_transmit, snr_to_sigma, stream_rng
from .constellation import modulate
from .errors import ConfigError, DivergenceError
from .metrics import mse
from .oracle import mixture_score, oracle_score_fn
from .sampler import pc_sample
from .sweep import write_csv


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed")
    parser.add_argument("--config", default=None, help="key=value config file")


def _experiment_config(args) -> sweep_mod.ExperimentConfig:
    mapping = {}
    if args.config:
        mapping.update(sweep_mod.parse_config_file(args.config))
    for key in ("order", "trials", "n_symbols"):
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = value
    if args.seed is not None:
        mapping["master_seed"] = args.seed
    if getattr(args, "checkpoint", None):
        mapping["checkpoint"] = args.checkpoint
    if getattr(args, "modes", None):
        mapping["modes"] = args.modes
    return sweep_mod.ExperimentConfig.from_mapping(mapping)


def _score_fn_for(args, config):
    if getattr(args, "checkpoint", None):
        model = score_model.load_model(args.checkpoint)
        return score_model.model_score_fn(model)
    return oracle_score_fn(config.scheme())


def cmd_constellation(args) -> int:
    config = _experiment_config(args)
    scheme = config.scheme()
    rows = (
        (m, p.real, p.imag, bits)
        for m, (p, bits) in enumerate(zip(scheme.points, scheme.bit_map))
    )
    write_csv(args.out, "index,re,im,bits", rows)
    print(f"wrote {config.order}-point constellation to {args.out}")
    return 0


def cmd_schedule(args) -> int:
    config = _experiment_config(args)
    sched = config.schedule()
    write_csv(args.out, "step,sigma", enumerate(sched.sigmas, start=1))
    print(f"wrote {sched.n_steps}-level schedule to {args.out}")
    return 0


def cmd_train_score(args) -> int:
    config = _experiment_config(args)
    dsm = score_model.DsmConfig(
        schedule=config.schedule(),
        hidden=tuple(int(h) for h in args.hidden.split(",")),
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        steps=args.steps,
        seed=config.master_seed,
    )
    model, trace = score_model.train_score(config.scheme(), dsm)
    score_model.save_model(args.out, model)
    if args.trace:
        write_csv(args.trace, "step,loss", enumerate(trace))
    rel = score_model.relative_score_error(score_model.model_score_fn(model), config.scheme())
    print(f"trained {args.steps} steps; final loss {trace[-1]:.4g}; "
          f"relative score error {rel:.4f}; checkpoint {args.out}")
    return 0


def cmd_eval(args) -> int:
    config = _experiment_config(args)
    model = score_model.load_model(args.checkpoint)
    rel = score_model.relative_score_error(
        score_model.model_score_fn(model), config.scheme()
    )
    print(f"relative score error vs exact mixture score: {rel:.4f}")
    return 0


def cmd_denoise(args) -> int:
    config = _experiment_config(args)
    scheme = config.scheme()
    score_fn = _score_fn_for(args, config)
    sampler_cfg = config.sampler_config()
    sigma_ch = snr_to_sigma(args.snr_db)
    rng = stream_rng(config.master_seed, 100)
    idx = rng.integers(0, scheme.order, size=config.n_symbols)
    z0 = modulate(idx, scheme)
    z_tilde = awgn_transmit(z0, sigma_ch, rng)

    rows = []
    observer = None
    if args.trace:
        observer = lambda level, sigma, z: rows.append((level, sigma, mse(z, z0)))
    z_hat = pc_sample(z_tilde, args.snr_db, score_fn, sampler_cfg, rng, observer=observer)
    if args.trace:
        write_csv(args.trace, "step,sigma,mse_vs_z0", rows)
    print(f"snr {args.snr_db} dB: raw mse {mse(z_tilde, z0):.6g}, "
          f"denoised mse {mse(z_hat, z0):.6g}")
    return 0


def cmd_sweep(args) -> int:
    config = _experiment_config(args)
    records = sweep_mod.run_sweep(config)
    sweep_mod.write_sweep_csv(records, args.out)
    print(f"wrote {len(records)} sweep rows to {args.out}")
    return 0


def cmd_scatter(args) -> int:
    config = _experiment_config(args)
    sweep_mod.emit_scatter(config, args.step, args.out)
    print(f"wrote forward-scatter data for step {args.step} to {args.out}")
    return 0


def cmd_score_field(args) -> int:
    config = _experiment_config(args)
    scheme = config.scheme()
    axis = np.linspace(-2.0, 2.0, 41)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    z = (re + 1j * im).ravel()
    rows = (
        (zk.real, zk.imag, sigma, sk.real, sk.imag)
        for sigma in score_model.EVAL_SIGMAS
        for zk, sk in zip(z, mixture_score(z, sigma, scheme))
    )
    write_csv(args.out, "re,im,sigma,score_re,score_im", rows)
    print(f"wrote score field to {args.out}")
    return 0


def cmd_joint_train(args) -> int:
    config = _experiment_config(args)
    scheme = config.scheme()
    if args.source_dim % 2 != 0:
        raise ConfigError("source dimension must be even")
    enc = codec.QuantizingEncoder(scheme)
    rng = stream_rng(config.master_seed, 200)
    dec = codec.DecoderModel.build(args.source_dim // 2, args.source_dim, rng=rng)
    train_cfg = codec.JointTrainConfig(
        steps=args.steps,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
    )
    # the raw baseline denoises nothing, so it builds no score function
    score_fn = None if args.raw_baseline else _score_fn_for(args, config)
    dec, trace = codec.joint_train(
        enc, dec, score_fn, config.sampler_config(), config.schedule(), train_cfg, rng
    )
    codec.save_decoder(args.out, dec)
    if args.trace:
        # levels are whole floats, which %.12g writes without a fraction
        write_csv(args.trace, "step,loss,snr_step", ((i, *row) for i, row in enumerate(trace)))
    print(f"trained decoder for {args.steps} steps; final loss {trace[-1, 0]:.4g}; "
          f"checkpoint {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scdenoise",
        description="Score-based denoising of constellation symbols over AWGN channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constellation", help="dump the constellation as CSV")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_constellation)

    p = sub.add_parser("schedule", help="dump the sigma schedule as CSV")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("train-score", help="train the score network (DSM)")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--steps", type=int, default=20000)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--learning-rate", type=float, default=5e-3)
    p.add_argument("--hidden", default="64,64")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None, help="loss trace CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_train_score)

    p = sub.add_parser("eval", help="compare a checkpoint against the exact score")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--checkpoint", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("denoise", help="denoise one simulated transmission")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--n-symbols", dest="n_symbols", type=int, default=None)
    p.add_argument("--checkpoint", default=None, help="score checkpoint (default: oracle)")
    p.add_argument("--trace", default=None, help="per-level mse trace CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("sweep", help="run the SNR sweep and write CSV")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--modes", default=None, help="comma-separated sweep modes")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("scatter", help="forward-scatter data at one diffusion step")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--step", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("score-field", help="dump the exact score vector field")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_score_field)

    p = sub.add_parser("joint-train", help="stage-2 decoder training")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--source-dim", type=int, default=16)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    score = p.add_mutually_exclusive_group()
    score.add_argument("--checkpoint", default=None, help="score checkpoint (default: oracle)")
    score.add_argument("--raw-baseline", action="store_true",
                       help="train on raw noisy symbols instead of denoised ones")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None, help="training trace CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_joint_train)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
