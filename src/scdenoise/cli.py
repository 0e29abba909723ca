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
from .channel import stream_rng
from .errors import DivergenceError
from .oracle import mixture_score
from .sweep import write_csv


# the ExperimentConfig fields that subcommands also take as flags, each
# stored under its field name (so --seed stores to master_seed)
FLAG_FIELDS = ("order", "trials", "master_seed", "checkpoint", "modes")
# the trainer settings that train-score and joint-train take as flags; a flag
# left out keeps the default of DsmConfig or JointTrainConfig
TRAIN_FLAGS = ("steps", "batch_size", "learning_rate")


def _given(args, keys) -> dict:
    """The flags among `keys` that the command line gave, by field name; an
    empty value counts as not given."""
    return {key: value for key in keys if (value := getattr(args, key, None)) not in (None, "")}


def _experiment_config(args) -> sweep_mod.ExperimentConfig:
    mapping = sweep_mod.parse_config_file(args.config) if args.config else {}
    mapping.update(_given(args, FLAG_FIELDS))  # a flag overrides the config file's value
    return sweep_mod.ExperimentConfig.from_mapping(mapping)


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
    settings = _given(args, TRAIN_FLAGS)
    if args.hidden is not None:
        settings["hidden"] = tuple(int(h) for h in args.hidden.split(","))
    dsm = score_model.DsmConfig(schedule=config.schedule(), seed=config.master_seed, **settings)
    model, trace = score_model.train_score(config.scheme(), dsm)
    # the score error builds the float32 adapter; either refuses a model
    # that the sampler could not use, so nothing is written then
    rel = score_model.relative_score_error(score_model.model_score_fn(model), config.scheme())
    score_model.save_model(args.out, model)
    if args.trace:
        write_csv(args.trace, "step,loss", enumerate(trace))
    print(f"trained {dsm.steps} steps; final loss {trace[-1]:.4g}; "
          f"relative score error {rel:.4f}; checkpoint {args.out}")
    return 0


def cmd_eval(args) -> int:
    config = _experiment_config(args)
    score_fn = sweep_mod.score_fn(config, learned=True)
    rel = score_model.relative_score_error(score_fn, config.scheme())
    print(f"relative score error vs exact mixture score: {rel:.4f}")
    return 0


def cmd_sweep(args) -> int:
    config = _experiment_config(args)
    trace = []
    records = sweep_mod.run_sweep(config, (lambda *row: trace.append(row)) if args.trace else None)
    sweep_mod.write_sweep_csv(records, args.out)
    if args.trace:
        write_csv(args.trace, "snr_db,mode,step,sigma,mse_vs_z0", trace)
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
    if args.raw_baseline and config.checkpoint:  # from --checkpoint or the config file
        raise ValueError(f"--raw-baseline takes no score checkpoint, got {config.checkpoint!r}")
    scheme = config.scheme()
    enc = codec.QuantizingEncoder(scheme)
    rng = stream_rng(config.master_seed, 200)
    dec = codec.DecoderModel.build(args.source_dim // 2, args.source_dim, rng=rng)
    train_cfg = codec.JointTrainConfig(**_given(args, TRAIN_FLAGS))
    learned = config.checkpoint is not None  # from --checkpoint or the config file
    # the raw baseline denoises nothing, so it builds no score function
    score_fn = None if args.raw_baseline else sweep_mod.score_fn(config, learned=learned)
    dec, trace = codec.joint_train(
        enc, dec, score_fn, config.sampler_config(), config.schedule(), train_cfg, rng
    )
    codec.save_decoder(args.out, dec)
    if args.trace:
        # levels are whole floats, which %.12g writes without a fraction
        write_csv(args.trace, "step,loss,snr_step", ((i, *row) for i, row in enumerate(trace)))
    print(f"trained decoder for {train_cfg.steps} steps; final loss {trace[-1, 0]:.4g}; "
          f"checkpoint {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scdenoise",
        description="Score-based denoising of constellation symbols over AWGN channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the shared flags, declared once each in parent parsers
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", dest="master_seed", metavar="SEED", type=int,
                        help="master RNG seed")
    common.add_argument("--config", help="key=value config file")
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument("--order", type=int)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=[*parents, common])
        p.set_defaults(func=func)
        return p

    command("constellation", cmd_constellation, "dump the constellation as CSV", order, out)
    command("schedule", cmd_schedule, "dump the sigma schedule as CSV", out)

    # trainer flags default to None, so DsmConfig and JointTrainConfig hold
    # the only defaults
    train = argparse.ArgumentParser(add_help=False)
    train.add_argument("--steps", type=int)
    train.add_argument("--batch-size", type=int)
    train.add_argument("--learning-rate", type=float)

    p = command("train-score", cmd_train_score, "train the score network (DSM)", order, out,
                train)
    p.add_argument("--hidden", help="comma-separated hidden widths")
    p.add_argument("--trace", help="loss trace CSV path")

    p = command("eval", cmd_eval, "compare a checkpoint against the exact score", order)
    p.add_argument("--checkpoint", required=True)

    p = command("sweep", cmd_sweep, "run the SNR sweep and write CSV", order, out)
    p.add_argument("--trials", type=int)
    p.add_argument("--modes", help="comma-separated sweep modes")
    p.add_argument("--checkpoint")
    p.add_argument("--trace", help="per-level mse trace CSV path for the sampler modes")

    p = command("scatter", cmd_scatter, "forward-scatter data at one diffusion step", order, out)
    p.add_argument("--step", type=int, required=True)

    command("score-field", cmd_score_field, "dump the exact score vector field", order, out)

    p = command("joint-train", cmd_joint_train, "stage-2 decoder training", order, out, train)
    p.add_argument("--source-dim", type=int, default=16)
    p.add_argument("--checkpoint", help="score checkpoint (default: oracle)")
    p.add_argument("--raw-baseline", action="store_true",
                   help="train on raw noisy symbols instead of denoised ones")
    p.add_argument("--trace", help="training trace CSV path")
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
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
