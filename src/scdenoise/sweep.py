"""SNR-sweep experiment runner and figure-data emitters.

Output is CSV data, not plots, and every CSV file the package writes goes
through `write_csv`. Rows are deterministic (byte-identical) for a
fixed configuration and master seed because every random draw comes from an
RNG stream derived from the master seed: each trial's channel realization
from (snr index, trial index), and the sampler noise of each sampler mode,
which denoises all trials of an SNR point as one batch, from (snr index,
mode index). The MMSE floor is deterministic quadrature and draws nothing.
"""

from __future__ import annotations

import typing
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import score_model
from .channel import (
    awgn_transmit,
    build_schedule,
    forward_diffuse,
    snr_to_sigma,
    stream_rng,
    vp_forward_reference,
)
from .constellation import build_bpsk, build_square_qam, demodulate_hard, modulate
from .metrics import mse, ser
from .oracle import mmse_bound, oracle_score_fn, posterior_mean
from .sampler import SamplerConfig, pc_sample

__all__ = ["SweepRecord", "ExperimentConfig", "run_sweep", "emit_scatter", "write_sweep_csv",
           "write_csv"]

SWEEP_MODES = ("raw", "mmse", "oracle_pc", "learned_pc")

# the per-step beta of the drifted (vp) reference cloud that `emit_scatter` writes
SCATTER_BETA = 0.1


@dataclass(frozen=True)
class SweepRecord:
    """One sweep row: an (SNR, estimator mode) measurement."""

    snr_db: float
    mode: str
    mse: float
    ser: float
    mmse_bound: float
    trials: int
    seed: int


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep or scatter run needs; defaults follow the reference setup."""

    order: int = 64
    sigma_min: float = 0.01
    sigma_max: float = 10.0
    n_steps: int = 64
    n_symbols: int = 128
    snr_grid: tuple[float, ...] = tuple(float(s) for s in range(-18, 19, 3))
    trials: int = 80
    master_seed: int = 0
    modes: tuple[str, ...] = ("raw", "mmse", "oracle_pc")
    checkpoint: str | None = None
    # read by nothing (oracle.mmse_bound is quadrature); kept only because
    # perfbench/workloads.py passes it, like DsmConfig.head
    mmse_trials: int = 200_000
    scatter_trials: int = 2000

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.n_symbols < 1:
            raise ValueError(f"n_symbols must be at least 1, got {self.n_symbols}")
        if self.scatter_trials < 1:
            raise ValueError(f"scatter_trials must be at least 1, got {self.scatter_trials}")
        if not self.snr_grid or not self.modes:
            raise ValueError("snr_grid and modes must each name at least one value")
        for mi, mode in enumerate(self.modes):
            if mode not in SWEEP_MODES:
                raise ValueError(f"unknown sweep mode {mode!r}")
            if mode in self.modes[:mi]:
                raise ValueError(f"repeated sweep mode {mode!r}")

    def scheme(self):
        if self.order == 2:
            return build_bpsk()
        return build_square_qam(self.order)

    def schedule(self):
        return build_schedule(self.sigma_min, self.sigma_max, self.n_steps)

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(schedule=self.schedule())

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        """Build a config from key=value pairs; string values are parsed by field type."""
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for key, value in mapping.items():
            if key not in hints:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(key, value, hints[key])
        return cls(**kwargs)


def _coerce(key: str, value, hint):
    """Parse a string by its field type: tuples are comma-separated, and an
    empty string sets an optional field to None."""
    if not isinstance(value, str):
        return value
    args = typing.get_args(hint)
    try:
        if typing.get_origin(hint) is tuple:
            return tuple(args[0](v.strip()) for v in value.split(",") if v.strip())
        if type(None) in args:
            return args[0](value) if value else None
        return hint(value)
    except ValueError as exc:
        raise ValueError(f"bad value for {key!r}: {value!r}") from exc


def parse_config_file(path: str) -> dict:
    """Plain key=value lines; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def run_sweep(config: ExperimentConfig, observer=None):
    """One SweepRecord per (snr, mode). All modes of a trial share the same
    channel realization, so estimator comparisons are paired. Each mode
    denoises the trials of an SNR point as one (trials, n_symbols) array and
    averages the per-trial MSE and SER in trial order. Random draws come from
    stream (seed, si, trial, 0) for a trial's channel and (seed, si, 1 << 21,
    1 + mode index) for a sampler mode's batch; the floor draws none.

    For each sampler mode, `observer(snr_db, mode, level, sigma, mse)` is
    called with the MSE against z0 over the whole batch: at the starting level
    k (sigma = the channel noise), after each of levels k-1 .. 1, and at level
    0 after the final Tweedie step, whose MSE is the record's up to rounding.
    It draws nothing, so the records do not depend on it."""
    scheme = config.scheme()
    sampler_cfg = config.sampler_config()
    score_fns = {}
    if "oracle_pc" in config.modes:
        score_fns["oracle_pc"] = oracle_score_fn(scheme)
    if "learned_pc" in config.modes:
        if config.checkpoint is None:
            raise ValueError("learned_pc mode requires a checkpoint")
        model = score_model.load_model(config.checkpoint)
        score_fns["learned_pc"] = score_model.model_score_fn(model)

    records = []
    for si, snr_db in enumerate(config.snr_grid):
        sigma_ch = snr_to_sigma(snr_db)
        bound = mmse_bound(sigma_ch, scheme)
        rows = []
        for trial in range(config.trials):
            rng_ch = stream_rng(config.master_seed, si, trial, 0)
            idx = rng_ch.integers(0, scheme.order, size=config.n_symbols)
            z0 = modulate(idx, scheme)
            rows.append((idx, z0, awgn_transmit(z0, sigma_ch, rng_ch)))
        idx, z0, z_tilde = (np.stack(column) for column in zip(*rows))
        for mi, mode in enumerate(config.modes):
            if mode == "raw":
                est = z_tilde
            elif mode == "mmse":
                est = posterior_mean(z_tilde, sigma_ch, scheme)
            else:
                # one stream per (SNR, mode) for the whole (trials, n_symbols)
                # batch; its last id is nonzero, so it never aliases a channel
                # stream (si, trial, 0)
                rng_mode = stream_rng(config.master_seed, si, 1 << 21, 1 + mi)
                trace = None if observer is None else (
                    lambda level, sigma, z: observer(float(snr_db), mode, level, sigma, mse(z, z0)))
                est = pc_sample(z_tilde, snr_db, score_fns[mode], sampler_cfg, rng_mode,
                                observer=trace)
            est_idx = demodulate_hard(est, scheme)
            # plain += in trial order; sum() compensates from Python 3.12 on
            mse_sum = ser_sum = 0.0
            for trial in range(config.trials):
                mse_sum += mse(est[trial], z0[trial])
                ser_sum += ser(idx[trial], est_idx[trial])
            records.append(
                SweepRecord(
                    snr_db=float(snr_db),
                    mode=mode,
                    mse=mse_sum / config.trials,
                    ser=ser_sum / config.trials,
                    mmse_bound=bound,
                    trials=config.trials,
                    seed=config.master_seed,
                )
            )
    return records


def write_csv(path: str, header: str, rows) -> None:
    """Write a header line, then one comma-separated line per row. Floats
    (Python or numpy float64) are written to 12 significant digits, every
    other value with str()."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            cells = (f"{v:.12g}" if isinstance(v, float) else str(v) for v in row)
            fh.write(",".join(cells) + "\n")


def write_sweep_csv(records, path: str) -> None:
    header = ",".join(f.name for f in fields(SweepRecord))
    write_csv(path, header, (astuple(r) for r in records))


def emit_scatter(config: ExperimentConfig, step: int, path: str) -> None:
    """Forward-scatter CSV at one diffusion step, for the drift-free vs
    drifted contrast: mode 'scdm' keeps means on the constellation, mode 'vp'
    shrinks them toward the origin."""
    sched = config.schedule()
    if not 1 <= step <= sched.n_steps:
        raise ValueError(f"scatter step {step} outside [1, {sched.n_steps}]")
    scheme = config.scheme()
    rng = stream_rng(config.master_seed, 9000, step)
    idx = rng.integers(0, scheme.order, size=config.scatter_trials)
    z0 = modulate(idx, scheme)
    z_scdm = forward_diffuse(z0, step, sched, rng)
    z_vp = vp_forward_reference(z0, step, SCATTER_BETA, rng)
    rows = (
        (step, mode, t, zk.real, zk.imag)
        for mode, z in (("scdm", z_scdm), ("vp", z_vp))
        for t, zk in enumerate(z)
    )
    write_csv(path, "step,mode,trial,re,im", rows)
