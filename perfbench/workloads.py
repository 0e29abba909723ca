"""The three benchmark workloads, built from the workload seed.

Each workload has a set-up, a timed `unit(k)` (one public call into the
package), output checks and a `report` of quality numbers, one of which
(named by `quality`) is the gated `quality_err` metric. `variants` distinct
inputs per run are derived from the seed and the report averages over them,
so it is deterministic for a seed and independent of how many units fit in
the time budget. Units past the first `variants` repeat an earlier input and
must reproduce its output exactly.

Every call into the package goes through a module attribute at call time
(`sweep.run_sweep`, not an imported name), so the traced run sees it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple

import numpy as np

from scdenoise import channel, codec, oracle, score_model, sweep
from scdenoise.score_model import DsmConfig

# 64-QAM, 128x128 hidden, lr 8e-3, mean head: the acceptance criterion-3
# configuration. Score-training quality varies by about 10% from seed to
# seed, so the quality metric averages several independently seeded models.
TRAIN = dict(hidden=(128, 128), learning_rate=8e-3, head="mean")
JOINT_SCORE = dict(hidden=(64, 64), learning_rate=8e-3, head="mean")

FULL = {
    "sweep_qam64": dict(trials=16),
    "train_score_qam64": dict(steps=1000, variants=8),
    "joint_learned": dict(score_steps=3000, steps=200, variants=2,
                          heldout_rows=128, heldout_levels=tuple(range(1, 65, 8))),
}
# Sizes for the benchmark's self-test: every code path, a few seconds in all.
TINY = {
    "sweep_qam64": dict(trials=1, n_symbols=16, snr_grid=(-6.0, 6.0), mmse_trials=2000),
    "train_score_qam64": dict(steps=40, variants=2),
    "joint_learned": dict(score_steps=40, steps=10, variants=2,
                          heldout_rows=8, heldout_levels=(1, 9)),
}

MC_TOLERANCE_SIGMAS = 6.0  # Monte-Carlo checks allow this many standard errors


def sub_seed(seed: int, k: int) -> int:
    """An int seed for variant k of a run, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


class SweepQam64:
    """`run_sweep` with the CLI defaults; the paper's headline figure."""

    name = "sweep_qam64"
    quality = "mse_over_mmse"

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.size = dict(size)
        self.variants = 1

    def setup(self) -> bytes:
        self.config = sweep.ExperimentConfig(master_seed=self.seed, **self.size)
        self.config.scheme()
        return repr(self.config).encode()

    @property
    def work(self) -> tuple[int, int]:
        """(symbols, steps) per unit: one step is one (SNR, trial) point."""
        points = len(self.config.snr_grid) * self.config.trials
        return points * self.config.n_symbols, points

    def unit(self, k: int):
        return sweep.run_sweep(self.config)

    def digest(self, records) -> bytes:
        return repr([astuple(r) for r in records]).encode()

    def _error_variance(self, si: int, sigma: float) -> float:
        # Per-symbol variance of |z0 - E[z0|z]|^2 at this SNR, from an
        # independent draw; sets the Monte-Carlo tolerance of the mmse check.
        scheme = self.config.scheme()
        rng = np.random.default_rng([self.seed, 7, si])
        z0 = scheme.points[rng.integers(0, scheme.order, size=20_000)]
        z = z0 + sigma * channel.complex_noise(rng, z0.shape)
        return float(np.var(np.abs(z0 - oracle.posterior_mean(z, sigma, scheme)) ** 2))

    def checks(self, k: int, records):
        cfg = self.config
        n = cfg.trials * cfg.n_symbols
        snr_index = {float(s): i for i, s in enumerate(cfg.snr_grid)}
        for r in records:
            label = f"{r.mode} @ {r.snr_db:+g} dB"
            if not all(math.isfinite(v) for v in (r.mse, r.ser, r.mmse_bound)):
                yield f"{label}: non-finite record", False
                continue
            var = channel.snr_to_sigma(r.snr_db) ** 2
            if r.mode == "raw":
                # |noise|^2 / sigma^2 is Exp(1): relative standard error 1/sqrt(n)
                ok = abs(r.mse / var - 1.0) <= MC_TOLERANCE_SIGMAS / math.sqrt(n)
                yield f"{label}: raw MSE {r.mse:.4g} vs sigma^2 {var:.4g}", ok
            elif r.mode == "mmse":
                v = self._error_variance(snr_index[r.snr_db], math.sqrt(var))
                tol = MC_TOLERANCE_SIGMAS * math.sqrt(v / n + v / cfg.mmse_trials)
                ok = abs(r.mse - r.mmse_bound) <= tol
                yield f"{label}: mmse MSE {r.mse:.4g} vs floor {r.mmse_bound:.4g}", ok
            else:
                yield f"{label}: finite", True

    def report(self, outputs) -> dict:
        # Geometric mean over SNR of oracle_pc MSE / MMSE floor.
        ratios = [r.mse / r.mmse_bound for r in outputs[0] if r.mode == "oracle_pc"]
        return {"mse_over_mmse": (float(np.exp(np.mean(np.log(ratios)))), "ratio")}


class TrainScoreQam64:
    """`train_score` on 64-QAM in the criterion-3 configuration."""

    name = "train_score_qam64"
    quality = "score_rel_err"

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.steps = size["steps"]
        self.variants = size["variants"]

    def setup(self) -> bytes:
        cfg = sweep.ExperimentConfig()
        self.scheme = cfg.scheme()
        self.schedule = cfg.schedule()
        self.configs = [
            DsmConfig(schedule=self.schedule, steps=self.steps, seed=sub_seed(self.seed, k), **TRAIN)
            for k in range(self.variants)
        ]
        return repr(self.configs).encode()

    @property
    def work(self) -> tuple[int, int]:
        return self.steps * self.configs[0].batch_size, self.steps

    def unit(self, k: int):
        return score_model.train_score(self.scheme, self.configs[k])

    def digest(self, out) -> bytes:
        model, trace = out
        return _digest(trace, *model.net.params)

    def checks(self, k: int, out):
        _, trace = out
        tenth = max(len(trace) // 10, 1)
        yield "loss trace finite", bool(np.all(np.isfinite(trace)))
        first, last = float(np.mean(trace[:tenth])), float(np.mean(trace[-tenth:]))
        yield f"final loss {last:.4g} below first-tenth loss {first:.4g}", last < first
        yield "score error finite", math.isfinite(self._rel_err(out))

    def _rel_err(self, out) -> float:
        return score_model.relative_score_error(score_model.model_score_fn(out[0]), self.scheme)

    def report(self, outputs) -> dict:
        return {"score_rel_err": (float(np.mean([self._rel_err(o) for o in outputs])), "ratio")}


class JointLearned:
    """`joint_train` through the PC sampler with a score model trained in set-up."""

    name = "joint_learned"
    quality = "decoder_heldout_loss"
    source_dim = 16
    batch_size = 64

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.size = size
        self.variants = size["variants"]
        self._heldout = None

    def setup(self) -> bytes:
        cfg = sweep.ExperimentConfig()
        self.scheme = cfg.scheme()
        self.schedule = cfg.schedule()
        self.sampler_config = cfg.sampler_config()
        self.encoder = codec.QuantizingEncoder(self.scheme)
        dsm = DsmConfig(schedule=self.schedule, steps=self.size["score_steps"],
                        seed=self.seed, **JOINT_SCORE)
        model, _ = score_model.train_score(self.scheme, dsm)
        self.score_fn = score_model.model_score_fn(model)
        return _digest(*model.net.params)

    @property
    def work(self) -> tuple[int, int]:
        steps = self.size["steps"]
        return steps * self.batch_size * self.source_dim // 2, steps

    def _decoder(self, k: int):
        rng = channel.stream_rng(sub_seed(self.seed, k), 1)
        return codec.DecoderModel.build(self.source_dim // 2, self.source_dim, rng=rng)

    def unit(self, k: int):
        cfg = codec.JointTrainConfig(steps=self.size["steps"], batch_size=self.batch_size)
        rng = channel.stream_rng(sub_seed(self.seed, k), 2)
        return codec.joint_train(self.encoder, self._decoder(k), self.score_fn,
                                 self.sampler_config, self.schedule, cfg, rng)

    def digest(self, out) -> bytes:
        dec, trace = out
        return _digest(trace, *dec.net.params)

    def _heldout_set(self):
        # Denoised held-out inputs at fixed levels; independent of the decoder,
        # so they are built once and shared by every evaluation.
        if self._heldout is None:
            rng = np.random.default_rng([self.seed, 3])
            x = rng.uniform(-1.0, 1.0, size=(self.size["heldout_rows"], self.source_dim))
            z0 = codec.encode(x, self.encoder)
            self._heldout = x, [
                codec.denoise_from_level(channel.forward_diffuse(z0, lv, self.schedule, rng),
                                         lv, self.score_fn, self.sampler_config, rng)
                for lv in self.size["heldout_levels"]
            ]
        return self._heldout

    def heldout_loss(self, dec) -> float:
        """Mean over the held-out levels of the per-vector reconstruction MSE."""
        x, inputs = self._heldout_set()
        return float(np.mean([np.mean(np.sum((codec.decode(z, dec) - x) ** 2, axis=-1))
                              for z in inputs]))

    def checks(self, k: int, out):
        dec, trace = out
        yield "training trace finite", bool(np.all(np.isfinite(trace)))
        # The training loss of one step is dominated by its random noise level,
        # so training progress is checked on a fixed held-out set instead.
        before, after = self.heldout_loss(self._decoder(k)), self.heldout_loss(dec)
        yield f"held-out loss {after:.4g} below untrained {before:.4g}", after < before

    def report(self, outputs) -> dict:
        tenth = max(self.size["steps"] // 10, 1)
        return {
            "decoder_loss_final": (float(np.mean([o[1][-tenth:, 0].mean() for o in outputs])), "loss"),
            "decoder_heldout_loss": (float(np.mean([self.heldout_loss(o[0]) for o in outputs])), "loss"),
        }


WORKLOADS = {cls.name: cls for cls in (SweepQam64, TrainScoreQam64, JointLearned)}
