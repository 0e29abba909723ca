"""Toy digital-semantic pipeline: fixed quantizing encoder, trainable MLP decoder.

A thin layer over the modules below it. The encoder scales each pair of
source dimensions in [-1, 1] onto the level span and sends it to its nearest
constellation point with `constellation.demodulate_hard`; it is deliberately
untrainable so the second training stage (decoder adaptation to denoised
symbols) is isolated from codec learning. The decoder is an `mlp.Mlp`, and
`joint_train` denoises with `sampler.denoise_from_level`. Symbol sequences
and the decoder's real inputs are the same memory: a sequence of n complex128
symbols viewed as 2n float64 values, interleaved (re, im).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import NoiseSchedule, forward_diffuse
from .constellation import ConstellationScheme, demodulate_hard
from .mlp import Mlp, check_training, fit, load_checkpoint, save_checkpoint
from .sampler import SamplerConfig, denoise_from_level

__all__ = [
    "QuantizingEncoder",
    "DecoderModel",
    "JointTrainConfig",
    "encode",
    "decode",
    "joint_train",
    "save_decoder",
    "load_decoder",
]


@dataclass(frozen=True)
class QuantizingEncoder:
    """Per-axis quantizer onto the constellation's amplitude levels.

    Source values in [-1, 1] are scaled onto the level span; even dimensions
    feed the in-phase axis, odd dimensions the quadrature axis. The scheme
    must share one set of levels on both axes (square QAM); any other scheme
    (BPSK) raises ValueError, since one level span cannot scale both axes.
    """

    scheme: ConstellationScheme

    def __post_init__(self):
        re_levels, im_levels = self.scheme.axis_levels
        if re_levels is not im_levels:
            raise ValueError(
                f"the quantizing encoder needs a square-QAM constellation; the "
                f"{self.scheme.order}-point scheme's axes do not share their levels"
            )

    @property
    def level_span(self) -> float:
        return float(self.scheme.axis_levels[0].max())


def _pairs(z: np.ndarray) -> np.ndarray:
    """z's symbols as interleaved (re, im) float64 values, last axis doubled;
    z is copied only when it is not already a contiguous complex128 array."""
    return np.ascontiguousarray(z, dtype=np.complex128).view(np.float64)


def encode(x: np.ndarray, enc: QuantizingEncoder) -> np.ndarray:
    """Source vector(s) of even dimension d -> sequence(s) of d/2 symbols."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2 != 0:
        raise ValueError("source dimension must be even (two dims per symbol)")
    # each scaled (re, im) source pair onto its nearest constellation point
    pairs = np.ascontiguousarray(x * enc.level_span).view(np.complex128)
    return enc.scheme.points[demodulate_hard(pairs, enc.scheme)]


@dataclass
class DecoderModel:
    """MLP from a 2n-real symbol sequence to a d-real source estimate."""

    net: Mlp

    @property
    def n_symbols(self) -> int:
        return self.net.layer_sizes[0] // 2

    @property
    def source_dim(self) -> int:
        return self.net.layer_sizes[-1]

    @classmethod
    def build(cls, n_symbols: int, source_dim: int, hidden=(128, 128), rng=None):
        return cls(net=Mlp([2 * n_symbols, *hidden, source_dim], rng=rng))


def decode(z_hat: np.ndarray, dec: DecoderModel) -> np.ndarray:
    """Deterministic decoder forward pass, clamped to the source range."""
    z_hat = np.asarray(z_hat, dtype=np.complex128)
    single = z_hat.ndim == 1
    if z_hat.shape[-1] != dec.n_symbols:
        raise ValueError("sequence length does not match decoder input")
    out = np.clip(dec.net(_pairs(z_hat)), -1.0, 1.0)
    return out[0] if single else out


@dataclass
class JointTrainConfig:
    """Stage-2 training loop parameters."""

    steps: int = 2000
    batch_size: int = 64
    learning_rate: float = 1e-3

    def __post_init__(self):
        check_training(self.steps, self.batch_size, self.learning_rate)


def joint_train(
    enc: QuantizingEncoder,
    dec: DecoderModel,
    score_fn,
    sampler_config: SamplerConfig,
    sched: NoiseSchedule,
    config: JointTrainConfig,
    rng: np.random.Generator,
):
    """Train the decoder on channel outputs, denoised by the frozen score_fn.

    Each step encodes a batch of uniform sources, corrupts the symbols to a
    uniformly random schedule level and denoises them from it with
    `denoise_from_level`, unless score_fn is None (the raw-symbol baseline,
    which draws no sampler noise); `fit` descends the loss ||x - x_hat||^2.
    Returns (decoder, trace) with one (loss, level) row per step.
    """
    d = dec.source_dim
    if 2 * dec.n_symbols != d:
        raise ValueError(f"source dimension {d} must be two per symbol of the decoder's "
                         f"{dec.n_symbols}-symbol input")
    levels = []

    def batch(step):
        x = rng.uniform(-1.0, 1.0, size=(config.batch_size, d))
        level = int(rng.integers(1, sched.n_steps + 1))
        z = forward_diffuse(encode(x, enc), level, sched, rng)
        if score_fn is not None:
            z = denoise_from_level(z, level, score_fn, sampler_config, rng)
        levels.append(level)
        return _pairs(z), x

    losses = fit(dec.net, config.steps, batch, lambda step: config.learning_rate)
    return dec, np.column_stack([losses, levels])


def save_decoder(path: str, dec: DecoderModel) -> None:
    save_checkpoint(path, dec.net, "kind", "decoder")


def load_decoder(path: str) -> DecoderModel:
    return DecoderModel(net=load_checkpoint(path, "kind", "decoder"))
