"""AWGN channel, SNR arithmetic, and the annealed (variance-exploding) forward process.

Complex noise convention, used everywhere: a unit complex Gaussian CN(0, 1)
has independent real/imag parts of variance 1/2 each, and SNR(dB) is defined
against the *total* complex noise variance: SNR = 10*log10(P / sigma^2), with
P = 1 because every constellation scheme has unit average symbol energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NoiseSchedule",
    "stream_rng",
    "complex_noise",
    "snr_to_sigma",
    "awgn_transmit",
    "build_schedule",
    "forward_diffuse",
    "snr_to_step",
    "vp_forward_reference",
]


def stream_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """Independent, reproducible RNG stream derived from (master_seed, stream ids).

    Parallel trials each get their own stream, so results do not depend on
    execution order. The seed and ids are taken modulo 2**63 (so negative
    ids, e.g. taken from SNR values, are allowed) and handed to SeedSequence,
    which splits each into 32-bit words (one word below 2**32, two above),
    concatenates them and zero-pads the result to 4 words. Two calls give the
    same generator exactly when their word lists agree after that padding;
    distinct lists give unrelated generators. So trailing zero ids are
    ignored within 4 words: `stream_rng(s, a, b, 0)` is `stream_rng(s, a, b)`.
    """
    words = [int(master_seed), *[int(s) for s in stream]]
    return np.random.default_rng([w % (1 << 63) for w in words])


def complex_noise(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) samples: unit total variance, 1/2 per real dimension."""
    # one draw of both parts, which takes the stream's values in the order
    # that drawing all real parts and then all imaginary parts would; each
    # part times 1/sqrt(2), written in place: the bits of
    # (re + 1j * im) / sqrt(2), whose complex division scales each part by
    # the divisor's reciprocal, without its three complex temporaries
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    parts = rng.standard_normal((2, *shape))
    scale = 1.0 / np.sqrt(2.0)
    out = np.empty(shape, dtype=np.complex128)
    np.multiply(parts[0], scale, out=out.real)
    np.multiply(parts[1], scale, out=out.imag)
    return out


def snr_to_sigma(snr_db: float) -> float:
    """Channel noise std (total complex) for a given SNR in dB, at P = 1.
    Raises ValueError for a NaN or infinite SNR, for one so high that the
    noise std underflows to 0 (above about 3235 dB) and for one so low that
    the noise variance overflows a float (below about -3083 dB)."""
    if not np.isfinite(snr_db):
        raise ValueError(f"SNR must be finite, got {snr_db} dB")
    try:
        sigma = float(np.sqrt(10.0 ** (-snr_db / 10.0)))
    except OverflowError:
        raise ValueError(f"SNR {snr_db} dB is too low: its noise variance overflows") from None
    if sigma == 0.0:
        raise ValueError(f"SNR {snr_db} dB is too high: its noise std underflows to 0")
    return sigma


def awgn_transmit(z: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Transmit z through an AWGN channel: z + sigma * CN(0, I)."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    z = np.asarray(z, dtype=np.complex128)
    if sigma == 0:
        return z.copy()
    return z + sigma * complex_noise(rng, z.shape)


@dataclass(frozen=True)
class NoiseSchedule:
    """Increasing sigma grid sigma_1..sigma_N, with sigma_0 = 0 by convention;
    its largest level `sigma_max` and its length `n_steps` are derived."""

    sigmas: np.ndarray = field(repr=False)  # shape (N,), sigmas[i-1] == sigma_i
    sigma_max: float = field(init=False)
    n_steps: int = field(init=False)

    def __post_init__(self):
        sigmas = np.asarray(self.sigmas, dtype=float)
        sigmas.setflags(write=False)
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "sigma_max", float(sigmas[-1]))
        object.__setattr__(self, "n_steps", sigmas.size)

    def sigma(self, i: int) -> float:
        """1-based level lookup; sigma(0) is the noiseless origin."""
        if i == 0:
            return 0.0
        if not 1 <= i <= self.n_steps:
            raise ValueError(f"schedule level {i} out of range [0, {self.n_steps}]")
        return float(self.sigmas[i - 1])


def build_schedule(sigma_min: float, sigma_max: float, n_steps: int) -> NoiseSchedule:
    """Geometric grid sigma_i = sigma_min * (sigma_max/sigma_min)^((i-1)/(N-1)),
    from sigma_min to sigma_max exactly."""
    if not 0 < sigma_min < sigma_max:
        raise ValueError("need 0 < sigma_min < sigma_max")
    if n_steps < 2:
        raise ValueError("need at least 2 schedule steps")
    expo = np.arange(n_steps) / (n_steps - 1)
    sigmas = sigma_min * (sigma_max / sigma_min) ** expo
    sigmas[-1] = sigma_max  # the product above misses it by an ulp for some inputs
    return NoiseSchedule(sigmas)


def forward_diffuse(
    z0: np.ndarray, i: int, sched: NoiseSchedule, rng: np.random.Generator
) -> np.ndarray:
    """Drift-free forward corruption to level i, in one shot: z0 + sigma_i * eps.

    Equal in distribution to iterating the per-step corruption, because the
    per-step variances add.
    """
    if not 1 <= i <= sched.n_steps:
        raise ValueError(f"diffusion step {i} out of range [1, {sched.n_steps}]")
    return awgn_transmit(z0, sched.sigma(i), rng)


def snr_to_step(snr_db: float, sched: NoiseSchedule) -> int:
    """Map a channel SNR onto the schedule: the smallest level k with
    sigma_k >= sigma_ch, so sigma_ch lies in (sigma_{k-1}, sigma_k].
    Raises ValueError for a non-finite SNR (`snr_to_sigma`) and for a
    channel noise above sigma_max."""
    sigma_ch = snr_to_sigma(snr_db)
    if sigma_ch > sched.sigma_max:
        raise ValueError(
            f"channel noise {sigma_ch:.4g} exceeds schedule sigma_max {sched.sigma_max:.4g}"
        )
    return int(np.searchsorted(sched.sigmas, sigma_ch, side="left")) + 1


def vp_forward_reference(
    z0: np.ndarray, i: int, beta: float, rng: np.random.Generator
) -> np.ndarray:
    """Drifted (variance-preserving style) forward reference, iterated i steps.

    z <- sqrt(1-beta) z + sqrt(beta) eps. Only used to illustrate how a drift
    term collapses the constellation toward the origin; the denoiser itself
    never uses it.
    """
    if not 0 < beta < 1:
        raise ValueError("beta must be in (0, 1)")
    if i < 1:
        raise ValueError("need at least one step")
    z = np.asarray(z0, dtype=np.complex128).copy()
    for _ in range(i):
        z = np.sqrt(1.0 - beta) * z + np.sqrt(beta) * complex_noise(rng, z.shape)
    return z
