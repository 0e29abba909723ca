"""Predictor-Corrector reverse sampler over the annealed noise schedule.

Scores are gradients with respect to (Re z, Im z), and CN(0, sigma^2) noise
puts sigma^2 / 2 of variance on each real dimension. The predictor is the
discrete reverse-diffusion step

    z_i = z_{i+1} + (sigma_{i+1}^2 - sigma_i^2) / 2 * s(z_{i+1}, sigma_{i+1})
               + sqrt(sigma_{i+1}^2 - sigma_i^2) eps,     eps ~ CN(0, 1).

The corrector is a Langevin step z + xi g + sqrt(2 xi) N(0, I) per real
dimension, with the step size xi = 2 (r ||eps|| / ||g||)^2 computed over the
full 2n-real view of the sequence. In the reverse loop its target is the
distribution of z_i given the sequence z_start the loop started from, whose
score is s(z, sigma_i) + 2 (z_start - z) / (sigma_start^2 - sigma_i^2); a
corrector on the marginal p_{sigma_i} would drift away from the received
symbols. With the exact score the loop is therefore a sampler of the
posterior p(z_0 | z_start). The loop ends at its lowest noise level sigma
(sigma_1, or sigma_start if that is lower) with a noise-free Tweedie step,
z + (sigma^2 / 2) s(z, sigma), which removes the residual noise. Any
(z, sigma) -> score callable works: the exact mixture oracle or a trained
model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import NoiseSchedule, complex_noise, snr_to_sigma, snr_to_step
from .errors import DivergenceError

__all__ = [
    "SamplerConfig",
    "predictor_step",
    "corrector_step",
    "denoise_from_level",
    "pc_sample",
]


@dataclass(frozen=True)
class SamplerConfig:
    """Reverse-sampling knobs: Langevin steps per level and the step-length ratio."""

    schedule: NoiseSchedule
    langevin_steps: int = 2
    step_scale: float = 0.16  # the 'r' controlling xi

    def __post_init__(self):
        if self.langevin_steps < 0:
            raise ValueError("langevin_steps must be non-negative")
        if not 0 < self.step_scale < 1:
            raise ValueError("step_scale must lie in (0, 1)")


def predictor_step(
    z_next: np.ndarray,
    score_fn,
    sigma_next: float,
    sigma_cur: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One reverse-diffusion step from level sigma_next down to sigma_cur."""
    if not sigma_next > sigma_cur >= 0:
        raise ValueError("need sigma_next > sigma_cur >= 0")
    z_next = np.asarray(z_next, dtype=np.complex128)
    dvar = sigma_next**2 - sigma_cur**2
    drift = (dvar / 2.0) * score_fn(z_next, sigma_next)
    return z_next + drift + np.sqrt(dvar) * complex_noise(rng, z_next.shape)


def _seq_norm(a: np.ndarray) -> np.ndarray:
    # Euclidean norm over the trailing (sequence) axis, viewing each complex
    # symbol as two reals; keeps a batch axis if present.
    return np.sqrt(np.sum(a.real**2 + a.imag**2, axis=-1, keepdims=True))


def corrector_step(
    z: np.ndarray,
    score_fn,
    sigma: float,
    r: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One Langevin correction at a fixed noise level.

    The noise term has variance 2 xi per real dimension, so the step leaves
    the distribution whose score is `score_fn` invariant up to discretization
    error. A degenerate score (||g|| = 0) would make the step size undefined;
    the update is skipped in that case.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    z = np.asarray(z, dtype=np.complex128)
    eps_scale = complex_noise(rng, z.shape)
    g = score_fn(z, sigma)
    g_norm = _seq_norm(g)
    eps = complex_noise(rng, z.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = 2.0 * (r * _seq_norm(eps_scale) / g_norm) ** 2
    xi = np.where(g_norm > 0.0, xi, 0.0)
    # complex_noise has variance 1/2 per real dimension
    return z + xi * g + np.sqrt(4.0 * xi) * eps


def denoise_from_level(
    z: np.ndarray,
    level: int,
    score_fn,
    config: SamplerConfig,
    rng: np.random.Generator,
    observer=None,
    sigma_start: float | None = None,
) -> np.ndarray:
    """Run the PC loop from schedule level `level` down to level 1.

    `z` carries Gaussian noise of std `sigma_start`, which defaults to
    sigma_level and must lie in (sigma_{level-1}, sigma_level]; the first
    predictor step goes from it straight to sigma_{level-1}. The correctors
    target the distribution of each level given the starting `z`. Ends with
    the noise-free Tweedie step removing the residual noise.
    `observer(level, sigma, z)` is called on the starting `z` and after each
    completed level, for convergence tracing. Raises `DivergenceError` if the
    result is not finite (a non-finite state stays non-finite through the later
    levels, so the result is checked once, not once per level).
    """
    sched = config.schedule
    if not 1 <= level <= sched.n_steps:
        raise ValueError(f"level {level} outside schedule range")
    if sigma_start is None:
        sigma_start = sched.sigma(level)
    elif not sched.sigma(level - 1) < sigma_start <= sched.sigma(level):
        raise ValueError(f"sigma_start {sigma_start:.4g} outside level {level}'s interval")
    z_start = np.asarray(z, dtype=np.complex128)

    def conditional_score(z, sigma):
        # score of p(z_sigma | z_start): the prior score plus the Gaussian
        # likelihood of z_start given z_sigma
        return score_fn(z, sigma) + 2.0 * (z_start - z) / (sigma_start**2 - sigma**2)

    z = z_start
    if observer is not None:
        observer(level, sigma_start, z)
    sigma_hi = sigma_start
    for i in range(level - 1, 0, -1):
        sigma_lo = sched.sigma(i)
        z = predictor_step(z, score_fn, sigma_hi, sigma_lo, rng)
        for _ in range(config.langevin_steps):
            z = corrector_step(z, conditional_score, sigma_lo, config.step_scale, rng)
        if observer is not None:
            observer(i, sigma_lo, z)
        sigma_hi = sigma_lo
    z = z + (sigma_hi**2 / 2.0) * score_fn(z, sigma_hi)
    if observer is not None:
        observer(0, 0.0, z)
    if not np.all(np.isfinite(z)):
        raise DivergenceError(f"non-finite sampler output from level {level}")
    return z


def pc_sample(
    z_tilde: np.ndarray,
    snr_db: float,
    score_fn,
    config: SamplerConfig,
    rng: np.random.Generator,
    power: float = 1.0,
    observer=None,
) -> np.ndarray:
    """Denoise a received sequence: find the schedule level k whose interval
    (sigma_{k-1}, sigma_k] holds the channel noise sigma_ch, then anneal down
    with the PC loop starting at sigma_ch itself. No noise is added to bring
    the received symbols onto the grid; that would discard information."""
    level = snr_to_step(snr_db, config.schedule, power)
    return denoise_from_level(z_tilde, level, score_fn, config, rng, observer=observer,
                              sigma_start=snr_to_sigma(snr_db, power))
