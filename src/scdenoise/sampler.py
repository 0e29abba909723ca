"""Reverse-diffusion sampler over the annealed noise schedule.

Scores are gradients with respect to (Re z, Im z), and CN(0, sigma^2) noise
puts sigma^2 / 2 of variance on each real dimension. The sampler runs the
discrete reverse-diffusion predictor

    z_i = z_{i+1} + (sigma_{i+1}^2 - sigma_i^2) / 2 * s(z_{i+1}, sigma_{i+1})
               + sqrt(sigma_{i+1}^2 - sigma_i^2) eps,     eps ~ CN(0, 1)

from the received symbols' level down to level 1, and ends at its lowest
noise level sigma (sigma_1, or sigma_start if that is lower) with a
noise-free Tweedie step, z + (sigma^2 / 2) s(z, sigma), which removes the
residual noise. A denoise from level k therefore makes exactly k score
evaluations. With the exact score the chain samples the posterior
p(z_0 | z_start), up to discretization error. Every operation is
elementwise, so each symbol's output depends only on its own input and
noise draws, whatever the batch shape: bit for bit with the exact score,
and up to rounding with a learned one, whose matrix products BLAS computes
with kernels chosen by problem size. Any (z, sigma) -> score callable
works: the exact mixture oracle or a trained model through
`score_model.model_score_fn`, which evaluates the network in float32, so a
learned score carries float32 rounding (about 1e-7 relative in D).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import NoiseSchedule, complex_noise, snr_to_sigma, snr_to_step
from .errors import DivergenceError

__all__ = [
    "SamplerConfig",
    "predictor_step",
    "denoise_from_level",
    "pc_sample",
]


@dataclass(frozen=True)
class SamplerConfig:
    """Reverse-sampling settings: the noise schedule whose levels the
    predictor steps through."""

    schedule: NoiseSchedule


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
    # (z_next + drift) + sqrt(dvar) * noise in that order, each sum formed
    # in place in the fresh drift array (a sum's bits do not depend on the
    # order of its two terms) and the noise scaled in place
    z = (dvar / 2.0) * score_fn(z_next, sigma_next)
    z += z_next
    noise = complex_noise(rng, z_next.shape)
    noise *= np.sqrt(dvar)
    z += noise
    return z


def denoise_from_level(
    z: np.ndarray,
    level: int,
    score_fn,
    config: SamplerConfig,
    rng: np.random.Generator,
    observer=None,
    sigma_start: float | None = None,
) -> np.ndarray:
    """Run the predictor from schedule level `level` down to level 1, then
    the noise-free Tweedie step removing the residual noise: `level` score
    evaluations in all.

    `z` carries Gaussian noise of std `sigma_start`, which defaults to
    sigma_level and must lie in (sigma_{level-1}, sigma_level]; the first
    predictor step goes from it straight to sigma_{level-1}.
    `observer(level, sigma, z)` is called on the starting `z` and after each
    completed level, for convergence tracing. Raises `DivergenceError`, and no
    numpy warning, if the result is not finite (a non-finite state stays
    non-finite through the later levels, so the result is checked once).
    """
    sched = config.schedule
    if not 1 <= level <= sched.n_steps:
        raise ValueError(f"level {level} outside schedule range")
    if sigma_start is None:
        sigma_start = sched.sigma(level)
    elif not sched.sigma(level - 1) < sigma_start <= sched.sigma(level):
        raise ValueError(f"sigma_start {sigma_start:.4g} outside level {level}'s interval")
    z = np.asarray(z, dtype=np.complex128)
    if observer is not None:
        observer(level, sigma_start, z)
    sigma_hi = sigma_start
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(level - 1, 0, -1):
            sigma_lo = sched.sigma(i)
            z = predictor_step(z, score_fn, sigma_hi, sigma_lo, rng)
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
    observer=None,
) -> np.ndarray:
    """Denoise a received sequence: find the schedule level k whose interval
    (sigma_{k-1}, sigma_k] holds the channel noise sigma_ch, then anneal down
    with the reverse sampler starting at sigma_ch itself. No noise is added
    to bring the received symbols onto the grid; that would discard
    information."""
    level = snr_to_step(snr_db, config.schedule)
    return denoise_from_level(z_tilde, level, score_fn, config, rng, observer=observer,
                              sigma_start=snr_to_sigma(snr_db))
