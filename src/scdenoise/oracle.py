"""Exact score / log-density / posterior mean for a constellation prior under Gaussian noise.

With a uniform prior over the M constellation points and CN(0, sigma^2) noise,
the noisy marginal per symbol is the Gaussian mixture

    p_sigma(z) = (1/M) sum_m (1 / (pi sigma^2)) exp(-|z - z_m|^2 / sigma^2),

which admits closed forms for the MMSE posterior mean E[z0 | z] (the
posterior-weighted mean of the points) and the score (gradient of log p w.r.t.
the real coordinates). The score is derived from the posterior mean by
Tweedie's formula, score = (2/sigma^2) (E[z0 | z] - z), so both share one
pass over the posterior weights. Symbols are i.i.d., so the sequence-level
score is the per-symbol score applied elementwise.
"""

from __future__ import annotations

import numpy as np

from .channel import complex_noise
from .constellation import ConstellationScheme

__all__ = [
    "log_density",
    "posterior_weights",
    "mixture_score",
    "posterior_mean",
    "mmse_bound",
    "oracle_score_fn",
    "dump_score_field_csv",
]


def _neg_sq_dists(z: np.ndarray, sigma: float, scheme: ConstellationScheme) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    return -np.abs(z[..., None] - scheme.points) ** 2 / sigma**2


def _check_sigma(sigma: float) -> None:
    if sigma <= 0:
        raise ValueError("sigma must be positive")


def log_density(z: np.ndarray, sigma: float, scheme: ConstellationScheme) -> np.ndarray:
    """log p_sigma(z) per symbol, via log-sum-exp with max subtraction."""
    _check_sigma(sigma)
    a = _neg_sq_dists(z, sigma, scheme)
    amax = np.max(a, axis=-1)
    lse = amax + np.log(np.sum(np.exp(a - amax[..., None]), axis=-1))
    return lse - np.log(scheme.order * np.pi * sigma**2)


def posterior_weights(z: np.ndarray, sigma: float, scheme: ConstellationScheme) -> np.ndarray:
    """Posterior component weights w_m(z); softmax of -|z - z_m|^2 / sigma^2.

    Computed in log space; underflow to a single dominant component far from
    the constellation is the correct limit.
    """
    _check_sigma(sigma)
    a = _neg_sq_dists(z, sigma, scheme)
    a -= np.max(a, axis=-1, keepdims=True)
    w = np.exp(a)
    w /= np.sum(w, axis=-1, keepdims=True)
    return w


def mixture_score(z: np.ndarray, sigma: float, scheme: ConstellationScheme) -> np.ndarray:
    """Exact score as a complex (re, im) pair, by Tweedie's formula:
    (2/sigma^2) (E[z0 | z] - z) = (2/sigma^2) sum_m w_m(z) (z_m - z)."""
    z = np.asarray(z, dtype=np.complex128)
    mean = posterior_mean(z, sigma, scheme)
    return (2.0 / sigma**2) * (mean - z)


def posterior_mean(z: np.ndarray, sigma: float, scheme: ConstellationScheme) -> np.ndarray:
    """MMSE estimate E[z0 | z]: the posterior-weighted mean of the points.

    `mixture_score` is computed from it (Tweedie's formula).
    """
    w = posterior_weights(z, sigma, scheme)
    return np.sum(w * scheme.points, axis=-1)


def mmse_bound(
    sigma: float,
    scheme: ConstellationScheme,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate of the per-symbol MMSE floor E|z0 - E[z0|z]|^2."""
    if trials < 1:
        raise ValueError("need at least one trial")
    _check_sigma(sigma)
    idx = rng.integers(0, scheme.order, size=trials)
    z0 = scheme.points[idx]
    z = z0 + sigma * complex_noise(rng, trials)
    est = posterior_mean(z, sigma, scheme)
    return float(np.mean(np.abs(z0 - est) ** 2))


def oracle_score_fn(scheme: ConstellationScheme):
    """The exact score as a (z, sigma) -> score callable for the sampler."""

    def score(z: np.ndarray, sigma: float) -> np.ndarray:
        return mixture_score(z, sigma, scheme)

    return score


def dump_score_field_csv(
    scheme: ConstellationScheme,
    sigmas,
    path: str,
    lo: float = -2.0,
    hi: float = 2.0,
    n_grid: int = 41,
) -> None:
    """Score vector field on a square grid, one row per (re, im, sigma)."""
    axis = np.linspace(lo, hi, n_grid)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    z = (re + 1j * im).ravel()
    with open(path, "w") as fh:
        fh.write("re,im,sigma,score_re,score_im\n")
        for sigma in sigmas:
            s = mixture_score(z, float(sigma), scheme)
            for zk, sk in zip(z, s):
                fh.write(
                    f"{zk.real:.12g},{zk.imag:.12g},{sigma:.12g},"
                    f"{sk.real:.12g},{sk.imag:.12g}\n"
                )
