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

When the points are the product grid of one set of levels on both axes
(`scheme.axis_levels` is set: square QAM), the uniform prior and the
isotropic noise both factor over the real and imaginary axes, and so does
the posterior. `posterior_mean` then takes the softmax-weighted mean of the
levels for each coordinate of the interleaved float64 view of z: 2 sqrt(M)
real components per symbol instead of M complex ones, with no (..., M)
temporary. Any other point set (BPSK included) takes the general M-point
path, which also serves as the reference the per-axis path is tested against.
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
    d = z[..., None] - scheme.points
    return -(d.real**2 + d.imag**2) / sigma**2


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

    Per axis when the points form a square grid, else over all M points.
    `mixture_score` is computed from it (Tweedie's formula).
    """
    levels = scheme.axis_levels
    if levels is None:
        w = posterior_weights(z, sigma, scheme)
        return np.sum(w * scheme.points, axis=-1)
    _check_sigma(sigma)
    z = np.asarray(z, dtype=np.complex128)
    # levels-first over the interleaved (re, im) float64 view x: an (L, 2N)
    # array of -(l_k - x)^2 / sigma^2, so the softmax shift is L - 1
    # elementwise minimums over whole rows, and the weighted sum and the
    # normalizer come from one (2, L) @ (L, 2N) matmul
    x = np.ascontiguousarray(z).reshape(-1).view(np.float64)
    a = levels[:, None] - x
    a *= a
    a -= np.min(a, axis=0)
    a *= -1.0 / sigma**2
    np.exp(a, out=a)
    num, den = np.stack([levels, np.ones_like(levels)]) @ a
    return (num / den).view(np.complex128).reshape(z.shape)


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
    err = z0 - posterior_mean(z, sigma, scheme)
    return float(np.mean(err.real**2 + err.imag**2))


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
