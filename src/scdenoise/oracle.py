"""Exact score, log-density, posterior mean and MMSE floor under Gaussian noise.

With a uniform prior over the M constellation points and CN(0, sigma^2) noise,
the noisy marginal per symbol is the Gaussian mixture

    p_sigma(z) = (1/M) sum_m (1 / (pi sigma^2)) exp(-|z - z_m|^2 / sigma^2),

which admits closed forms for the MMSE posterior mean E[z0 | z] (the
posterior-weighted mean of the points) and the score (gradient of log p w.r.t.
the real coordinates). The score is derived from the posterior mean by
Tweedie's formula, score = (2/sigma^2) (E[z0 | z] - z), so both share one
pass over the posterior weights. Symbols are i.i.d., so the sequence-level
score is the per-symbol score applied elementwise.

Every scheme's points are the product grid of its real levels with its
imaginary levels (`scheme.axis_levels`; BPSK is the 2 x 1 grid
{-1, 1} x {0}), so the uniform prior and the isotropic noise both factor
over the real and imaginary axes, and so does the posterior. Each
coordinate is a 1-D mixture of its axis levels under N(0, sigma^2 / 2)
noise: the posterior mean is the softmax-weighted mean of the levels, and
the log-density a sum of two 1-D log-sum-exps, in real arithmetic with no
(..., M) temporary. `posterior_mean` splits z by axis through
`ConstellationScheme.per_axis`: 2 sqrt(M) real components per symbol
instead of M complex ones.

The per-axis softmax clamps its shifted log-weights at _EXP_FLOOR = -700
before the exponential. The nearest level's weight is exactly 1, so the
normalizer is at least 1 and a weight of at most e^-700 (about 1e-304) cannot
change it; it changes the weighted sum only where that sum is below about
1e-287 in magnitude, as at a point exactly between symmetric levels. The
clamp keeps numpy's vectorized exp on its fast path, which it leaves for
arguments below about -708, where the results are 0 or subnormal. With numpy
2.4 on a 2-core x86 host, an exp over 32k elements took 30-40 us on the fast
path, 0.1-0.6 ms when the results were 0 and about 4 ms when they were
subnormal; at sigma <= 0.05 on 64-QAM most weights are that small.

The MMSE floor E|z0 - E[z0|z]|^2 is an integral over the noise, computed
deterministically by Gauss-Hermite quadrature through the same per-axis
code: one 1-D floor per axis, L levels times K nodes each.
"""

from __future__ import annotations

import functools

import numpy as np

from .channel import check_sigma
from .constellation import ConstellationScheme

__all__ = [
    "log_density",
    "mixture_score",
    "posterior_mean",
    "mmse_bound",
    "oracle_score_fn",
]

# Gauss-Hermite order K of the MMSE floor, chosen by measurement against a
# dense trapezoid reference (CHANGES.md); numpy's hermgauss overflows above
# about 370.
_HERMITE_ORDER = 320

# Lower clamp on the per-axis log-weights before np.exp (module docstring).
_EXP_FLOOR = -700.0


def log_density(z: np.ndarray, sigma: float, scheme: ConstellationScheme) -> np.ndarray:
    """log p_sigma(z) per symbol: the sum over the two axes of the 1-D
    log-density log((1/L) sum_l N(x; l, sigma^2 / 2)), by log-sum-exp."""
    check_sigma(sigma)
    z = np.asarray(z, dtype=np.complex128)
    out = -np.log(np.pi * sigma**2)
    for x, levels in zip((z.real.ravel(), z.imag.ravel()), scheme.axis_levels):
        a = -((levels[:, None] - x) ** 2) / sigma**2
        amax = np.max(a, axis=0)
        out = out + amax + np.log(np.mean(np.exp(a - amax), axis=0))
    return out.reshape(z.shape)


def mixture_score(z: np.ndarray, sigma: float, scheme: ConstellationScheme) -> np.ndarray:
    """Exact score as a complex (re, im) pair, by Tweedie's formula:
    (2/sigma^2) (E[z0 | z] - z) = (2/sigma^2) sum_m w_m(z) (z_m - z)."""
    z = np.asarray(z, dtype=np.complex128)
    mean = posterior_mean(z, sigma, scheme)
    return (2.0 / sigma**2) * (mean - z)


def posterior_mean(z: np.ndarray, sigma: float, scheme: ConstellationScheme) -> np.ndarray:
    """MMSE estimate E[z0 | z]: the posterior-weighted mean of the points,
    computed per axis. `mixture_score` is computed from it (Tweedie's formula).
    """
    check_sigma(sigma)
    z = np.asarray(z, dtype=np.complex128)
    mean = scheme.per_axis(lambda x, levels: _axis_mean(x, sigma, levels), z)
    return mean.view(np.complex128).reshape(z.shape)


def _axis_mean(x: np.ndarray, sigma: float, levels: np.ndarray) -> np.ndarray:
    """Posterior mean of one axis level given the real coordinates x (1-D),
    under N(0, sigma^2 / 2) noise per axis."""
    # levels-first: an (L, N) array of -(l_k - x)^2 / sigma^2, so the softmax
    # shift is L - 1 elementwise minimums over whole rows, and the weighted
    # sum and the normalizer come from one (2, L) @ (L, N) matmul
    a = levels[:, None] - x
    a *= a
    a -= np.min(a, axis=0)
    a *= -1.0 / sigma**2
    np.maximum(a, _EXP_FLOOR, out=a)
    np.exp(a, out=a)
    num, den = np.stack([levels, np.ones_like(levels)]) @ a
    return num / den


@functools.cache
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights w with sum_i w_i f(t_i) ~ E[f(t)], t ~ N(0, 1/2):
    the Gauss-Hermite rule of order _HERMITE_ORDER, weights over sqrt(pi).

    Nodes whose weight is below 1e-30 are dropped (190 of 320): together they
    hold 3e-31 of the weight, and a squared error is at most (2 max|z_m|)^2,
    9.4 on 64-QAM, so a floor moves by less than 3e-30 while each per-axis
    floor evaluates 2.5 times fewer nodes. Built on first use, not at import,
    which it would slow by about 15 ms.
    """
    from numpy.polynomial.hermite import hermgauss

    t, w = hermgauss(_HERMITE_ORDER)
    w /= np.sqrt(np.pi)
    keep = w > 1e-30
    t, w = t[keep], w[keep]
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def mmse_bound(sigma: float, scheme: ConstellationScheme) -> float:
    """Per-symbol MMSE floor E|z0 - E[z0|z]|^2, by Gauss-Hermite quadrature.

    The noise is N(0, sigma^2/2) on each axis and the posterior factors, so
    the floor is a sum over the two axes of the mean over that axis' levels
    l_k of sum_i w_i (l_k - E[l | x_i])^2 at x_i = l_k + sigma t_i; an axis
    with a single level (BPSK's imaginary axis) adds exactly 0.
    Deterministic. Accurate to 1e-6 relative or better while sigma >= d / 4
    for nearest points d apart (1e-10 over the default 64-QAM sweep); at
    higher SNR the nodes no longer resolve the sigma^2 / d wide
    decision-boundary transitions and the relative error grows (4e-6 at
    sigma = d / 5 on 64-QAM), while the absolute error stays below 1e-8.
    """
    check_sigma(sigma)
    t, w = _hermite_rule()
    total = 0.0
    for levels in scheme.axis_levels:
        x = levels[:, None] + sigma * t
        err = levels[:, None] - _axis_mean(x.ravel(), sigma, levels).reshape(x.shape)
        total += float(np.mean((err * err) @ w))
    return total


def oracle_score_fn(scheme: ConstellationScheme):
    """The exact score as a (z, sigma) -> score callable for the sampler."""

    def score(z: np.ndarray, sigma: float) -> np.ndarray:
        return mixture_score(z, sigma, scheme)

    return score
