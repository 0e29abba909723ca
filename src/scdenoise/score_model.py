"""Per-symbol score network trained as a posterior-mean denoiser.

The network D is a small tanh MLP over the features (z_re, z_im, log sigma);
conditioning on log sigma (rather than a step index) lets one model serve any
schedule over the same sigma range. D(z, sigma) predicts the clean symbol
E[z0 | z], which stays bounded near the constellation hull and so
extrapolates well at small sigma. The score follows by Tweedie's formula,
s = (2/sigma^2) * (D - z), the way `oracle.mixture_score` follows from
`oracle.posterior_mean`.

Training regresses D onto z0. That is denoising score matching: with weight
sigma^4/4, the penalty on s against the conditional score
-2 (z_i - z0) / sigma^2 equals |D - z0|^2 exactly (Vincent, 2011).

The network's parameters are one float64 vector, `Mlp.theta`, whose views
`Mlp.layers` are its layer matrices, and checkpoints are float64; training
and the sampler compute in float32. `train_score` trains through `mlp.fit`,
which trains a float32 copy of theta, Adam updates included, and writes it
into the network's theta at the end. The sampler interface,
`model_score_fn`, evaluates D on a float32 copy of the network, so its scores
match float64 `forward_score` up to float32 rounding. The network's features
are built feature-major, one contiguous row each for Re z, Im z and log
sigma, and handed to it as their (n, 3) transpose, so its first layer copies
them without a strided read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import NoiseSchedule, check_sigma, complex_noise, stream_rng
from .constellation import ConstellationScheme
from .errors import DivergenceError
from .mlp import Mlp, check_training, fit, load_checkpoint, save_checkpoint, squared_error
from .oracle import mixture_score

__all__ = [
    "MlpScoreModel",
    "DsmConfig",
    "forward_score",
    "model_score_fn",
    "dsm_loss",
    "train_score",
    "save_model",
    "load_model",
    "relative_score_error",
    "EVAL_SIGMAS",
]

EVAL_SIGMAS = (0.05, 0.3, 1.0, 3.0, 8.0)


@dataclass
class MlpScoreModel:
    """A score network: a tanh MLP predicting the posterior mean E[z0 | z]."""

    net: Mlp

    def __post_init__(self):
        if self.net.layer_sizes[0] != 3 or self.net.layer_sizes[-1] != 2:
            raise ValueError("score net must map 3 features to 2 outputs")


@dataclass
class DsmConfig:
    """Score-network training configuration: regression of D onto z0."""

    schedule: NoiseSchedule
    hidden: tuple[int, ...] = (64, 64)
    head: str = "mean"  # kept only because the benchmark workloads pass it
    batch_size: int = 256
    learning_rate: float = 5e-3  # peak rate, cosine-decayed to 1% of it
    steps: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.head != "mean":
            raise ValueError(f"unknown score head {self.head!r}; only 'mean' exists")
        check_training(self.steps, self.batch_size, self.learning_rate)


def _features(z: np.ndarray, log_sigma) -> tuple[np.ndarray, np.ndarray]:
    """Network inputs (re, im, log sigma), one row per symbol of the raveled z,
    and z's (re, im) pairs as an (n, 2) float64 view; z is copied only when it
    is not already a contiguous complex128 array. log_sigma is a scalar or has
    the raveled z's shape. The inputs are the (n, 3) transpose of a
    contiguous (3, n) array, the feature-major layout the network's first
    layer reads."""
    zf = np.ascontiguousarray(z, dtype=np.complex128).reshape(-1).view(np.float64).reshape(-1, 2)
    feats = np.empty((3, zf.shape[0]))
    feats[:2] = zf.T
    feats[2] = log_sigma
    return feats.T, zf


def forward_score(model: MlpScoreModel, z: np.ndarray, sigma: float) -> np.ndarray:
    """Evaluate the learned score at (z, sigma) for one scalar sigma, as the
    sampler calls it; shape-preserving over z. A non-scalar sigma, and one
    that fails `channel.check_sigma`, raise ValueError."""
    if np.ndim(sigma) != 0:
        raise ValueError(f"sigma must be a scalar, got shape {np.shape(sigma)}")
    check_sigma(sigma)
    sig = np.float64(sigma)
    feats, zf = _features(z, np.log(sig))
    raw = model.net(feats)  # D(z, sigma) as (re, im) pairs
    raw -= zf
    raw *= 2.0 / (sig * sig)
    return raw.view(np.complex128).reshape(np.shape(z))


def model_score_fn(model: MlpScoreModel):
    """Adapt a trained model to the (z, sigma) -> score sampler interface.

    The adapter evaluates `forward_score` on a float32 copy of model.net
    (`Mlp.astype`), taken once, here: model.net stays float64 and untouched,
    and later changes to it do not reach the adapter. Checkpoints stay
    float64; this inference runs in float32, which moves a score by about
    float32 rounding and costs about 40% of a float64 pass. A finite parameter
    beyond float32's range raises ValueError rather than becoming inf in the
    copy.
    """
    with np.errstate(over="ignore"):
        net32 = model.net.astype(np.float32)
    if np.any(np.isinf(net32.theta) & np.isfinite(model.net.theta)):
        raise ValueError("score model has a finite parameter beyond float32's range "
                         f"(magnitude above {np.finfo(np.float32).max:.4g})")
    snapshot = MlpScoreModel(net=net32)

    def score(z: np.ndarray, sigma: float) -> np.ndarray:
        return forward_score(snapshot, z, sigma)

    return score


def _dsm_batch(z0_batch: np.ndarray, sched: NoiseSchedule, rng: np.random.Generator):
    """Inputs at z_i = z0 + sigma_i * eps, level i uniform on {1..N} per symbol,
    and the regression target: z0 as (re, im) pairs."""
    z0 = np.asarray(z0_batch, dtype=np.complex128).ravel()
    if z0.size == 0:
        raise ValueError("empty batch")
    levels = rng.integers(1, sched.n_steps + 1, size=z0.size)
    sigma = sched.sigmas[levels - 1]
    zi = z0 + sigma * complex_noise(rng, z0.size)
    return _features(zi, np.log(sigma))[0], z0.view(np.float64).reshape(-1, 2)


def dsm_loss(model: MlpScoreModel, z0_batch: np.ndarray, sched: NoiseSchedule,
             rng: np.random.Generator):
    """One DSM minibatch as `train_score` draws it: (mean loss, exact gradients)."""
    return squared_error(model.net, *_dsm_batch(z0_batch, sched, rng))


def train_score(scheme: ConstellationScheme, config: DsmConfig):
    """Train a score model on uniform random symbols; returns (model, loss per step)."""
    rng = stream_rng(config.seed, 0)
    net = Mlp([3, *config.hidden, 2], rng=rng)

    def batch(step):
        idx = rng.integers(0, scheme.order, size=config.batch_size)
        return _dsm_batch(scheme.points[idx], config.schedule, rng)

    def lr(step):
        # cosine decay; the 1% floor keeps the final error stable across seeds
        rate = config.learning_rate * 0.5 * (1.0 + np.cos(np.pi * step / config.steps))
        return max(rate, config.learning_rate * 0.01)

    return MlpScoreModel(net=net), fit(net, config.steps, batch, lr)


def save_model(path: str, model: MlpScoreModel) -> None:
    # head="mean" marks a score checkpoint; earlier files carry it too
    save_checkpoint(path, model.net, "head", "mean")


def load_model(path: str) -> MlpScoreModel:
    return MlpScoreModel(net=load_checkpoint(path, "head", "mean"))


def relative_score_error(score_fn, scheme: ConstellationScheme) -> float:
    """Aggregate relative L2 distance to the exact mixture score.

    sqrt( sum |s_fn - s_exact|^2 / sum |s_exact|^2 ) over a 25 x 25 grid on
    [-3, 3]^2 at each sigma in EVAL_SIGMAS. A non-finite result (a diverged
    score) raises DivergenceError, and no numpy warning.
    """
    axis = np.linspace(-3.0, 3.0, 25)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    z = (re + 1j * im).ravel()
    num = 0.0
    den = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for sigma in EVAL_SIGMAS:
            exact = mixture_score(z, sigma, scheme)
            approx = score_fn(z, sigma)
            num += float(np.sum(np.abs(approx - exact) ** 2))
            den += float(np.sum(np.abs(exact) ** 2))
        rel = float(np.sqrt(num / den))
    if not np.isfinite(rel):
        raise DivergenceError(f"non-finite relative score error {rel}")
    return rel
