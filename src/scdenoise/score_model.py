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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import NoiseSchedule, complex_noise, stream_rng
from .constellation import ConstellationScheme
from .errors import DivergenceError
from .mlp import AdamState, Mlp, adam_step, load_checkpoint, save_checkpoint
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
    learning_rate: float = 1e-4  # peak rate, cosine-decayed to 1% of it
    steps: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.head != "mean":
            raise ValueError(f"unknown score head {self.head!r}; only 'mean' exists")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


def _features(z: np.ndarray, sigma) -> np.ndarray:
    """Network inputs (re, im, log sigma), one row per symbol of the raveled z;
    sigma is a scalar or already has the raveled z's shape."""
    z = np.asarray(z, dtype=np.complex128).ravel()
    logs = np.broadcast_to(np.log(np.asarray(sigma, dtype=float)), z.shape)
    return np.stack([z.real, z.imag, logs], axis=-1)


def forward_score(model: MlpScoreModel, z: np.ndarray, sigma) -> np.ndarray:
    """Evaluate the learned score at (z, sigma); shape-preserving over z, with
    sigma a scalar or any array that broadcasts to z's shape."""
    z = np.asarray(z, dtype=np.complex128)
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), z.shape).ravel()
    raw = model.net(_features(z, sig))
    s = (2.0 / sig**2) * (raw[..., 0] + 1j * raw[..., 1] - z.ravel())
    return s.reshape(z.shape)


def model_score_fn(model: MlpScoreModel):
    """Adapt a trained model to the (z, sigma) -> score sampler interface."""

    def score(z: np.ndarray, sigma: float) -> np.ndarray:
        return forward_score(model, z, sigma)

    return score


def dsm_loss(
    model: MlpScoreModel,
    z0_batch: np.ndarray,
    sched: NoiseSchedule,
    rng: np.random.Generator,
):
    """One DSM minibatch: corrupt z0, regress the denoiser back onto it.

    Each sample draws a level i uniformly from {1..N}, corrupts z0 to
    z_i = z0 + sigma_i * eps, and is penalized |D(z_i, sigma_i) - z0|^2 over
    the two real dimensions. This is the DSM penalty
    (sigma_i^4 / 4) * || s_theta(z_i, sigma_i) + 2 (z_i - z0) / sigma_i^2 ||^2
    with s_theta = (2 / sigma_i^2) (D - z_i). Returns (mean loss, exact
    gradients).
    """
    z0 = np.asarray(z0_batch, dtype=np.complex128).ravel()
    if z0.size == 0:
        raise ValueError("empty batch")
    n = z0.size
    levels = rng.integers(1, sched.n_steps + 1, size=n)
    sigma = sched.sigmas[levels - 1]
    zi = z0 + sigma * complex_noise(rng, n)

    raw, cache = model.net.forward(_features(zi, sigma))
    resid = raw - np.stack([z0.real, z0.imag], axis=-1)
    loss = float(np.mean(np.sum(resid**2, axis=-1)))
    grads, _ = model.net.backward(cache, (2.0 / n) * resid)
    return loss, grads


def train_score(scheme: ConstellationScheme, config: DsmConfig):
    """Train a score model on uniform random constellation symbols.

    Returns (model, loss_trace) where loss_trace is one float per step.
    """
    rng = stream_rng(config.seed, 0)
    net = Mlp([3, *config.hidden, 2], rng=rng)
    model = MlpScoreModel(net=net)
    state = AdamState.for_params(net.params)
    trace = np.empty(config.steps)
    for step in range(config.steps):
        idx = rng.integers(0, scheme.order, size=config.batch_size)
        z0 = scheme.points[idx]
        loss, grads = dsm_loss(model, z0, config.schedule, rng)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite DSM loss at step {step}")
        # The 1% floor keeps the final error stable across seeds.
        lr = config.learning_rate * 0.5 * (1.0 + np.cos(np.pi * step / config.steps))
        adam_step(net.params, grads, state, lr=max(lr, config.learning_rate * 0.01))
        trace[step] = loss
    if not net.all_finite():
        raise DivergenceError("non-finite parameters after training")
    return model, trace


def save_model(path: str, model: MlpScoreModel) -> None:
    # head="mean" marks a score checkpoint; earlier files carry it too
    save_checkpoint(path, model.net, head="mean")


def load_model(path: str) -> MlpScoreModel:
    net, head = load_checkpoint(path, "head")
    if head != "mean":
        raise ValueError(f"{path}: score head {head!r} is no longer supported")
    return MlpScoreModel(net=net)


def save_loss_trace(path: str, trace) -> None:
    with open(path, "w") as fh:
        fh.write("step,loss\n")
        for step, loss in enumerate(trace):
            fh.write(f"{step},{loss:.12g}\n")


def relative_score_error(
    score_fn,
    scheme: ConstellationScheme,
    sigmas=EVAL_SIGMAS,
    lo: float = -3.0,
    hi: float = 3.0,
    n_grid: int = 25,
) -> float:
    """Aggregate relative L2 distance to the exact mixture score.

    sqrt( sum |s_fn - s_exact|^2 / sum |s_exact|^2 ) over the full
    (grid x sigma) evaluation set.
    """
    axis = np.linspace(lo, hi, n_grid)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    z = (re + 1j * im).ravel()
    num = 0.0
    den = 0.0
    for sigma in sigmas:
        exact = mixture_score(z, float(sigma), scheme)
        approx = score_fn(z, float(sigma))
        num += float(np.sum(np.abs(approx - exact) ** 2))
        den += float(np.sum(np.abs(exact) ** 2))
    return float(np.sqrt(num / den))
