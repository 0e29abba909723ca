"""Per-symbol score network trained by denoising score matching.

The network is a small tanh MLP over the features (z_re, z_im, log sigma);
conditioning on log sigma (rather than a step index) lets one model serve any
schedule over the same sigma range. Two output parameterizations are
supported:

  * "noise": score = (sqrt(2)/sigma) * net(...). The raw output regresses the
    (unit-variance) scaled noise, the textbook VE setup.
  * "mean": score = (2/sigma^2) * (net(...) - z). The raw output is the
    predicted posterior mean, which stays bounded near the constellation hull
    and therefore extrapolates far better at small sigma. This is the default.

Both parameterizations share the same DSM minimizer (the exact mixture score);
they differ only in conditioning of the regression problem.
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
    """A score network: a tanh MLP core plus the output parameterization."""

    net: Mlp
    head: str = "mean"

    def __post_init__(self):
        if self.head not in ("mean", "noise"):
            raise ValueError(f"unknown score head {self.head!r}")
        if self.net.layer_sizes[0] != 3 or self.net.layer_sizes[-1] != 2:
            raise ValueError("score net must map 3 features to 2 outputs")


@dataclass
class DsmConfig:
    """Denoising-score-matching training configuration."""

    schedule: NoiseSchedule
    hidden: tuple[int, ...] = (64, 64)
    head: str = "mean"
    batch_size: int = 256
    learning_rate: float = 1e-4  # peak rate, cosine-decayed to 1% of it
    steps: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


def _features(z: np.ndarray, sigma) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128).ravel()
    logs = np.broadcast_to(np.log(np.asarray(sigma, dtype=float)), z.shape)
    return np.stack([z.real, z.imag, logs], axis=-1)


def _raw_to_score(raw: np.ndarray, z: np.ndarray, sigma, head: str) -> np.ndarray:
    out = raw[..., 0] + 1j * raw[..., 1]
    if head == "noise":
        return (np.sqrt(2.0) / sigma) * out
    return (2.0 / sigma**2) * (out - z)


def forward_score(model: MlpScoreModel, z: np.ndarray, sigma) -> np.ndarray:
    """Evaluate the learned score at (z, sigma); shape-preserving over z."""
    z = np.asarray(z, dtype=np.complex128)
    raw = model.net(_features(z, sigma))
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), z.shape).ravel()
    s = _raw_to_score(raw, z.ravel(), sig, model.head)
    return s.reshape(z.shape)


def model_score_fn(model: MlpScoreModel):
    """Adapt a trained model to the (z, sigma) -> score sampler interface."""

    def score(z: np.ndarray, sigma: float) -> np.ndarray:
        return forward_score(model, z, sigma)

    return score


def _dsm_weight(sigma: np.ndarray, head: str) -> np.ndarray:
    # Keeps the per-sample loss (and its gradients) O(1) across the whole
    # sigma grid for either head; both choices are valid positive weightings
    # of the same objective.
    if head == "noise":
        return sigma**2 / 2.0
    return sigma**4 / 4.0


def dsm_loss(
    model: MlpScoreModel,
    z0_batch: np.ndarray,
    sched: NoiseSchedule,
    rng: np.random.Generator,
):
    """One DSM minibatch: corrupt, regress onto the conditional score.

    Each sample draws a level i uniformly from {1..N}, corrupts z0 to
    z_i = z0 + sigma_i * eps, and is penalized
    lambda(sigma_i) * || s_theta(z_i, sigma_i) + 2 (z_i - z0) / sigma_i^2 ||^2
    over the two real dimensions. Returns (mean loss, exact gradients).
    """
    z0 = np.asarray(z0_batch, dtype=np.complex128).ravel()
    if z0.size == 0:
        raise ValueError("empty batch")
    n = z0.size
    levels = rng.integers(1, sched.n_steps + 1, size=n)
    sigma = sched.sigmas[levels - 1]
    zi = z0 + sigma * complex_noise(rng, n)
    target = -2.0 * (zi - z0) / sigma**2

    raw, cache = model.net.forward(_features(zi, sigma))
    s = _raw_to_score(raw, zi, sigma, model.head)
    resid = s - target
    lam = _dsm_weight(sigma, model.head)
    loss = float(np.mean(lam * np.abs(resid) ** 2))

    # d loss / d s, then chain through the head scaling to the raw output
    ds = (2.0 / n) * lam * resid
    scale = np.sqrt(2.0) / sigma if model.head == "noise" else 2.0 / sigma**2
    draw = np.stack([ds.real * scale, ds.imag * scale], axis=-1)
    grads, _ = model.net.backward(cache, draw)
    return loss, grads


def train_score(scheme: ConstellationScheme, config: DsmConfig):
    """Train a score model on uniform random constellation symbols.

    Returns (model, loss_trace) where loss_trace is one float per step.
    """
    rng = stream_rng(config.seed, 0)
    net = Mlp([3, *config.hidden, 2], rng=rng)
    model = MlpScoreModel(net=net, head=config.head)
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
    save_checkpoint(path, model.net, head=model.head)


def load_model(path: str) -> MlpScoreModel:
    net, head = load_checkpoint(path, "head")
    return MlpScoreModel(net=net, head=head)


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
