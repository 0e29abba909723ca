"""Minimal fully-connected network with hand-written reverse-mode gradients and Adam.

Kept deliberately small: tanh hidden layers, linear output. Parameters,
training and checkpoints are float64. Inference (`Mlp.__call__`) computes in
the dtype of the parameters, so a float32 copy of a trained net, such as the
one `score_model.model_score_fn` evaluates, runs in float32 and still returns
float64. The score network and the semantic decoder both build on it. They
share its checkpoint format (a version tag, the layer sizes, the arrays
`w{i}`/`b{i}` and one kind marker, a key and its string value, which
`load_checkpoint` checks) and its one training loop, `fit`: Adam
on the mean squared error, at beta1 = 0.9, beta2 = 0.999 and eps = 1e-8, with
only the learning rate set. `fit` owns one `Workspace`, which every step's `forward`
and `backward` reuse, and one `AdamState`, so a steady-state step allocates
no whole-batch array; a call given no workspace allocates fresh arrays.
`check_training` is the one check of a trainer's steps, batch size and rate.
"""

from __future__ import annotations

import zipfile

import numpy as np

from .errors import DivergenceError

__all__ = ["Mlp", "Workspace", "AdamState", "adam_step", "squared_error", "fit",
           "check_training", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_VERSION = 1

# Inference splits a batch so that one layer's activations for a block take
# about 64 KiB: BLOCK_ACTIVATIONS float64 values, or twice as many float32
# ones. Arrays that size stay on the malloc heap, below glibc's default
# 128 KiB mmap and trim thresholds, so repeated calls reuse the same memory.
# Whole-batch arrays of a few hundred KiB are handed back to the OS and
# page-faulted in again on the next call whenever they end up at the top of
# the heap, which depends on what else the process has allocated.
BLOCK_BYTES = 1 << 16
BLOCK_ACTIVATIONS = BLOCK_BYTES // 8


class Workspace:
    """The arrays of one forward and backward pass, kept by the caller.

    `Mlp.forward` stores the layer inputs and outputs in `acts` (acts[0] is
    the input, acts[l + 1] layer l's output) and `Mlp.backward` adds the tanh
    derivatives, the deltas and the parameter gradients. A call reuses an
    array only when it has the shape the call needs (same net, same batch
    size) and otherwise puts a new one in its place.
    """

    def __init__(self):
        self.acts: list[np.ndarray] = []
        self._arrays: dict = {}

    def array(self, key, shape) -> np.ndarray:
        """The array kept under `key`, replaced by a new one unless it has `shape`."""
        a = self._arrays.get(key)
        if a is None or a.shape != shape:
            a = self._arrays[key] = np.empty(shape)
        return a


class Mlp:
    """Tanh MLP. Parameters live in self.weights / self.biases (lists of arrays)."""

    def __init__(self, layer_sizes, rng: np.random.Generator | None = None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output layers")
        self.layer_sizes = [int(s) for s in layer_sizes]
        if min(self.layer_sizes) < 1:
            raise ValueError(f"layer widths must each be at least 1, got {self.layer_sizes}")
        self.weights = []
        self.biases = []
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            if rng is None:
                w = np.zeros((n_in, n_out))
            else:
                w = rng.standard_normal((n_in, n_out)) / np.sqrt(n_in)
            self.weights.append(w)
            self.biases.append(np.zeros(n_out))

    @property
    def params(self) -> list[np.ndarray]:
        return self.weights + self.biases

    def _layers(self, x: np.ndarray, cache: Workspace | None = None) -> np.ndarray:
        """Run x through every layer, writing each layer's output into `cache`
        and appending it to cache.acts when given. Each layer works in place
        on its matmul's output, so without `cache` only the current layer's
        array stays alive."""
        h = x
        last = len(self.weights) - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            out = None if cache is None else cache.array(("act", l), (len(x), w.shape[1]))
            h = np.matmul(h, w, out=out)
            h += b
            if l < last:
                np.tanh(h, out=h)
            if cache is not None:
                cache.acts.append(h)
        return h

    def forward(self, x: np.ndarray, cache: Workspace | None = None):
        """Returns (output, cache). x has shape (batch, n_in).

        Without `cache` the call allocates a new Workspace. Given one, such as
        `fit`'s, it writes into its arrays wherever the batch size is unchanged,
        overwriting the previous call's activations and output. The workspace
        keeps a reference to x, which backward reads.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        cache = Workspace() if cache is None else cache
        cache.acts = [x]
        return self._layers(x, cache), cache

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Inference: the output of `forward` without keeping its cache.

        x is cast to the parameters' dtype and every layer computes in it;
        the output is float64 either way. With float64 parameters that is
        `forward`'s arithmetic. Rows run in blocks of `rows` (BLOCK_BYTES over
        the bytes of the widest layer's row), the last block taking the
        remainder, between rows/2 and 3*rows/2 rows. Starting every block on a
        multiple of `rows` and never leaving a one-row tail (which numpy hands
        to gemv rather than gemm) keeps the output bit-identical to one
        unblocked pass, `forward`'s for float64, on the project's networks for
        batches up to a few thousand rows.
        """
        dtype = self.weights[0].dtype
        x = np.atleast_2d(np.asarray(x, dtype=dtype))
        rows = max(BLOCK_BYTES // (dtype.itemsize * max(self.layer_sizes)), 1)
        bounds = [k * rows for k in range(max(round(len(x) / rows), 1))] + [len(x)]
        return np.concatenate([self._layers(x[a:b]) for a, b in zip(bounds, bounds[1:])],
                              dtype=np.float64)

    def backward(self, cache: Workspace, grad_out: np.ndarray):
        """Backpropagate d(loss)/d(output) through the forward pass in `cache`.

        Returns the parameter gradients, ordered like self.params; the
        gradient with respect to the input is not computed. The gradients,
        deltas and tanh derivatives are arrays of `cache`, so the next
        backward through the same workspace overwrites the gradients returned
        here. grad_out is read, never written.
        """
        acts = cache.acts
        n_layers = len(self.weights)
        grads = [cache.array(("grad", i), p.shape) for i, p in enumerate(self.params)]
        delta = np.atleast_2d(np.asarray(grad_out, dtype=float))
        for l in range(n_layers - 1, -1, -1):
            if l < n_layers - 1:
                # undo the tanh: acts[l+1] is the post-activation value, and
                # delta is the workspace's own array, so it is scaled in place
                deriv = np.square(acts[l + 1], out=cache.array(("deriv", l), acts[l + 1].shape))
                np.subtract(1.0, deriv, out=deriv)
                delta *= deriv
            np.matmul(acts[l].T, delta, out=grads[l])
            np.sum(delta, axis=0, out=grads[n_layers + l])
            if l > 0:
                w = self.weights[l]
                out = cache.array(("delta", l), (len(delta), w.shape[0]))
                delta = np.matmul(delta, w.T, out=out)
        return grads

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(p)) for p in self.params)


class AdamState:
    """Adam's first/second moment accumulators for `params`, zero at step 0,
    and two scratch arrays per parameter that every `adam_step` overwrites."""

    def __init__(self, params):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t = 0


def adam_step(params, grads, state: AdamState, lr: float) -> None:
    """One standard Adam update with bias correction; mutates params and state.

    Each parameter p moves by (lr * mhat) / (sqrt(vhat) + eps), computed in
    the state's scratch arrays in that order of operations.
    """
    if len(params) != len(grads):
        raise ValueError("parameter/gradient count mismatch")
    b1, b2, eps = 0.9, 0.999, 1e-8
    state.t += 1
    for p, g, m, v, (s, r) in zip(params, grads, state.m, state.v, state.scratch):
        if p.shape != np.shape(g):
            raise ValueError("parameter/gradient shape mismatch")
        m *= b1
        m += np.multiply(1.0 - b1, g, out=s)
        v *= b2
        v += np.multiply(1.0 - b2, np.square(g, out=s), out=s)
        mhat = np.divide(m, 1.0 - b1**state.t, out=s)
        mhat *= lr
        vhat = np.sqrt(np.divide(v, 1.0 - b2**state.t, out=r), out=r)
        vhat += eps
        mhat /= vhat
        p -= mhat


def squared_error(net: Mlp, x: np.ndarray, target: np.ndarray,
                  cache: Workspace | None = None):
    """The mean over rows of |net(x) - target|^2 and its gradients, ordered
    like net.params. With `cache` the gradients are its arrays (see `forward`)."""
    out, cache = net.forward(x, cache)
    resid = out - target
    loss = float(np.mean(np.sum(resid**2, axis=-1)))
    return loss, net.backward(cache, (2.0 / len(resid)) * resid)


def fit(net: Mlp, steps: int, batch, lr) -> np.ndarray:
    """Minimize `squared_error` by Adam; returns the loss of every step.

    Step k trains on (x, target) = batch(k) at learning rate lr(k). A non-finite
    loss raises DivergenceError before its Adam step, as do non-finite
    parameters after the last step. Overflow and invalid values in the steps
    raise no numpy warning: DivergenceError is the one report of them.
    """
    state, cache = AdamState(net.params), Workspace()
    losses = np.empty(steps)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            losses[k], grads = squared_error(net, *batch(k), cache)
            if not np.isfinite(losses[k]):
                raise DivergenceError(f"non-finite loss at step {k}")
            adam_step(net.params, grads, state, lr(k))
    if not net.all_finite():
        raise DivergenceError("non-finite parameters after training")
    return losses


def check_training(steps: int, batch_size: int, learning_rate: float) -> None:
    """Raise ValueError unless steps and batch_size are at least 1 and
    learning_rate is finite and positive (NaN is neither)."""
    if not 0 < learning_rate < np.inf:
        raise ValueError(f"learning_rate must be finite and positive, got {learning_rate}")
    if batch_size < 1 or steps < 1:
        raise ValueError("batch_size and steps must each be at least 1")


def save_checkpoint(path: str, net: Mlp, key: str, kind: str) -> None:
    """Write `net` and its kind marker key=kind (e.g. head="mean") to an .npz file."""
    arrays = {f"w{i}": w for i, w in enumerate(net.weights)}
    arrays.update({f"b{i}": b for i, b in enumerate(net.biases)})
    np.savez(path, version=CHECKPOINT_VERSION, **{key: kind},
             layer_sizes=np.array(net.layer_sizes), **arrays)


def load_checkpoint(path: str, key: str, kind: str) -> Mlp:
    """Read the net of a checkpoint that `save_checkpoint` wrote with key=kind.

    Any other file raises ValueError: one that is not an .npz archive, one
    whose `key` is missing or is not `kind` (another kind of model), an
    unknown version, layer sizes that are not a 1-D integer array, and
    parameters that are not float64 arrays of the shapes the layer sizes give.
    """
    try:
        with open(path, "rb") as file:  # np.load leaves a path open when zipfile raises
            data = np.load(file, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError(f"{path} is an .npy array, not an .npz archive")
            return _read_checkpoint(path, data, key, kind)
    except (EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path} is not a readable .npz archive: {exc}") from exc


def _read_checkpoint(path: str, data, key: str, kind: str) -> Mlp:
    missing = [k for k in ("version", "layer_sizes", key) if k not in data.files]
    if missing:
        raise ValueError(f"{path} is not a checkpoint of this kind (no {', '.join(missing)})")
    if (found := str(data[key])) != kind:
        raise ValueError(f"{path}: {key} {found!r} is not {kind!r}")
    version, sizes = data["version"], data["layer_sizes"]
    if version.shape != () or version.dtype.kind not in "iu" or version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version.tolist()}")
    if sizes.ndim != 1 or sizes.dtype.kind not in "iu":
        raise ValueError(f"{path}: layer_sizes {sizes.tolist()} is not a 1-D integer array")
    sizes = sizes.tolist()
    shapes = {f"w{i}": pair for i, pair in enumerate(zip(sizes, sizes[1:]))}
    shapes.update({f"b{i}": (n,) for i, n in enumerate(sizes[1:])})
    for name, shape in shapes.items():  # checked before Mlp allocates anything
        if name not in data.files or data[name].shape != shape or data[name].dtype != float:
            raise ValueError(f"{path}: {name} is not a float64 array of shape {shape}")
    net = Mlp(sizes)
    net.weights = [data[f"w{i}"] for i in range(len(sizes) - 1)]
    net.biases = [data[f"b{i}"] for i in range(len(sizes) - 1)]
    return net
