"""Minimal fully-connected network with hand-written reverse-mode gradients and Adam.

Kept deliberately small: tanh hidden layers, linear output. A net's
parameters are one contiguous 1-D vector, `Mlp.theta`, in their dtype.
Layer l is `Mlp.layers[l]`, the (n_in + 1, n_out) view of theta that holds
the layer's weights with its bias as the last row; the layers lie in theta
in layer order. Inside `forward`, `backward` and inference the activations
are feature-major, (features + 1, rows) arrays whose last row is ones, so
each layer is one matrix product (its bias times that row of ones) and a
tanh in place on the product's contiguous rows, and backward gets each
layer's gradient from one product more, into the view of one gradient
vector laid out like theta. `forward` and `backward` still take and return
(rows, features) arrays; only they transpose. Parameters and checkpoints
are float64. `forward`, `backward` and inference (`Mlp.__call__`) compute
in theta's dtype, so a float32 copy of a net (`Mlp.astype`) runs in
float32; inference still returns float64.
The score network and the semantic decoder both build on it. They share its
checkpoint format (a version tag, the layer sizes, the arrays `w{i}`/`b{i}`
and one kind marker, a key and its string value, which `load_checkpoint`
checks) and its one training loop, `fit`: Adam on the mean squared error, at
beta1 = 0.9, beta2 = 0.999 and eps = 1e-8, with only the learning rate set.
`fit` trains a float32 copy of the net: one Adam pass per step updates its
theta in place with the gradient vector, and the net's own theta receives
the trained values when `fit` returns or raises. `fit` owns one
`Workspace`, which every step's `forward` and `backward` reuse, and one
`AdamState`, so a steady-state step allocates no whole-batch array; a call
given no workspace allocates fresh arrays. Inference keeps its activations
in a workspace of the net's own, so repeated calls at one batch size
allocate only their result; a net is therefore not for inference from two
threads at once.
`check_training` is the one check of a trainer's steps, batch size and rate.
"""

from __future__ import annotations

import zipfile

import numpy as np

from .errors import DivergenceError

__all__ = ["Mlp", "Workspace", "AdamState", "adam_step", "squared_error", "fit",
           "check_training", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_VERSION = 1

# Inference splits a batch into column blocks so that one layer's
# activations for a block, (widest layer + 1) rows in the parameters' dtype,
# take about BLOCK_BYTES. Within a block each layer is one product: a 64-wide
# float32 net runs the sampler's 512-symbol batches as one block (up to 1008
# columns). Much larger blocks are slower again, as the activations leave
# the cache: a 128-wide float32 net on 2048 rows runs as four 508-column
# blocks, faster than in 1008- or 254-column blocks.
BLOCK_BYTES = 1 << 18


class Workspace:
    """The arrays of one forward and backward pass, kept by the caller.

    `Mlp.forward` stores the feature-major layer inputs and outputs in
    `acts` (acts[0] is the input, acts[l + 1] layer l's output; every one
    but the net's output has a last row of ones) and `Mlp.backward` adds the
    tanh derivatives, the deltas and the gradient vector. A call reuses an
    array only when it has the shape the call needs (same net, same batch
    size, same dtype) and otherwise puts a new one in its place. Every net
    also keeps one for its inference blocks.
    """

    def __init__(self):
        self.acts: list[np.ndarray] = []
        self._arrays: dict = {}

    def array(self, key, shape, dtype) -> np.ndarray:
        """The array kept under `key`, replaced by a new one unless it has
        `shape` and `dtype`."""
        a = self._arrays.get(key)
        if a is None or a.shape != shape or a.dtype != dtype:
            a = self._arrays[key] = np.empty(shape, dtype)
        return a


class Mlp:
    """Tanh MLP. Its parameters are the 1-D vector self.theta, and layer l
    is self.layers[l], the (n_in + 1, n_out) view of theta that holds its
    weights over its bias row."""

    def __init__(self, layer_sizes, rng: np.random.Generator | None = None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output layers")
        self.layer_sizes = [int(s) for s in layer_sizes]
        if min(self.layer_sizes) < 1:
            raise ValueError(f"layer widths must each be at least 1, got {self.layer_sizes}")
        # each layer's slice of theta and its matrix shape, computed once
        # here: `_split` uses them on every backward
        self._layout, start = [], 0
        for n_in, n_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            size = (n_in + 1) * n_out
            self._layout.append((slice(start, start + size), (n_in + 1, n_out)))
            start += size
        self._bind(np.zeros(start))
        if rng is not None:
            for a, n_in in zip(self.layers, self.layer_sizes):
                a[:-1] = rng.standard_normal((n_in, a.shape[1])) / np.sqrt(n_in)

    def _bind(self, theta: np.ndarray) -> None:
        """Make the 1-D `theta` the net's parameters and `layers` its views."""
        self.theta = theta
        self.layers = self._split(theta)
        self._scratch = Workspace()

    def _split(self, vector: np.ndarray) -> list[np.ndarray]:
        """The layer matrices of a 1-D vector laid out like theta, as views."""
        return [vector[s].reshape(shape) for s, shape in self._layout]

    @property
    def params(self) -> list[np.ndarray]:
        # kept only because the benchmark workloads digest it
        return [self.theta]

    def astype(self, dtype) -> Mlp:
        """A copy of the net with theta cast to `dtype`.

        A float64 value beyond the range of `dtype` becomes inf in the copy.
        """
        copy = Mlp(self.layer_sizes)
        copy._bind(self.theta.astype(dtype))
        return copy

    def _shapes(self, x: np.ndarray, rows: int) -> list[tuple[int, int]]:
        """The feature-major activation shapes of a pass of `rows` rows of x:
        the input and each hidden layer's output, each with a last row of
        ones, then the output. The input's width is x's, so that a
        mismatched x fails in the first product."""
        *hidden, last = self.layer_sizes[1:]
        return [(x.shape[1] + 1, rows)] + [(n + 1, rows) for n in hidden] + [(last, rows)]

    def _layers(self, x: np.ndarray, acts: list[np.ndarray]) -> np.ndarray:
        """Run the (rows, n_in) x through every layer, in the feature-major
        arrays `acts` of `_shapes`; returns acts[-1]. x, cast to the arrays'
        dtype, goes into acts[0] above its row of ones. Layer l is one matrix
        product with its (n_in + 1, n_out) matrix, the bias multiplying the
        row of ones, written into the rows of acts[l + 1] above its own row
        of ones, and a hidden layer's tanh works in place on them."""
        acts[0][:-1] = x.T
        for h in acts[:-1]:
            h[-1] = 1.0
        *hidden, last = self.layers
        for a, h, z in zip(hidden, acts, acts[1:]):
            z = np.matmul(a.T, h, out=z[:-1])
            np.tanh(z, out=z)
        return np.matmul(last.T, acts[-2], out=acts[-1])

    def forward(self, x: np.ndarray, cache: Workspace | None = None):
        """Returns (output, cache). x has shape (batch, n_in).

        x is cast to the parameters' dtype, and the output and the cached
        activations are in it; the output is a (batch, n_out) view of the
        workspace's feature-major output. Without `cache` the call allocates
        a new Workspace. Given one, such as `fit`'s, it writes into its
        arrays wherever the batch size is unchanged, overwriting the previous
        call's activations and output. x itself is copied into the
        workspace's feature-major input, which backward reads.
        """
        x = np.atleast_2d(x)
        cache = Workspace() if cache is None else cache
        dtype = self.theta.dtype
        cache.acts = [cache.array(("act", l), shape, dtype)
                      for l, shape in enumerate(self._shapes(x, len(x)))]
        return self._layers(x, cache.acts).T, cache

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Inference: the output of `forward` without keeping its cache.

        x is cast to the parameters' dtype and every layer computes in it;
        the output is float64 either way. With float64 parameters that is
        `forward`'s arithmetic. Rows run as column blocks of the feature-major
        activations, `cols` columns each (BLOCK_BYTES over the bytes of the
        widest layer's column, its width + 1 values), the last block taking
        the remainder, between cols/2 and 3*cols/2 columns. Each block's
        output goes straight into the float64 result, a new array. The
        activations are arrays of the net's own workspace, one set for the
        full blocks and one for the last, which the next call of the same
        batch size writes into again. Starting every block on a multiple of
        `cols` and never leaving a one-column tail (which numpy hands to gemv
        rather than gemm) keeps the output bit-identical to one unblocked
        pass, `forward`'s for float64, on the project's networks for batches
        up to a few thousand rows.
        """
        x = np.atleast_2d(x)
        rows, dtype = len(x), self.theta.dtype
        cols = max(BLOCK_BYTES // (dtype.itemsize * (max(self.layer_sizes) + 1)), 1)
        blocks = max(round(rows / cols), 1)
        out = np.empty((rows, self.layer_sizes[-1]))
        for k in range(blocks):
            last = k == blocks - 1
            a, b = k * cols, rows if last else (k + 1) * cols
            acts = [self._scratch.array((last, l), shape, dtype)
                    for l, shape in enumerate(self._shapes(x, b - a))]
            out[a:b].T[...] = self._layers(x[a:b], acts)
        return out

    def backward(self, cache: Workspace, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate d(loss)/d(output) through the forward pass in `cache`.

        Returns the gradient with respect to theta: one vector laid out like
        theta and in its dtype, to which grad_out is cast; the gradient with
        respect to the input is not computed. Layer l's gradient is one
        matrix product of the feature-major layer input (whose row of ones
        gives the bias gradient) with the delta, written into the layer's
        view of the vector. The vector, the deltas and the tanh derivatives
        are arrays of `cache`, so the next backward through the same
        workspace overwrites the gradient returned here. grad_out is read,
        never written.
        """
        acts = cache.acts
        n_layers = len(self.layers)
        dtype = self.theta.dtype
        grad = cache.array("grad", self.theta.shape, dtype)
        grads = self._split(grad)
        delta = np.atleast_2d(np.asarray(grad_out, dtype=dtype)).T
        for l in range(n_layers - 1, -1, -1):
            if l < n_layers - 1:
                # undo the tanh: acts[l+1] holds the post-activation values
                # above its row of ones, and delta is the workspace's own
                # array, so it is scaled in place
                h = acts[l + 1][:-1]
                deriv = np.square(h, out=cache.array(("deriv", l), h.shape, dtype))
                np.subtract(1.0, deriv, out=deriv)
                delta *= deriv
            np.matmul(acts[l], delta.T, out=grads[l])
            if l > 0:
                w = self.layers[l][:-1]
                out = cache.array(("delta", l), (w.shape[0], delta.shape[1]), dtype)
                delta = np.matmul(w, delta, out=out)
        return grad


class AdamState:
    """Adam's first/second moment accumulators for one parameter array, zero
    at step 0, and two scratch arrays that every `adam_step` overwrites."""

    def __init__(self, theta: np.ndarray):
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self.scratch = (np.empty_like(theta), np.empty_like(theta))
        self.t = 0


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """One standard Adam update with bias correction; mutates theta and state.

    theta moves by (lr * mhat) / (sqrt(vhat) + eps), computed in the state's
    scratch arrays in that order of operations.
    """
    if theta.shape != np.shape(grad):
        raise ValueError("parameter/gradient shape mismatch")
    b1, b2, eps = 0.9, 0.999, 1e-8
    state.t += 1
    m, v, (s, r) = state.m, state.v, state.scratch
    m *= b1
    m += np.multiply(1.0 - b1, grad, out=s)
    v *= b2
    v += np.multiply(1.0 - b2, np.square(grad, out=s), out=s)
    mhat = np.divide(m, 1.0 - b1**state.t, out=s)
    mhat *= lr
    vhat = np.sqrt(np.divide(v, 1.0 - b2**state.t, out=r), out=r)
    vhat += eps
    mhat /= vhat
    theta -= mhat


def squared_error(net: Mlp, x: np.ndarray, target: np.ndarray,
                  cache: Workspace | None = None):
    """The mean over rows of |net(x) - target|^2 and its gradient with
    respect to net.theta, the vector of `backward`, which with `cache` is
    that workspace's array.
    The net's output is in its parameters' dtype, and the residual and the
    loss are in the wider of that and target's dtype; the gradient of the
    loss with respect to the output, (2/n) * residual, is computed in the
    residual's dtype and stored in a workspace array of the output's."""
    out, cache = net.forward(x, cache)
    resid = out - target
    loss = float(np.mean(np.sum(resid**2, axis=-1)))
    grad_out = np.multiply(2.0 / len(resid), resid,
                           out=cache.array("grad_out", resid.shape, out.dtype))
    return loss, net.backward(cache, grad_out)


def fit(net: Mlp, steps: int, batch, lr) -> np.ndarray:
    """Minimize `squared_error` by Adam; returns the loss of every step.

    Step k trains on (x, target) = batch(k) at learning rate float(lr(k)).
    Training runs on a float32 copy of the net; the loss is float64, against
    the float64 target. Each step's gradient vector updates the copy's
    theta in place by one `adam_step`, so every step's arithmetic and every
    update is float32. When fit returns or raises, net.theta receives the
    trained float32 values in place, so net keeps its float64 vector. A
    non-finite loss raises DivergenceError before its Adam step, leaving the
    parameters of the steps before it, and so do non-finite parameters after
    the last step. Overflow and invalid values in the steps raise no numpy
    warning: DivergenceError is the one report of them.
    """
    cache = Workspace()
    losses = np.empty(steps)
    with np.errstate(over="ignore", invalid="ignore"):
        net32 = net.astype(np.float32)
        state = AdamState(net32.theta)
        try:
            for k in range(steps):
                losses[k], grad = squared_error(net32, *batch(k), cache)
                if not np.isfinite(losses[k]):
                    raise DivergenceError(f"non-finite loss at step {k}")
                adam_step(net32.theta, grad, state, float(lr(k)))
        finally:
            np.copyto(net.theta, net32.theta)
    if not np.isfinite(net.theta).all():
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
    arrays = {f"w{i}": a[:-1] for i, a in enumerate(net.layers)}
    arrays.update({f"b{i}": a[-1] for i, a in enumerate(net.layers)})
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
    for i, a in enumerate(net.layers):
        a[:-1], a[-1] = data[f"w{i}"], data[f"b{i}"]
    return net
