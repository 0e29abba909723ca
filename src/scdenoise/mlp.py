"""Minimal fully-connected network with hand-written reverse-mode gradients and Adam.

Kept deliberately small: tanh hidden layers, linear output. Layer l is one
(n_in + 1, n_out) matrix, `Mlp.layers[l]`: its weights, with its bias as the
last row, so `Mlp.weights[l]` and `Mlp.biases[l]` are views of it. Inside
`forward`, `backward` and inference the activations are feature-major,
(features + 1, rows) arrays whose last row is ones, so each layer is one
matrix product (its bias times that row of ones) and a tanh in place on the
product's contiguous rows, and backward gets each layer's weight and bias
gradient from one product more. `forward` and `backward` still take and
return (rows, features) arrays; only they transpose. Parameters and
checkpoints are float64. `forward`, `backward` and inference
(`Mlp.__call__`) compute in the dtype of the parameters, so a float32 copy
of a net (`Mlp.astype`) runs in float32; inference still returns float64.
The score network and the semantic decoder both build on it. They share its
checkpoint format (a version tag, the layer sizes, the arrays `w{i}`/`b{i}`
and one kind marker, a key and its string value, which `load_checkpoint`
checks) and its one training loop, `fit`: Adam on the mean squared error, at
beta1 = 0.9, beta2 = 0.999 and eps = 1e-8, with only the learning rate set.
`fit` trains in float32: the layer matrices of its float32 net are views of
one flat parameter vector, in layer order, `backward` writes the gradients
into views of one flat gradient vector laid out the same way, and one Adam
pass updates the whole vector in place. The net's own float64 arrays
receive the trained values when `fit` returns or raises. `fit` owns the
vectors, one `Workspace`, which every step's `forward` and `backward` reuse,
and one `AdamState`, so a steady-state step allocates no whole-batch array;
a call given no workspace allocates fresh arrays. Inference keeps its
activations in a workspace of the net's own, so repeated calls at one batch
size allocate only their result; a net is therefore not for inference from
two threads at once.
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
    tanh derivatives, the deltas and the layer gradients. A call reuses an
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

    def flat(self, key, shapes, dtype) -> np.ndarray:
        """A new flat array whose views, shaped `shapes` in turn, become the
        arrays kept under (key, 0), (key, 1), ...; a call that asks for one
        of them at its shape and dtype writes into the flat array."""
        flat = np.empty(sum(int(np.prod(s)) for s in shapes), dtype)
        for i, view in enumerate(_views(flat, shapes)):
            self._arrays[(key, i)] = view
        return flat


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of the 1-D array `flat`, shaped `shapes` in turn."""
    views, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


class Mlp:
    """Tanh MLP. Layer l is the matrix self.layers[l]; self.weights[l] and
    self.biases[l] are views of its first rows and its last row, and
    self.params lists all of those views."""

    def __init__(self, layer_sizes, rng: np.random.Generator | None = None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output layers")
        self.layer_sizes = [int(s) for s in layer_sizes]
        if min(self.layer_sizes) < 1:
            raise ValueError(f"layer widths must each be at least 1, got {self.layer_sizes}")
        layers = []
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            a = np.zeros((n_in + 1, n_out))
            if rng is not None:
                a[:-1] = rng.standard_normal((n_in, n_out)) / np.sqrt(n_in)
            layers.append(a)
        self.layers = layers

    @property
    def layers(self) -> list[np.ndarray]:
        return self._matrices

    @layers.setter
    def layers(self, layers) -> None:
        """Take `layers` as the net's matrices, with fresh weight and bias views."""
        self._matrices = list(layers)
        self.weights = [a[:-1] for a in self._matrices]
        self.biases = [a[-1] for a in self._matrices]
        self._scratch = Workspace()

    @property
    def params(self) -> list[np.ndarray]:
        return self.weights + self.biases

    def astype(self, dtype) -> Mlp:
        """A copy of the net with every parameter cast to `dtype`.

        A float64 value beyond the range of `dtype` becomes inf in the copy.
        """
        copy = Mlp(self.layer_sizes)
        copy.layers = [a.astype(dtype) for a in self.layers]
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
        dtype = self.layers[0].dtype
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
        rows, dtype = len(x), self.layers[0].dtype
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

    def backward(self, cache: Workspace, grad_out: np.ndarray):
        """Backpropagate d(loss)/d(output) through the forward pass in `cache`.

        Returns the parameter gradients, ordered like self.params and in
        their dtype, to which grad_out is cast; the gradient with respect to
        the input is not computed. Layer l's weight and bias gradients are
        views of one (n_in + 1, n_out) array, one matrix product of the
        feature-major layer input (whose row of ones gives the bias
        gradient) with the delta. These arrays, the deltas and the tanh
        derivatives are arrays of `cache`, so the next backward through the
        same workspace overwrites the gradients returned here. grad_out is
        read, never written.
        """
        acts = cache.acts
        n_layers = len(self.layers)
        dtype = self.layers[0].dtype
        grads = [cache.array(("grad", l), a.shape, dtype) for l, a in enumerate(self.layers)]
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
                w = self.weights[l]
                out = cache.array(("delta", l), (w.shape[0], delta.shape[1]), dtype)
                delta = np.matmul(w, delta, out=out)
        return [g[:-1] for g in grads] + [g[-1] for g in grads]

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in self.layers)


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
    like net.params. With `cache` the gradients are its arrays (see `forward`).
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
    Training runs on a float32 net whose layer matrices are views of one
    flat float32 vector, in layer order, cast from net.layers; the loss is
    float64, against the float64 target. `backward` writes the gradients
    into views of one flat float32 vector laid out the same way, and
    `adam_step` updates the parameter vector in place with it, so every
    step's arithmetic and every update is float32. When fit returns or
    raises, net.layers receive the trained float32 values in place, so net
    keeps its float64 arrays. A non-finite loss raises DivergenceError
    before its Adam step, leaving the parameters of the steps before it, and
    so do non-finite parameters after the last step. Overflow and invalid
    values in the steps raise no numpy warning: DivergenceError is the one
    report of them.
    """
    shapes = [a.shape for a in net.layers]
    cache = Workspace()
    grad = cache.flat("grad", shapes, np.float32)
    net32 = Mlp(net.layer_sizes)
    losses = np.empty(steps)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = np.concatenate([a.ravel() for a in net.layers], dtype=np.float32)
        net32.layers = _views(theta, shapes)
        state = AdamState([theta])
        try:
            for k in range(steps):
                losses[k], _ = squared_error(net32, *batch(k), cache)
                if not np.isfinite(losses[k]):
                    raise DivergenceError(f"non-finite loss at step {k}")
                adam_step([theta], [grad], state, float(lr(k)))
        finally:
            for a, view in zip(net.layers, net32.layers):
                np.copyto(a, view)
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
    for i, a in enumerate(net.layers):
        a[:-1], a[-1] = data[f"w{i}"], data[f"b{i}"]
    return net
