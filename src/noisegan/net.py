"""Small dense networks with explicit forward/backward passes.

Plain numpy, no autodiff: ``forward`` returns the output plus a cache of
layer inputs and pre-activations (``cache=False`` keeps neither when
only the output is wanted), ``backward`` consumes the cache and an
output-side gradient and produces parameter gradients plus the gradient
with respect to the network input (``param_grads=False`` skips the
parameter gradients when only the input gradient is wanted).  Hidden
layers use leaky ReLU; the final layer is affine (losses apply their
own link).

Every hidden layer's slope below zero is ``LEAK`` = 0.2.  Every forward
takes the activation one way, without a branch: ``maximum(z, LEAK * z)``
equals ``np.where(z >= 0, z, LEAK * z)`` bit for bit (``LEAK * z`` is
``z`` scaled towards zero; where they tie both carry the same bits, and
a nan ``z`` gives a nan ``LEAK * z`` with its bits).  ``backward``
rebuilds each hidden layer's slope from its cached pre-activation:
exactly 1.0 where ``z >= 0`` and exactly ``LEAK`` elsewhere.  Not from
the layer's output: at ``z = -5e-324``, ``LEAK * z`` underflows to
``-0.0``, an output that reads ``>= 0`` though the slope is ``LEAK``.

A cache-free ``forward`` also takes a stack of batches (..., n,
fan_in), and ``forward_from`` finishes one from a layer's
pre-activation.  ``h @ w.T`` on a stack is NumPy's stacked matmul,
which makes one gemm per copy with the same operands, strides and
shape as the 2-d call on that copy, and the remaining operations are
elementwise, so each copy's output is bit for bit its own 2-d
forward's.  (Folding the copies into the rows of one taller batch is
not: BLAS may block a taller batch differently and round otherwise.)

A cache-free forward bounds its working set.  It runs the rows in
blocks of 2048 (``_BLOCK``) to 4095 rows, the short tail joining the
block before it, so any n < 4096 (every training step) is one pass, and
writes the blocks into one output.  Each hidden layer is activated in
place, ``maximum(z, LEAK * z, out=z)``, once the previous layer's array
is dropped: two block-sized arrays at a time.  Only arrays the forward
allocated are written, never ``x`` or ``forward_from``'s ``z``.  That a
block's rows round as they do in the whole batch is up to BLAS: on
OpenBLAS 0.3.31 (Haswell, one thread) they matched bit for bit at hidden
16-200 in blocks of about 800 rows or more, but not in blocks of 476 or
fewer, nor of one row; hence the floor of 2048, which the benchmark's
sample digests check.

Each net keeps all its parameters in one contiguous float64 vector
``net.flat``, laid out ``W0, b0, W1, b1, ...`` (each weight row-major);
``net.weights[i]`` and ``net.biases[i]`` are views into it, and the
two tuples cannot be rebound.  ``param_views(net, vec)`` splits any
vector with this layout into per-array views, and ``parameters(net)`` is
``param_views(net, net.flat)``.  ``backward`` returns its parameter
gradients as one fresh vector with the same layout, ``AdamState`` keeps
its moments as flat vectors too, so ``adam_step`` is one pass of the
textbook operations over the whole net.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


_BOUND = ("weights", "biases", "flat")   # DenseNet attributes that view flat

LEAK = 0.2      # slope of every hidden layer's leaky ReLU below zero
_BLOCK = 2048   # fewest rows in a block of a cache-free forward
BETA2 = 0.999   # Adam's second-moment decay
EPS = 1e-8      # Adam's denominator guard


@dataclass
class DenseNet:
    """A dense net whose parameters live in the one vector ``flat``.

    The arrays passed in are copied into ``flat``; afterwards
    ``weights`` and ``biases`` are tuples of views into it, and
    rebinding ``weights``, ``biases`` or ``flat`` raises
    ``AttributeError`` (write into the arrays instead).
    """

    weights: tuple   # (np.ndarray (fan_out, fan_in), ...) views into flat
    biases: tuple    # (np.ndarray (fan_out,), ...) views into flat
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        if not weights or len(weights) != len(biases):
            raise ValueError(f"need one bias per weight and at least one layer, "
                             f"got {len(weights)} weights, {len(biases)} biases")
        params = []
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} "
                                 f"do not form a (fan_out, fan_in), (fan_out,) pair")
            if i and w.shape[1] != weights[i - 1].shape[0]:
                raise ValueError(f"layer {i} takes {w.shape[1]} inputs, "
                                 f"layer {i - 1} gives {weights[i - 1].shape[0]}")
            params += (w, b)
        layout, start = [], 0
        for p in params:
            layout.append((start, start + p.size, p.shape))
            start += p.size
        flat = np.concatenate([p.ravel() for p in params])
        views = _views(layout, flat)
        self._layout = tuple(layout)
        self.weights = tuple(views[0::2])
        self.biases = tuple(views[1::2])
        self.flat = flat    # last: from here on the three are bound for good

    def __setattr__(self, name, value):
        if name in _BOUND and "flat" in self.__dict__:
            raise AttributeError(f"DenseNet.{name} views net.flat and cannot be "
                                 f"rebound; assign into the arrays instead")
        object.__setattr__(self, name, value)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__, so the copy
        # gets its own flat vector with fresh views into it
        return (DenseNet, (list(self.weights), list(self.biases)))

    @property
    def sizes(self) -> list:
        """Layer widths, input first."""
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]


@dataclass
class ForwardCache:
    """What ``backward`` needs from a ``forward`` call."""
    inputs: list     # input to each layer (post-activation of the previous one)
    preacts: list    # affine outputs z of each layer


@dataclass
class AdamState:
    """Adam settings and moments; ``m`` and ``v`` are flat vectors laid out
    like ``net.flat`` (``None`` until the first step)."""

    lr: float
    beta1: float
    step: int = 0
    m: np.ndarray = None
    v: np.ndarray = None
    # two scratch vectors of the same size, reused by every step
    _work: tuple = field(default=None, repr=False, compare=False)


def init_dense(sizes, rng: np.random.Generator) -> DenseNet:
    """Glorot-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases."""
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"sizes needs >= 2 positive entries, got {sizes}")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return DenseNet(weights, biases)


def _views(layout, vec: np.ndarray) -> list:
    """Views of ``vec`` cut by a layout of ``(start, stop, shape)`` triples."""
    return [vec[a:b].reshape(shape) for a, b, shape in layout]


def param_views(net: DenseNet, vec: np.ndarray) -> list:
    """Per-array views of ``vec``, a vector laid out like ``net.flat``:
    ``[W0, b0, W1, b1, ...]``, each of its parameter's shape.  Writing
    into a view writes into ``vec``."""
    if vec.shape != net.flat.shape:
        raise ValueError(f"vector of shape {vec.shape} does not match the "
                         f"net's {net.flat.shape}")
    return _views(net._layout, vec)


def parameters(net: DenseNet) -> list:
    """Parameter arrays in update order: [W0, b0, W1, b1, ...], as views
    into ``net.flat``."""
    return param_views(net, net.flat)


def forward(net: DenseNet, x: np.ndarray, cache: bool = True):
    """Run a (n, fan_in) batch through the net.

    Returns ``(out, cache)`` with ``out`` of shape (n, fan_out_last).
    With ``cache=False`` no layer arrays are kept for ``backward`` (the
    rows run in blocks, see the module docstring) and the returned cache
    is ``None``; ``out`` is the same either way.  Only a cache-free
    forward takes a stack of batches (..., n, fan_in); each copy's output
    is bit for bit its own 2-d forward's.  ``x`` is never written.
    """
    x = np.asarray(x, dtype=np.float64)
    fan_in = net.weights[0].shape[1]
    if x.ndim < 2 or (cache and x.ndim != 2) or x.shape[-1] != fan_in:
        raise ValueError(f"expected batch of shape (n, {fan_in})"
                         + ("" if cache else f" or (..., n, {fan_in})")
                         + f", got {x.shape}")
    if not cache:
        return _blocks(net, x, -1), None
    kept = ForwardCache([], [])
    return _layers(net, x, 0, kept), kept


def forward_from(net: DenseNet, layer: int, z: np.ndarray) -> np.ndarray:
    """The output of a cache-free ``forward`` in which layer ``layer``
    has the pre-activation ``z`` ((n, fan_out) or a stack (..., n,
    fan_out) of that layer): its activation, then the layers after it.

    A caller that already holds a layer's input and changes only that
    layer's parameters runs just the rest of the net; the output is bit
    for bit that of ``forward(net, x, cache=False)`` on the input that
    leads to ``z``, which is never written.
    """
    return z if layer == len(net.weights) - 1 else _blocks(net, z, layer)


def _blocks(net: DenseNet, x: np.ndarray, layer: int) -> np.ndarray:
    """The cache-free forward after ``layer``, whose pre-activation is
    ``x`` (layer -1: ``x`` is the net's input), block by block."""
    n = x.shape[-2]
    starts = range(0, n - _BLOCK + 1, _BLOCK)
    if len(starts) < 2:     # one pass: every batch of fewer than 2 * _BLOCK rows
        return _layers(net, x if layer < 0 else _hidden(x), layer + 1, None)
    out = np.empty(x.shape[:-2] + (n, net.weights[-1].shape[0]))
    for lo, hi in zip(starts, [*starts[1:], n]):
        out[..., lo:hi, :] = _blocks(net, x[..., lo:hi, :], layer)   # one pass each
    return out


def _layers(net: DenseNet, h: np.ndarray, start: int, kept):
    """Layers ``start``.. of the net on ``h``; appends to ``kept`` if
    given, and otherwise activates each layer in place."""
    last = len(net.weights) - 1
    for i in range(start, last + 1):
        z = h @ net.weights[i].T
        z += net.biases[i]
        if kept is not None:
            kept.inputs.append(h)
            kept.preacts.append(z)
        h = z       # drops the previous layer's array before the activation
        if i < last:
            h = _hidden(z) if kept is not None else np.maximum(z, z * LEAK, out=z)
    return h


def _hidden(z: np.ndarray) -> np.ndarray:
    """A hidden layer's leaky ReLU, into a fresh array."""
    h = z * LEAK
    np.maximum(z, h, out=h)
    return h


def backward(net: DenseNet, cache: ForwardCache, out_grad: np.ndarray,
             param_grads: bool = True):
    """Backpropagate ``out_grad`` (same shape as the forward output).

    Returns ``(grads, x_grad)`` where ``grads`` is one fresh vector
    laid out like ``net.flat`` (``param_views(net, grads)`` splits it per
    parameter) and ``x_grad`` is the gradient at the input.
    With ``param_grads=False`` the parameter gradients are not computed
    and ``grads`` is ``None``; ``x_grad`` is the same either way.
    Raises ``ValueError`` on a cache that does not match the net or an
    out_grad that does not match the cached batch.
    """
    n_layers = len(net.weights)
    if len(cache.inputs) != n_layers or len(cache.preacts) != n_layers:
        raise ValueError("cache does not match this net (wrong number of layers)")
    out_grad = np.asarray(out_grad, dtype=np.float64)
    expected = (cache.inputs[0].shape[0], net.weights[-1].shape[0])
    if out_grad.shape != expected:
        raise ValueError(f"out_grad shape {out_grad.shape}, expected {expected}")
    for i, (w, h) in enumerate(zip(net.weights, cache.inputs)):
        if h.shape[1] != w.shape[1] or cache.preacts[i].shape[1] != w.shape[0]:
            raise ValueError(f"cache layer {i} does not match this net")

    grads = None
    if param_grads:
        grads = np.empty(net.flat.size)
        views = _views(net._layout, grads)
    delta = out_grad
    for i in range(n_layers - 1, -1, -1):
        if param_grads:
            np.matmul(delta.T, cache.inputs[i], out=views[2 * i])
            np.add.reduce(delta, axis=0, out=views[2 * i + 1])
        delta = delta @ net.weights[i]
        if i > 0:
            # the slope of layer i - 1's activation: 1.0 or LEAK
            s = (cache.preacts[i - 1] >= 0.0).astype(np.float64)
            s *= 1.0 - LEAK
            s += LEAK
            delta *= s
    return grads, delta


def adam_step(net: DenseNet, grads: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of ``net.flat``, in place.

    ``grads`` is a vector laid out like ``net.flat``, as ``backward``
    returns it.  update = lr * m_hat / (sqrt(v_hat) + EPS); zero
    gradients leave the parameters unchanged while still advancing the
    step counter.
    """
    p = net.flat
    if getattr(grads, "shape", None) != p.shape:
        raise ValueError(f"gradient vector of shape {getattr(grads, 'shape', None)} "
                         f"does not match the net's {p.shape}")
    if state.m is None:
        state.m = np.zeros_like(p)
        state.v = np.zeros_like(p)
        state._work = (np.empty_like(p), np.empty_like(p))
    elif state.m.shape != p.shape:
        raise ValueError(f"Adam moments of shape {state.m.shape} belong to "
                         f"another net than this {p.shape}")
    state.step += 1
    b1, b2 = state.beta1, BETA2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    m, v, g = state.m, state.v, grads
    step, denom = state._work
    # same operation order as the textbook, over the whole net at once:
    # m = b1 m + ((1-b1) g); v = b2 v + ((1-b2) g) g;
    # p -= (lr (m / bc1)) / (sqrt(v / bc2) + EPS)
    np.multiply(g, 1.0 - b1, out=step)
    m *= b1
    m += step
    np.multiply(g, 1.0 - b2, out=step)
    step *= g
    v *= b2
    v += step
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPS
    np.divide(m, bc1, out=step)
    step *= state.lr
    step /= denom
    p -= step


def cond_input(y: np.ndarray, t, t_norm: int, out: np.ndarray = None) -> np.ndarray:
    """Append the scalar level feature t / t_norm as an extra column.

    ``y`` is an (n, d) batch or a stack (..., n, d) of them; ``t`` is a
    scalar or one level per row, shape (n,), shared by every copy of a
    stack.  With ``out`` (a float64 array of ``y``'s shape with d + 1
    columns, for instance a row slice of a larger batch) the result is
    written there and ``out`` is returned.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim < 2:
        raise ValueError(f"expected a 2-d batch or a stack of them, got shape {y.shape}")
    if t_norm < 1:
        raise ValueError(f"t_norm must be >= 1, got {t_norm}")
    shape = y.shape[:-1] + (y.shape[-1] + 1,)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}, "
                         f"got {out.dtype} {out.shape}")
    out[..., :-1] = y
    out[..., -1] = np.asarray(t, dtype=np.float64) / t_norm
    return out


def save_net(net: DenseNet, path) -> None:
    """Checkpoint to JSON (floats round-trip exactly via repr)."""
    doc = {
        "leak": LEAK,
        "sizes": net.sizes,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_net(path) -> DenseNet:
    """Read a ``save_net`` checkpoint; its leak must be ``LEAK``."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["leak"] != LEAK:
        raise ValueError(f"checkpoint leak {doc['leak']!r} is not {LEAK}")
    weights = [np.asarray(w, dtype=np.float64) for w in doc["weights"]]
    biases = [np.asarray(b, dtype=np.float64) for b in doc["biases"]]
    net = DenseNet(weights, biases)
    if net.sizes != list(doc["sizes"]):
        raise ValueError(f"checkpoint sizes {doc['sizes']} do not match arrays {net.sizes}")
    return net
