"""Small dense networks with explicit forward/backward passes.

Plain numpy, no autodiff: ``forward`` returns the output plus a cache of
layer inputs, pre-activations and hidden-layer slopes (``cache=False``
keeps none of them when only the output is wanted), ``backward``
consumes the cache and an output-side gradient and produces parameter
gradients plus the gradient with respect to the network input
(``param_grads=False`` skips the parameter gradients when only the input
gradient is wanted).  Hidden layers use leaky ReLU; the final layer is
affine (losses apply their own link).

``leaky_relu`` computes the activation without a branch: each hidden
layer's slope ``s`` is exactly 1.0 where ``z >= 0`` and exactly ``leak``
elsewhere (``leak + (1 - leak)`` rounds to 1.0 for every leak in [0, 1],
the only leaks a net accepts), so ``z * s`` equals
``np.where(z >= 0, z, leak * z)`` bit for bit, signed zeros, infinities
and nans included.  ``backward`` multiplies by the cached slopes instead
of recomputing them.

Parameters are exposed as the flat list ``[W0, b0, W1, b1, ...]`` by
``parameters``; gradients from ``backward`` and the moment lists in
``AdamState`` follow the same order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass
class DenseNet:
    weights: list    # [np.ndarray (fan_out, fan_in), ...]
    biases: list     # [np.ndarray (fan_out,), ...]
    leak: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.leak <= 1.0:
            raise ValueError(f"leak must be in [0, 1], got {self.leak}")

    @property
    def sizes(self) -> list:
        """Layer widths, input first."""
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]


@dataclass
class ForwardCache:
    """What ``backward`` needs from a ``forward`` call."""
    inputs: list     # input to each layer (post-activation of the previous one)
    preacts: list    # affine outputs z of each layer
    slopes: list     # leaky-ReLU slope (1.0 or leak) of each hidden layer


@dataclass
class AdamState:
    lr: float = 1e-4
    beta1: float = 0.5
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def init_dense(sizes, rng: np.random.Generator, leak: float = 0.2) -> DenseNet:
    """Glorot-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases."""
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"sizes needs >= 2 positive entries, got {sizes}")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return DenseNet(weights, biases, leak)


def parameters(net: DenseNet) -> list:
    """Parameter arrays in update order: [W0, b0, W1, b1, ...]."""
    out = []
    for w, b in zip(net.weights, net.biases):
        out.extend((w, b))
    return out


def forward(net: DenseNet, x: np.ndarray, cache: bool = True):
    """Run a (n, fan_in) batch through the net.

    Returns ``(out, cache)`` with ``out`` of shape (n, fan_out_last).
    With ``cache=False`` no layer arrays are kept for ``backward`` (a
    caller that only wants the output holds one layer at a time) and the
    returned cache is ``None``; ``out`` is the same either way.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.weights[0].shape[1]:
        raise ValueError(
            f"expected batch of shape (n, {net.weights[0].shape[1]}), got {x.shape}")
    kept = ForwardCache([], [], []) if cache else None
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w.T
        z += b
        if kept is not None:
            kept.inputs.append(h)
            kept.preacts.append(z)
        if i == last:
            h = z
        else:
            h, s = leaky_relu(z, net.leak)
            if kept is not None:
                kept.slopes.append(s)
    return h, kept


def leaky_relu(z: np.ndarray, leak: float):
    """``(h, s)``: the leaky ReLU of ``z`` and its slope, without a branch.

    ``s`` is exactly 1.0 where ``z >= 0`` and exactly ``leak`` elsewhere,
    and ``h = z * s`` equals ``np.where(z >= 0, z, leak * z)`` bit for
    bit, for any leak in [0, 1].
    """
    s = (z >= 0.0).astype(np.float64)
    s *= 1.0 - leak
    s += leak
    return z * s, s


def backward(net: DenseNet, cache: ForwardCache, out_grad: np.ndarray,
             param_grads: bool = True):
    """Backpropagate ``out_grad`` (same shape as the forward output).

    Returns ``(grads, x_grad)`` where ``grads`` aligns with
    ``parameters(net)`` and ``x_grad`` is the gradient at the input.
    With ``param_grads=False`` the parameter gradients are not computed
    and ``grads`` is ``None``; ``x_grad`` is the same either way.
    Raises ``ValueError`` on a cache that does not match the net or an
    out_grad that does not match the cached batch.
    """
    n_layers = len(net.weights)
    if (len(cache.inputs) != n_layers or len(cache.preacts) != n_layers
            or len(cache.slopes) != n_layers - 1):
        raise ValueError("cache does not match this net (wrong number of layers)")
    out_grad = np.asarray(out_grad, dtype=np.float64)
    expected = (cache.inputs[0].shape[0], net.weights[-1].shape[0])
    if out_grad.shape != expected:
        raise ValueError(f"out_grad shape {out_grad.shape}, expected {expected}")
    for i, (w, h) in enumerate(zip(net.weights, cache.inputs)):
        if h.shape[1] != w.shape[1] or cache.preacts[i].shape[1] != w.shape[0]:
            raise ValueError(f"cache layer {i} does not match this net")

    grads = [None] * (2 * n_layers) if param_grads else None
    delta = out_grad
    for i in range(n_layers - 1, -1, -1):
        if param_grads:
            grads[2 * i] = delta.T @ cache.inputs[i]
            grads[2 * i + 1] = delta.sum(axis=0)
        x_grad = delta @ net.weights[i]
        if i > 0:
            x_grad *= cache.slopes[i - 1]
            delta = x_grad
    return grads, x_grad


def adam_step(net: DenseNet, grads: list, state: AdamState) -> None:
    """One bias-corrected Adam update, in place.

    update = lr * m_hat / (sqrt(v_hat) + eps); zero gradients leave the
    parameters unchanged while still advancing the step counter.
    """
    params = parameters(net)
    if len(grads) != len(params):
        raise ValueError(f"got {len(grads)} gradients for {len(params)} parameters")
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        # two scratch arrays, same operation order as the textbook
        # m = b1 m + ((1-b1) g); v = b2 v + ((1-b2) g) g;
        # p -= (lr (m / bc1)) / (sqrt(v / bc2) + eps)
        step = np.multiply(g, 1.0 - b1)
        m *= b1
        m += step
        np.multiply(g, 1.0 - b2, out=step)
        step *= g
        v *= b2
        v += step
        denom = np.divide(v, bc2)
        np.sqrt(denom, out=denom)
        denom += state.eps
        np.divide(m, bc1, out=step)
        step *= state.lr
        step /= denom
        p -= step


def cond_input(y: np.ndarray, t, t_norm: int, out: np.ndarray = None) -> np.ndarray:
    """Append the scalar level feature t / t_norm as an extra column.

    ``t`` is a scalar or one level per row.  With ``out`` (a float64
    array of shape (n, d + 1), for instance a row slice of a larger
    batch) the result is written there and ``out`` is returned.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError(f"expected a 2-d batch, got shape {y.shape}")
    if t_norm < 1:
        raise ValueError(f"t_norm must be >= 1, got {t_norm}")
    shape = (y.shape[0], y.shape[1] + 1)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}, "
                         f"got {out.dtype} {out.shape}")
    out[:, :-1] = y
    out[:, -1] = np.asarray(t, dtype=np.float64) / t_norm
    return out


def save_net(net: DenseNet, path) -> None:
    """Checkpoint to JSON (floats round-trip exactly via repr)."""
    doc = {
        "leak": net.leak,
        "sizes": net.sizes,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_net(path) -> DenseNet:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    weights = [np.asarray(w, dtype=np.float64) for w in doc["weights"]]
    biases = [np.asarray(b, dtype=np.float64) for b in doc["biases"]]
    net = DenseNet(weights, biases, float(doc["leak"]))
    if net.sizes != list(doc["sizes"]):
        raise ValueError(f"checkpoint sizes {doc['sizes']} do not match arrays {net.sizes}")
    return net
