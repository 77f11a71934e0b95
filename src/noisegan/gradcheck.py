"""Central finite-difference verification of the hand-written gradients.

Two kinds of check:

* isolated — a random net, a random input batch and a random output
  coefficient matrix R; the scalar is sum(R * forward(x)) so its exact
  gradient is backward(cache, R);
* path — the trainer's own generator objective and gradient
  (``trainer.generator_loss`` and ``trainer.generator_grads``, the code
  of the training step's phase II): latents through the generator, the
  noising map at level t, the level feature, the discriminator and
  softplus, differentiated with respect to the generator parameters.

The analytic side is ``backward``'s flat gradient vector, and the
finite differences index the same coordinates of ``net.flat``.  They
run in stacked passes (``fd_stacked``).  The coordinates are grouped by
parameter array, and a pass holds up to ``_COPIES`` copies of that one
array, each nudged by +h or -h at one coordinate.  The layer's input
comes from the forward cache the check already holds, so a pass
computes ``input @ swapaxes(stack, -1, -2)`` for a weight or
``input @ W.T + stack`` for a bias, then runs the layers after it and
the objective once on the whole stack, one loss per copy.  The input
gradient's differences stack nudged copies of the input batch the same
way.  ``net.flat`` and the input batch are only read.

Each copy's loss is bit for bit the loss that nudging ``net.flat`` in
place and rerunning the 2-d pass gives (the tests keep that loop as the
reference).  NumPy's stacked matmul makes one gemm per copy, on the same
operands and strides as the 2-d call; everything else is elementwise;
and each copy's loss reduces one contiguous row, in the same order as
the 2-d reduction.  So every error reported is the same number either
way, and the stack only shares the Python overhead of an evaluation.

FD validity near the leaky-ReLU kink is handled by redrawing inputs
until every pre-activation in play clears a margin much larger than any
shift a +-h parameter nudge can cause; the margin is a property of the
check, not of the gradients.  Relative error is
``|a - f| / max(|a|, |f|, 1)`` so exact-zero coordinates compare
absolutely instead of dividing FD noise by itself.  A suite passes when
its isolated errors are at most ``ISOLATED_BOUND`` and its path errors
at most ``PATH_BOUND``.
"""

from __future__ import annotations

import numpy as np

from . import trainer
from .net import DenseNet, backward, forward, forward_from, parameters
from .schedule import DiffusionSchedule

_MARGIN = 5e-4
_MAX_REDRAW = 200
_BATCH = 8          # rows of a check's batch
_PER_LAYER = 64     # coordinates audited per parameter array
_SCALE = 0.5        # a random net's parameters are uniform in [-_SCALE, _SCALE]
# Nudged copies per stacked pass, two per coordinate.  On the A5 suite
# with one BLAS thread, 8, 16 and 32 copies took 2.2, 2.1 and 1.8 s
# (6.9 s one coordinate at a time) and raised peak memory by 1.5, 2.7 and
# 5.4 MB; 16 keeps that within a tenth of a 46 MB process.
_COPIES = 16

ISOLATED_BOUND = 1e-6
PATH_BOUND = 1e-5

GEN_SIZES = [2, 128, 128, 2]
DISC_SIZES = [3, 128, 128, 1]
SMALL_SIZES = ([2, 8, 8, 1], [3, 8, 8, 1], [2, 16, 2])


def random_net(sizes, rng: np.random.Generator) -> DenseNet:
    """Net with every parameter uniform in [-_SCALE, _SCALE]."""
    weights = [rng.uniform(-_SCALE, _SCALE, (o, i))
               for i, o in zip(sizes[:-1], sizes[1:])]
    biases = [rng.uniform(-_SCALE, _SCALE, o) for o in sizes[1:]]
    return DenseNet(weights, biases)


def rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1.0)
    return float(np.max(np.abs(analytic - fd) / denom)) if analytic.size else 0.0


def pick_coords(net: DenseNet, rng: np.random.Generator, per_layer: int):
    """A deterministic spread of parameter-vector indices, some per array."""
    coords = []
    offset = 0
    for p in parameters(net):
        take = min(p.size, per_layer)
        idx = rng.permutation(p.size)[:take] if take < p.size else np.arange(p.size)
        coords.extend(offset + int(i) for i in idx)
        offset += p.size
    return sorted(coords)


def _central(losses_of, base: np.ndarray, idx, h: float) -> np.ndarray:
    """Central differences along the entries ``idx`` of ``base.ravel()``.

    ``losses_of`` maps a stack (k, *base.shape) of copies of ``base`` to
    k losses.  A pass holds up to ``_COPIES`` copies, a (+h, -h) pair
    per entry; one stack serves every pass, and ``base`` is only read.
    """
    idx = np.asarray(idx, dtype=np.intp)
    out = np.empty(idx.size)
    if not idx.size:
        return out
    stack = np.empty((min(_COPIES, 2 * idx.size),) + base.shape)
    stack[...] = base
    rows = stack.reshape(len(stack), -1)
    pairs = len(stack) // 2
    for a in range(0, idx.size, pairs):
        cs = idx[a:a + pairs]
        k = 2 * cs.size
        up, down = np.arange(0, k, 2), np.arange(1, k, 2)
        keep = base.ravel()[cs]
        rows[up, cs] = keep + h
        rows[down, cs] = keep - h
        losses = losses_of(stack[:k])
        rows[up, cs] = keep
        rows[down, cs] = keep
        out[a:a + cs.size] = (losses[0::2] - losses[1::2]) / (2.0 * h)
    return out


def _losses_of_nudged(objective, net: DenseNet, j: int, x: np.ndarray):
    """Losses of a stack of copies of ``parameters(net)[j]`` (the weight
    or bias of layer j // 2, whose input is ``x``), each in place of the
    net's own array."""
    layer = j // 2
    if j % 2 == 0:
        b = net.biases[layer]

        def losses_of(ws):
            z = x @ np.swapaxes(ws, -1, -2)
            z += b
            return objective(forward_from(net, layer, z))
    else:
        xw = x @ net.weights[layer].T

        def losses_of(bs):
            return objective(forward_from(net, layer, xw + bs[:, None, :]))
    return losses_of


def fd_stacked(objective, net: DenseNet, inputs, coords, h: float = 1e-5) -> np.ndarray:
    """Central differences along the given coordinates of ``net.flat``,
    bit for bit those of nudging ``net.flat`` in place one at a time.

    ``objective`` maps the net's output, an (n, d) batch or a stack
    (k, n, d) of them, to its loss: a float, or one loss per copy.
    ``inputs`` holds each layer's input in the unnudged net
    (``ForwardCache.inputs``).  ``net.flat`` is only read.
    """
    coords = np.asarray(coords, dtype=np.intp)
    out = np.empty(coords.size)
    start = 0
    for j, p in enumerate(parameters(net)):
        stop = start + p.size
        here = (coords >= start) & (coords < stop)
        if here.any():
            losses_of = _losses_of_nudged(objective, net, j, inputs[j // 2])
            out[here] = _central(losses_of, p, coords[here] - start, h)
        start = stop
    return out


def weighted_sum(coefs: np.ndarray, out: np.ndarray):
    """The isolated check's objective ``sum(coefs * out)``: a float for
    an (n, d) output, one sum per copy for a stack (k, n, d)."""
    prods = coefs * out
    sums = np.sum(prods.reshape(prods.shape[:-2] + (-1,)), axis=-1)
    return float(sums) if prods.ndim == 2 else sums


def _clear(*preact_lists) -> bool:
    return all(np.abs(z).min() > _MARGIN for zs in preact_lists for z in zs)


def check_isolated(sizes, seed: int, h: float = 1e-5) -> float:
    """Max relative error of isolated net gradients (params and input)."""
    rng = np.random.default_rng(seed)
    net = random_net(sizes, rng)
    for _ in range(_MAX_REDRAW):
        x = rng.uniform(-2.0, 2.0, (_BATCH, sizes[0]))
        out, cache = forward(net, x)
        if _clear(cache.preacts[:-1]):   # last layer is affine, no kink
            break
    else:
        raise RuntimeError("could not draw a batch clear of activation kinks")
    coefs = rng.uniform(-1.0, 1.0, out.shape)

    def objective(out):
        return weighted_sum(coefs, out)

    analytic, x_grad = backward(net, cache, coefs)
    coords = pick_coords(net, rng, _PER_LAYER)
    fd = fd_stacked(objective, net, cache.inputs, coords, h)
    # input gradient, same scalar, differentiated through x
    fd_x = _central(lambda xs: objective(forward(net, xs, cache=False)[0]),
                    x, np.arange(x.size), h)
    return rel_err(np.concatenate([analytic[coords], x_grad.ravel()]),
                   np.concatenate([fd, fd_x]))


def check_gen_path(schedule: DiffusionSchedule, t: int, seed: int, h: float = 1e-5,
                   t_conditioned: bool = True) -> float:
    """Max relative error of the trainer's generator gradient
    (``trainer.generator_grads``) against central differences of the
    trainer's generator objective (``trainer.generator_loss``, whose part
    after the generator, ``trainer.generator_objective``, runs on the
    stacks), noised at level ``t`` on every row."""
    rng = np.random.default_rng(seed)
    gen = random_net(GEN_SIZES, rng)
    disc = random_net(DISC_SIZES, rng)
    t_arr = np.full(_BATCH, t, dtype=np.int64)

    for _ in range(_MAX_REDRAW):
        z = rng.standard_normal((_BATCH, GEN_SIZES[0]))
        eps = rng.standard_normal((_BATCH, GEN_SIZES[-1]))
        _, analytic, (gcache, dcache) = trainer.generator_grads(
            gen, disc, z, t_arr, eps, schedule, t_conditioned)
        if _clear(gcache.preacts[:-1], dcache.preacts[:-1]):
            break
    else:
        raise RuntimeError("could not draw a batch clear of activation kinks")

    coords = pick_coords(gen, rng, _PER_LAYER)
    fd = fd_stacked(lambda out: trainer.generator_objective(
                        disc, out, t_arr, eps, schedule, t_conditioned),
                    gen, gcache.inputs, coords, h)
    return rel_err(analytic[coords], fd)


def run_suite(schedule: DiffusionSchedule, n_seeds: int = 20, base_seed: int = 0,
              h: float = 1e-5, path_levels=(0, 5, 100)):
    """All checks over seeds; returns (rows, max_isolated, max_path).

    Rows are dicts with keys check / sizes / seed / t / max_rel_err, in a
    deterministic order.  A nan error makes its kind's maximum nan.
    Raises ``ValueError`` when ``n_seeds < 1`` or ``path_levels`` is
    empty, since either would leave a kind of check unrun and its maximum
    error at a vacuous 0.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if len(path_levels) == 0:
        raise ValueError("path_levels must name at least one level")
    rows = []
    for sizes in list(SMALL_SIZES) + [GEN_SIZES, DISC_SIZES]:
        for s in range(n_seeds):
            err = check_isolated(sizes, seed=base_seed + s, h=h)
            rows.append({"check": "isolated", "sizes": "x".join(map(str, sizes)),
                         "seed": base_seed + s, "t": "", "max_rel_err": err})
    for t in path_levels:
        for s in range(n_seeds):
            err = check_gen_path(schedule, t, seed=base_seed + 1000 + s, h=h)
            rows.append({"check": "path", "sizes": "gen+disc",
                         "seed": base_seed + 1000 + s, "t": t, "max_rel_err": err})

    def worst(kind):
        return float(np.max([r["max_rel_err"] for r in rows if r["check"] == kind]))

    return rows, worst("isolated"), worst("path")
