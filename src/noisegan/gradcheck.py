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

Finite differences nudge one entry of ``net.flat`` in place and put it
back, and the analytic side is ``backward``'s flat gradient vector, so
both index the same parameter coordinates.

FD validity near the leaky-ReLU kink is handled by redrawing inputs
until every pre-activation in play clears a margin much larger than any
shift a +-h parameter nudge can cause; the margin is a property of the
check, not of the gradients.  Relative error is
``|a - f| / max(|a|, |f|, 1)`` so exact-zero coordinates compare
absolutely instead of dividing FD noise by itself.
"""

from __future__ import annotations

import numpy as np

from . import trainer
from .net import DenseNet, backward, forward, parameters
from .schedule import DiffusionSchedule

_MARGIN = 5e-4
_MAX_REDRAW = 200

GEN_SIZES = [2, 128, 128, 2]
DISC_SIZES = [3, 128, 128, 1]
SMALL_SIZES = ([2, 8, 8, 1], [3, 8, 8, 1], [2, 16, 2])


def param_vector(net: DenseNet) -> np.ndarray:
    return net.flat.copy()


def set_param_vector(net: DenseNet, vec: np.ndarray) -> None:
    vec = np.asarray(vec)
    if vec.shape != net.flat.shape:
        raise ValueError(f"vector of shape {vec.shape} does not match net "
                         f"({net.flat.size},)")
    net.flat[...] = vec


def random_net(sizes, rng: np.random.Generator, scale: float = 0.5) -> DenseNet:
    """Net with every parameter uniform in [-scale, scale]."""
    weights = [rng.uniform(-scale, scale, (o, i))
               for i, o in zip(sizes[:-1], sizes[1:])]
    biases = [rng.uniform(-scale, scale, o) for o in sizes[1:]]
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


def fd_on_coords(loss_fn, net: DenseNet, coords, h: float = 1e-5) -> np.ndarray:
    """Central differences of ``loss_fn()`` along the given coordinates of
    ``net.flat``, nudging one entry at a time in place and restoring it."""
    flat = net.flat
    out = np.empty(len(coords))
    for j, c in enumerate(coords):
        keep = flat[c]
        try:
            flat[c] = keep + h
            up = loss_fn()
            flat[c] = keep - h
            down = loss_fn()
        finally:
            flat[c] = keep
        out[j] = (up - down) / (2.0 * h)
    return out


def _clear(*preact_lists) -> bool:
    return all(np.abs(z).min() > _MARGIN for zs in preact_lists for z in zs)


def check_isolated(sizes, seed: int, n: int = 8, per_layer: int = 64,
                   h: float = 1e-5) -> float:
    """Max relative error of isolated net gradients (params and input)."""
    rng = np.random.default_rng(seed)
    net = random_net(sizes, rng)
    for _ in range(_MAX_REDRAW):
        x = rng.uniform(-2.0, 2.0, (n, sizes[0]))
        out, cache = forward(net, x)
        if _clear(cache.preacts[:-1]):   # last layer is affine, no kink
            break
    else:
        raise RuntimeError("could not draw a batch clear of activation kinks")
    coefs = rng.uniform(-1.0, 1.0, out.shape)

    analytic, x_grad = backward(net, cache, coefs)
    coords = pick_coords(net, rng, per_layer)
    fd = fd_on_coords(lambda: float(np.sum(coefs * forward(net, x, cache=False)[0])),
                      net, coords, h)
    err = rel_err(analytic[coords], fd)

    # input gradient, same scalar, differentiated through x
    fd_x = np.empty(x.size)
    flat = x.ravel()
    for c in range(x.size):
        keep = flat[c]
        flat[c] = keep + h
        up = float(np.sum(coefs * forward(net, x, cache=False)[0]))
        flat[c] = keep - h
        down = float(np.sum(coefs * forward(net, x, cache=False)[0]))
        flat[c] = keep
        fd_x[c] = (up - down) / (2.0 * h)
    return max(err, rel_err(x_grad.ravel(), fd_x))


def check_gen_path(schedule: DiffusionSchedule, t: int, seed: int, n: int = 8,
                   per_layer: int = 64, h: float = 1e-5,
                   t_conditioned: bool = True) -> float:
    """Max relative error of the trainer's generator gradient
    (``trainer.generator_grads``) against central differences of the
    trainer's generator objective (``trainer.generator_loss``), noised
    at level ``t`` on every row."""
    rng = np.random.default_rng(seed)
    gen = random_net(GEN_SIZES, rng)
    disc = random_net(DISC_SIZES, rng)
    t_arr = np.full(n, t, dtype=np.int64)

    for _ in range(_MAX_REDRAW):
        z = rng.standard_normal((n, GEN_SIZES[0]))
        eps = rng.standard_normal((n, GEN_SIZES[-1]))
        _, analytic, (gcache, dcache) = trainer.generator_grads(
            gen, disc, z, t_arr, eps, schedule, t_conditioned)
        if _clear(gcache.preacts[:-1], dcache.preacts[:-1]):
            break
    else:
        raise RuntimeError("could not draw a batch clear of activation kinks")

    coords = pick_coords(gen, rng, per_layer)
    fd = fd_on_coords(lambda: trainer.generator_loss(gen, disc, z, t_arr, eps, schedule,
                                                     t_conditioned),
                      gen, coords, h)
    return rel_err(analytic[coords], fd)


def run_suite(schedule: DiffusionSchedule, n_seeds: int = 20, base_seed: int = 0,
              h: float = 1e-5, path_levels=(0, 5, 100)):
    """All checks over seeds; returns (rows, max_isolated, max_path).

    Rows are dicts with keys check / sizes / seed / t / max_rel_err, in a
    deterministic order.  Raises ``ValueError`` when ``n_seeds < 1`` or
    ``path_levels`` is empty, since either would leave a kind of check
    unrun and its maximum error at a vacuous 0.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if len(path_levels) == 0:
        raise ValueError("path_levels must name at least one level")
    rows = []
    max_iso = 0.0
    for sizes in list(SMALL_SIZES) + [GEN_SIZES, DISC_SIZES]:
        for s in range(n_seeds):
            err = check_isolated(sizes, seed=base_seed + s, h=h)
            rows.append({"check": "isolated", "sizes": "x".join(map(str, sizes)),
                         "seed": base_seed + s, "t": "", "max_rel_err": err})
            max_iso = max(max_iso, err)
    max_path = 0.0
    for t in path_levels:
        for s in range(n_seeds):
            err = check_gen_path(schedule, t, seed=base_seed + 1000 + s, h=h)
            rows.append({"check": "path", "sizes": "gen+disc",
                         "seed": base_seed + 1000 + s, "t": t, "max_rel_err": err})
            max_path = max(max_path, err)
    return rows, max_iso, max_path
