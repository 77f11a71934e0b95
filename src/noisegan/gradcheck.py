"""Central finite-difference verification of the hand-written gradients.

Two kinds of check:

* isolated — a random net, a random input batch and a random output
  coefficient matrix R; the scalar is sum(R * forward(x)) so its exact
  gradient is backward(cache, R);
* path — the full generator objective: latents through the generator,
  the noising map at level t, the level feature, the discriminator and
  softplus, differentiated with respect to the generator parameters.

FD validity near the leaky-ReLU kink is handled by redrawing inputs
until every pre-activation in play clears a margin much larger than any
shift a +-h parameter nudge can cause; the margin is a property of the
check, not of the gradients.  Relative error is
``|a - f| / max(|a|, |f|, 1)`` so exact-zero coordinates compare
absolutely instead of dividing FD noise by itself.
"""

from __future__ import annotations

import numpy as np

from .net import DenseNet, backward, cond_input, forward, parameters
from .schedule import DiffusionSchedule, diffuse
from .trainer import g_loss, sigmoid

_MARGIN = 5e-4
_MAX_REDRAW = 200

GEN_SIZES = [2, 128, 128, 2]
DISC_SIZES = [3, 128, 128, 1]
SMALL_SIZES = ([2, 8, 8, 1], [3, 8, 8, 1], [2, 16, 2])


def param_vector(net: DenseNet) -> np.ndarray:
    return np.concatenate([p.ravel() for p in parameters(net)])


def set_param_vector(net: DenseNet, vec: np.ndarray) -> None:
    offset = 0
    for p in parameters(net):
        p[...] = vec[offset:offset + p.size].reshape(p.shape)
        offset += p.size
    if offset != vec.size:
        raise ValueError(f"vector length {vec.size} does not match net ({offset})")


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
    """Central differences of ``loss_fn()`` along the given coordinates."""
    base = param_vector(net)
    out = np.empty(len(coords))
    work = base.copy()
    for j, c in enumerate(coords):
        work[c] = base[c] + h
        set_param_vector(net, work)
        up = loss_fn()
        work[c] = base[c] - h
        set_param_vector(net, work)
        down = loss_fn()
        work[c] = base[c]
        out[j] = (up - down) / (2.0 * h)
    set_param_vector(net, base)
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

    grads, x_grad = backward(net, cache, coefs)
    analytic = np.concatenate([g.ravel() for g in grads])
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
                   per_layer: int = 64, h: float = 1e-5) -> float:
    """Max relative error of generator gradients through noising + critic."""
    rng = np.random.default_rng(seed)
    gen = random_net(GEN_SIZES, rng)
    disc = random_net(DISC_SIZES, rng)
    t_arr = np.full(n, t, dtype=np.int64)

    def run(with_cache=False):
        x, gcache = forward(gen, z, cache=with_cache)
        y = diffuse(x, t_arr, eps, schedule)
        logits, dcache = forward(disc, cond_input(y, t_arr, schedule.t_max_cap),
                                 cache=with_cache)
        if with_cache:
            return x, gcache, logits, dcache
        return g_loss(logits)

    for _ in range(_MAX_REDRAW):
        z = rng.standard_normal((n, GEN_SIZES[0]))
        eps = rng.standard_normal((n, GEN_SIZES[-1]))
        _, gcache, _, dcache = run(with_cache=True)
        if _clear(gcache.preacts[:-1], dcache.preacts[:-1]):
            break
    else:
        raise RuntimeError("could not draw a batch clear of activation kinks")

    x, gcache, logits, dcache = run(with_cache=True)
    _, in_grad = backward(disc, dcache, -sigmoid(-logits) / n, param_grads=False)
    keep = schedule.keep[t_arr]
    ggrads, _ = backward(gen, gcache, in_grad[:, :GEN_SIZES[-1]] * keep[:, None])
    analytic = np.concatenate([g.ravel() for g in ggrads])

    coords = pick_coords(gen, rng, per_layer)
    fd = fd_on_coords(run, gen, coords, h)
    return rel_err(analytic[coords], fd)


def run_suite(schedule: DiffusionSchedule, n_seeds: int = 20, base_seed: int = 0,
              h: float = 1e-5, path_levels=(0, 5, 100)):
    """All checks over seeds; returns (rows, max_isolated, max_path).

    Rows are dicts with keys check / sizes / seed / t / max_rel_err, in a
    deterministic order.
    """
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
