"""Forward noising schedule.

A schedule fixes a linear variance ramp ``betas`` and the cumulative
products ``alpha_bars`` that give the closed-form marginal of the
noising chain.  Corrupting a sample ``x`` at level ``t`` draws

    y = sqrt(alpha_bars[t]) * x + sqrt(1 - alpha_bars[t]) * sigma * eps

with ``eps`` standard normal.  Level 0 means "no noise": ``y == x``
exactly.  Applying the one-step kernel t times in a row lands on the
same distribution; ``diffuse_chain`` does that the long way and exists
mostly so tests can confirm the equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DiffusionSchedule:
    """Immutable noising schedule.

    Arrays are padded so they can be indexed by the level directly:
    ``betas[t]`` and ``alpha_bars[t]`` are meaningful for t = 1..t_max_cap,
    with ``betas[0] = 0`` (unused sentinel) and ``alpha_bars[0] = 1``.
    ``alpha_bars`` is accumulated and stored in the widest float dtype
    available so the 1000-fold product does not drift; cast at use sites.
    ``keep[t] = sqrt(alpha_bars[t])`` and
    ``noise[t] = sqrt(1 - alpha_bars[t]) * sigma`` are the float64
    coefficients of ``diffuse``, computed once from ``alpha_bars`` cast
    to float64.
    """

    t_max_cap: int
    beta_start: float
    beta_end: float
    sigma: float
    betas: np.ndarray        # float64, shape (t_max_cap + 1,)
    alpha_bars: np.ndarray   # longdouble, shape (t_max_cap + 1,)
    keep: np.ndarray = field(init=False)    # float64, shape (t_max_cap + 1,)
    noise: np.ndarray = field(init=False)   # float64, shape (t_max_cap + 1,)

    def __post_init__(self):
        a = self.alpha_bars.astype(np.float64)
        object.__setattr__(self, "keep", np.sqrt(a))
        object.__setattr__(self, "noise", np.sqrt(1.0 - a) * self.sigma)
        for table in (self.betas, self.alpha_bars, self.keep, self.noise):
            table.setflags(write=False)


def check_schedule_settings(t_max_cap, beta_start, beta_end, sigma) -> None:
    """Raise ``ValueError`` unless the schedule settings are in range."""
    if t_max_cap < 1:
        raise ValueError(f"t_max_cap must be >= 1, got {t_max_cap}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError(
            f"need 0 < beta_start <= beta_end < 1, got {beta_start}, {beta_end}")
    if not (0.0 < sigma < math.inf):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")


def build_schedule(t_max_cap: int = 1000,
                   beta_start: float = 1e-4,
                   beta_end: float = 0.02,
                   sigma: float = 0.05) -> DiffusionSchedule:
    """Build a linear-ramp schedule.

    ``betas`` interpolates linearly from ``beta_start`` at level 1 to
    ``beta_end`` at level ``t_max_cap``.  Raises ``ValueError`` for
    out-of-range parameters (see ``check_schedule_settings``).
    """
    check_schedule_settings(t_max_cap, beta_start, beta_end, sigma)
    betas = np.zeros(t_max_cap + 1)
    betas[1:] = np.linspace(beta_start, beta_end, t_max_cap)
    alphas = 1.0 - betas.astype(np.longdouble)
    alpha_bars = np.cumprod(alphas)  # alpha_bars[0] = 1 - 0 = 1 exactly
    return DiffusionSchedule(t_max_cap, float(beta_start), float(beta_end),
                             float(sigma), betas, alpha_bars)


def _check_t(t, cap: int) -> np.ndarray:
    t = np.asarray(t)
    if not np.issubdtype(t.dtype, np.integer):
        raise ValueError(f"noise level t must be integer, got dtype {t.dtype}")
    if t.size and (t.min() < 0 or t.max() > cap):
        raise ValueError(f"noise level t out of range [0, {cap}]")
    return t


def diffuse(x: np.ndarray, t, eps: np.ndarray,
            schedule: DiffusionSchedule) -> np.ndarray:
    """Corrupt ``x`` at level ``t`` using the closed-form marginal.

    ``x`` is a vector, an (n, d) batch or a stack (..., n, d) of
    batches; ``t`` a scalar level or an (n,) array of per-row levels,
    shared by every copy of a stack; ``eps`` must match ``x``'s shape,
    or for a stack its last two axes (one draw shared by every copy).
    t = 0 returns ``x`` unchanged (the coefficients are exactly 1 and 0).
    Every operation is elementwise, so each copy of a stack is noised bit
    for bit as it would be alone.
    """
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape not in (x.shape, x.shape[-2:]):
        raise ValueError(f"eps shape {eps.shape} does not match x shape {x.shape}")
    t = _check_t(t, schedule.t_max_cap)
    if t.ndim == 1:
        if x.ndim < 2 or t.shape[0] != x.shape[-2]:
            raise ValueError(
                f"per-row t of shape {t.shape} needs a matching (..., n, d) x, "
                f"got {x.shape}")
    elif t.ndim != 0:
        raise ValueError(f"t must be a scalar or 1-d array, got shape {t.shape}")

    keep = schedule.keep[t]
    noise = schedule.noise[t]
    if t.ndim == 1:
        keep = keep[:, None]
        noise = noise[:, None]
    out = keep * x
    out += noise * eps
    return out


def diffuse_chain(x: np.ndarray, t, rng: np.random.Generator,
                  schedule: DiffusionSchedule) -> np.ndarray:
    """Corrupt ``x`` by applying the one-step kernel ``t`` times.

    Each step draws fresh noise from ``rng``:

        x_s = sqrt(1 - betas[s]) * x_{s-1} + sqrt(betas[s]) * sigma * eps_s

    Distribution-equal to ``diffuse`` at the same level (tested via
    moment matching), but O(t) work — this is the reference path, not
    the production one.  Scalar ``t`` only; ``x`` may be a batch.
    """
    x = np.asarray(x, dtype=np.float64)
    t = int(_check_t(t, schedule.t_max_cap))
    out = x.copy()
    for s in range(1, t + 1):
        eps = rng.standard_normal(out.shape)
        out = np.sqrt(1.0 - schedule.betas[s]) * out \
            + np.sqrt(schedule.betas[s]) * schedule.sigma * eps
    return out
