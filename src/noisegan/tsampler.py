"""Adaptive noise-level policy.

The discriminator's input noise level t is drawn per sample from a
64-entry exploration list whose first half is pinned at zero (so the
discriminator keeps seeing clean samples) and whose second half is
redrawn periodically from a weighting over ``1..t_current``.  The
ceiling ``t_current`` moves by a fixed step each time the caller closes
the observation window (``update_t``; the trainer does so every
``update_interval`` steps), up when the discriminator looks too
confident on real data and down otherwise.

Confidence is summarized by ``r_d``, the window average of
``sign(d - 0.5)`` over the discriminator's post-sigmoid outputs on
noised *real* samples only, so ``r_d`` lives in [-1, 1].  A policy
reads its settings, ``t_min`` to ``mode``, from a ``GanConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import MODES, GanConfig

EXPLORE_SIZE = 64   # entries in the exploration list
ZERO_HALF = 32      # leading entries pinned at level 0


@dataclass
class TimestepPolicy:
    """Mutable state of the adaptive level sampler (single-owner)."""

    config: GanConfig
    t_current: int = field(init=False)
    explore_levels: np.ndarray = field(init=False)  # (EXPLORE_SIZE,) ints
    _sign_sum: float = field(init=False, default=0.0)
    _sign_count: int = field(init=False, default=0)

    def __post_init__(self):
        self.t_current = self.config.t_min
        self.explore_levels = np.zeros(EXPLORE_SIZE, dtype=np.int64)


def init_policy(rng: np.random.Generator, config: GanConfig) -> TimestepPolicy:
    """Create the policy of ``config`` and draw its first exploration list."""
    policy = TimestepPolicy(config)
    resample_levels(policy, rng)
    return policy


def level_weights(t_current: int, mode: str) -> np.ndarray:
    """Sampling weights over levels ``1..t_current`` (sums to 1).

    uniform :  1/T each
    priority:  t / (1 + 2 + ... + T), favouring recent (higher) levels
    """
    if t_current < 1:
        raise ValueError(f"t_current must be >= 1, got {t_current}")
    if mode == "uniform":
        return np.full(t_current, 1.0 / t_current)
    if mode == "priority":
        levels = np.arange(1, t_current + 1, dtype=np.float64)
        return levels / levels.sum()
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def resample_levels(policy: TimestepPolicy, rng: np.random.Generator) -> None:
    """Redraw the non-zero half of the exploration list.

    Entries ``ZERO_HALF..`` are drawn with replacement from
    ``1..t_current`` using the policy's weighting mode; the zero half is
    left untouched.
    """
    weights = level_weights(policy.t_current, policy.config.mode)
    draws = rng.choice(np.arange(1, policy.t_current + 1), size=EXPLORE_SIZE - ZERO_HALF,
                       replace=True, p=weights)
    policy.explore_levels[:ZERO_HALF] = 0
    policy.explore_levels[ZERO_HALF:] = draws


def draw_t(policy: TimestepPolicy, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` per-sample levels uniformly with replacement from the list."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    idx = rng.integers(0, EXPLORE_SIZE, size=n)
    return policy.explore_levels[idx]


def observe_d(policy: TimestepPolicy, d_probs: np.ndarray) -> None:
    """Feed discriminator outputs on noised real samples into the window.

    ``d_probs`` are post-sigmoid probabilities; each contributes
    ``sign(d - 0.5)`` to the running window.  Rejects non-finite or
    out-of-range values.
    """
    d = np.asarray(d_probs, dtype=np.float64).ravel()
    if d.size == 0:
        return
    if not np.all(np.isfinite(d)):
        raise ValueError("observe_d: non-finite discriminator output")
    if d.min() < 0.0 or d.max() > 1.0:
        raise ValueError("observe_d: outputs must be probabilities in [0, 1]")
    policy._sign_sum += float(np.sign(d - 0.5).sum())
    policy._sign_count += d.size


def update_t(policy: TimestepPolicy, rng: np.random.Generator) -> float:
    """Close the window: move the ceiling, reset, redraw the list.

    Computes ``r_d`` (window mean of signs, in [-1, 1]), steps
    ``t_current`` by ``sign(r_d - d_target) * c_step`` with sign(0) = 0,
    clamps to [t_min, t_max], empties the window, resamples the
    exploration list, and returns the ``r_d`` that was used.
    """
    if policy._sign_count == 0:
        raise ValueError("update_t called on an empty observation window")
    r_d = policy._sign_sum / policy._sign_count
    cfg = policy.config
    step = int(np.sign(r_d - cfg.d_target)) * cfg.c_step
    policy.t_current = int(np.clip(policy.t_current + step, cfg.t_min, cfg.t_max))
    policy._sign_sum = 0.0
    policy._sign_count = 0
    resample_levels(policy, rng)
    return r_d
