"""Adaptive noise-level policy.

The discriminator's input noise level t is drawn per sample from a
64-entry exploration list whose first half is pinned at zero (so the
discriminator keeps seeing clean samples) and whose second half is
redrawn periodically from a weighting over ``1..t_current``.  The
ceiling ``t_current`` moves every ``update_interval`` minibatches by a
fixed step, up when the discriminator looks too confident on real data
and down otherwise.

Confidence is summarized by ``r_d``, the window average of
``sign(d - 0.5)`` over the discriminator's post-sigmoid outputs on
noised *real* samples only, so ``r_d`` lives in [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EXPLORE_SIZE = 64   # entries in the exploration list
ZERO_HALF = 32      # leading entries pinned at level 0

MODES = ("uniform", "priority")


@dataclass
class TimestepPolicy:
    """Mutable state of the adaptive level sampler (single-owner)."""

    t_min: int = 5
    t_max: int = 1000
    d_target: float = 0.6
    c_step: int = 2
    mode: str = "priority"
    update_interval: int = 4
    t_current: int = field(init=False)
    explore_levels: np.ndarray = field(init=False)  # (EXPLORE_SIZE,) ints
    _sign_sum: float = field(init=False, default=0.0)
    _sign_count: int = field(init=False, default=0)

    def __post_init__(self):
        check_policy_settings(self.t_min, self.t_max, self.d_target, self.c_step,
                              self.mode, self.update_interval)
        self.t_current = self.t_min
        self.explore_levels = np.zeros(EXPLORE_SIZE, dtype=np.int64)


def check_policy_settings(t_min, t_max, d_target, c_step, mode,
                          update_interval) -> None:
    """Raise ``ValueError`` unless the policy settings are in range."""
    if not (1 <= t_min <= t_max):
        raise ValueError(f"need 1 <= t_min <= t_max, got {t_min}, {t_max}")
    if c_step < 1:
        raise ValueError(f"c_step must be >= 1, got {c_step}")
    if update_interval < 1:
        raise ValueError(f"update_interval must be >= 1, got {update_interval}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not np.isfinite(d_target) or not (-1.0 <= d_target <= 1.0):
        raise ValueError(f"d_target must be finite in [-1, 1], got {d_target}")


def init_policy(rng: np.random.Generator, **kwargs) -> TimestepPolicy:
    """Create a policy and draw its first exploration list."""
    policy = TimestepPolicy(**kwargs)
    resample_levels(policy, rng)
    return policy


def level_weights(t_current: int, mode: str = "priority") -> np.ndarray:
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
    weights = level_weights(policy.t_current, policy.mode)
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
    step = int(np.sign(r_d - policy.d_target)) * policy.c_step
    policy.t_current = int(np.clip(policy.t_current + step, policy.t_min, policy.t_max))
    policy._sign_sum = 0.0
    policy._sign_count = 0
    resample_levels(policy, rng)
    return r_d
