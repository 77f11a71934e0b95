"""Closed-form toy problem: two parallel line segments in the plane.

The "real" distribution puts (0, Z) and the "generator" (theta, Z) with
Z uniform on [0, 1].  Their supports are disjoint whenever theta != 0,
so the Jensen-Shannon divergence sits at its ceiling log 2 and carries
no usable gradient, while the straight-line transport distance is
|theta|.  After noising both sides at level t >= 1 the comparison
collapses to one dimension — the shared vertical coordinate cancels —
leaving two normals with common variance

    b_t = (1 - alpha_bars[t]) * sigma^2

and means 0 and a_t * theta with a_t = keep[t] = sqrt(alpha_bars[t]).
Their JSD is smooth in theta, which is the whole point.  It depends on
the offset in stds alone, delta = a_t * |theta| / sqrt(b_t):

    JSD = log 2 - E_{x ~ N(0, 1)}[softplus(delta * (x - delta / 2))]

This module evaluates that expectation by one fixed quadrature rule or
Monte Carlo, exposes the pointwise optimal discriminator, and checks the
mixture identity JSD(joint) = E_t[JSD(conditionals)] on finite cases by
enumeration.

The rule is composite 16-point Gauss-Legendre on x in [-8.5, 8.5], 34
panels half a std wide (544 nodes), with the N(0, 1) density folded into
the weights.  Beyond 8.5 stds lies 1.9e-17 of the mass, under the
rounding of a value near log 2.  The softplus bends within about
1 / delta of x = delta / 2, which leaves the range at delta = 17, where
the value has reached log 2 in float64; half-std panels resolve the
bend, agreeing with four times the panels to 2.2e-16 for every delta.
The rule is built once per process, on the first quadrature (not at
import), and every later call shares its read-only arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .schedule import DiffusionSchedule

LN2 = math.log(2.0)

_GL_NODES = 16          # Gauss-Legendre points per panel
_PANELS = 34            # panels across the range, each half a std wide
_HALF_RANGE = 8.5       # the rule covers x in [-8.5, 8.5] stds


@dataclass(frozen=True)
class ToyParams:
    """Toy pair at one (theta, t): N(0, b_t) vs N(a_t * theta, b_t)."""

    theta: float
    t: int
    schedule: DiffusionSchedule
    a_t: float
    b_t: float

    @classmethod
    def at(cls, theta: float, t: int, schedule: DiffusionSchedule) -> "ToyParams":
        theta = float(theta)
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}")
        if not (1 <= t <= schedule.t_max_cap):
            raise ValueError(f"t must be in [1, {schedule.t_max_cap}], got {t}")
        abar = float(schedule.alpha_bars[t])
        a_t = float(schedule.keep[t])
        try:
            b_t = (1.0 - abar) * schedule.sigma ** 2
        except OverflowError:       # sigma above sqrt of the largest float
            b_t = math.inf
        if not b_t < math.inf:
            raise ValueError(f"level t={t} with sigma={schedule.sigma} gives a "
                             "non-finite noise variance")
        if not b_t > 0.0:
            raise ValueError(f"degenerate level t={t}: zero noise variance")
        return cls(theta, int(t), schedule, a_t, b_t)


@dataclass(frozen=True)
class JsdEstimate:
    value: float
    method: str               # "quadrature" | "monte_carlo" | "closed_form"
    n_evals: int              # quadrature nodes or MC samples
    std_err: float = None     # monte_carlo only


def jsd_original(theta: float) -> float:
    """JSD of the un-noised pair: 0 at theta == 0, else exactly log 2.

    The case split is on exact equality — any non-zero offset makes the
    supports disjoint, no matter how small.  Raises ``ValueError`` unless
    ``theta`` is finite, as ``jsd_diffused`` does.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    return 0.0 if theta == 0.0 else LN2


def wasserstein_reference(theta: float) -> float:
    """Transport distance between the segments: |theta| (horizontal shift)."""
    return abs(float(theta))


def _log_pdf(y, mean, var):
    """log N(y; mean, var)."""
    return -0.5 * np.square(y - mean) / var - 0.5 * np.log(2.0 * np.pi * var)


@functools.cache
def _normal_rule():
    """The composite rule on [-_HALF_RANGE, _HALF_RANGE] as read-only (nodes,
    weights), the N(0, 1) density folded into the weights; built on first
    use and shared by every later call in the process."""
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    half = _HALF_RANGE / _PANELS
    mids = np.linspace(-_HALF_RANGE + half, _HALF_RANGE - half, _PANELS)
    nodes = (mids[:, None] + half * x).ravel()
    weights = (np.tile(half * w, _PANELS) * np.exp(-0.5 * np.square(nodes))
               / math.sqrt(2.0 * math.pi))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _quadrature(p: ToyParams) -> JsdEstimate:
    """log 2 - E[softplus(delta * (x - delta / 2))] by the fixed rule."""
    x, w = _normal_rule()
    delta = p.a_t * abs(p.theta) / math.sqrt(p.b_t)     # inf past the float range
    value = 0.0
    if delta != 0.0:
        # in this form delta = inf gives -inf, not inf - inf; a product past
        # the float range is -inf too, whose softplus is 0
        with np.errstate(over="ignore"):
            softplus = np.logaddexp(0.0, delta * (x - 0.5 * delta))
        value = max(0.0, LN2 - float(w @ softplus))   # tiny delta rounds below 0
    return JsdEstimate(value, "quadrature", x.size)


def jsd_diffused(theta: float, t: int, schedule: DiffusionSchedule,
                 method: str = "quadrature", n: int = 200_000,
                 rng: np.random.Generator = None) -> JsdEstimate:
    """JSD between the noised pair at level t >= 1, in nats.

    ``method="quadrature"`` applies one fixed rule, composite
    Gauss-Legendre over +-8.5 stds with 544 nodes, in the standardized
    offset delta = a_t * |theta| / sqrt(b_t); it gives exactly 0 at
    theta == 0, a value in [0, log 2] for every finite theta, and log 2
    wherever delta overflows.  It has no error to bound per call: its
    agreement with four times the panels and with independent rules is
    a property the tests check.  ``method="monte_carlo"`` averages the
    two log-ratio terms over ``n`` draws per component and reports a
    standard error; pass ``rng`` for control, default is a fixed seed.
    It refuses a b_t whose squared 8-std span overflows.  Raises
    ``ValueError`` unless ``theta`` is finite, whichever the method.
    """
    p = ToyParams.at(theta, t, schedule)
    if method == "quadrature":
        return _quadrature(p)

    if method == "monte_carlo":
        # _log_pdf squares draws out to 8 stds, (8 std)^2 = 64 b_t, above 2 pi b_t
        if not 64.0 * p.b_t < math.inf:
            raise ValueError(f"level t={t} with sigma={schedule.sigma} gives a noise "
                             "variance whose squared 8-std span is not finite")
        if n < 2:
            raise ValueError(f"monte_carlo needs n >= 2, got {n}")
        mu1, mu2, var = 0.0, p.a_t * p.theta, p.b_t
        std = math.sqrt(var)
        if rng is None:
            rng = np.random.default_rng(0)
        y1 = mu1 + std * rng.standard_normal(n)
        y2 = mu2 + std * rng.standard_normal(n)
        lp1, lq1 = _log_pdf(y1, mu1, var), _log_pdf(y1, mu2, var)
        lp2, lq2 = _log_pdf(y2, mu1, var), _log_pdf(y2, mu2, var)
        term1 = LN2 + lp1 - np.logaddexp(lp1, lq1)
        term2 = LN2 + lq2 - np.logaddexp(lp2, lq2)
        value = 0.5 * (term1.mean() + term2.mean())
        std_err = 0.5 * math.sqrt((term1.var(ddof=1) + term2.var(ddof=1)) / n)
        return JsdEstimate(float(value), "monte_carlo", n, std_err)

    raise ValueError(f"method must be 'quadrature' or 'monte_carlo', got {method!r}")


def optimal_discriminator(y, theta: float, t: int,
                          schedule: DiffusionSchedule) -> np.ndarray:
    """Pointwise Bayes-optimal discriminator p / (p + q) on the noised pair.

    Returns 0.5 everywhere when theta == 0, exactly 0.5 at the midpoint
    between the two means in general, and no nan for a finite y.
    """
    p = ToyParams.at(theta, t, schedule)
    mu = p.a_t * p.theta
    # log q - log p, linear in y: no square or normalizer to overflow, and
    # where the product does, the sigmoid maps its +-inf to 0 or 1
    with np.errstate(over="ignore"):
        log_q_over_p = mu * (np.asarray(y, dtype=np.float64) - 0.5 * mu) / p.b_t
    return np.exp(-np.logaddexp(0.0, log_q_over_p))   # sigmoid(log p - log q)


@dataclass(frozen=True)
class DiscreteJointSpec:
    """Finite (y, t) joint: level weights plus per-level conditionals.

    ``support`` holds the k distinct y values (labels only; the JSD does
    not depend on them), ``pi`` the T level weights, and the two
    conditional tables are (T, k) rows summing to one.
    """

    support: np.ndarray    # (k,)
    pi: np.ndarray         # (T,)
    real_cond: np.ndarray  # (T, k)
    gen_cond: np.ndarray   # (T, k)

    def validate(self) -> None:
        sup = np.asarray(self.support, dtype=np.float64)
        pi = np.asarray(self.pi, dtype=np.float64)
        rc = np.asarray(self.real_cond, dtype=np.float64)
        gc = np.asarray(self.gen_cond, dtype=np.float64)
        if sup.ndim != 1 or pi.ndim != 1 or rc.ndim != 2 or gc.ndim != 2:
            raise DataError("joint spec arrays have wrong rank")
        big_t, k = rc.shape
        if gc.shape != (big_t, k) or pi.shape != (big_t,) or sup.shape != (k,):
            raise DataError(f"joint spec shapes disagree: pi {pi.shape}, "
                            f"real {rc.shape}, gen {gc.shape}, support {sup.shape}")
        for name, arr in (("pi", pi), ("real_cond", rc), ("gen_cond", gc)):
            if not np.all(np.isfinite(arr)) or arr.min() < 0.0:
                raise DataError(f"{name} must be finite and non-negative")
        if abs(pi.sum() - 1.0) > 1e-9:
            raise DataError(f"pi sums to {pi.sum()!r}, not 1")
        for name, arr in (("real_cond", rc), ("gen_cond", gc)):
            bad = np.abs(arr.sum(axis=1) - 1.0) > 1e-9
            if bad.any():
                raise DataError(f"{name} row {int(np.argmax(bad))} does not sum to 1")


def _discrete_jsd(p, q):
    m = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_p = np.where(p > 0.0, p * (np.log(p) - np.log(m)), 0.0)
        kl_q = np.where(q > 0.0, q * (np.log(q) - np.log(m)), 0.0)
    return 0.5 * (kl_p.sum() + kl_q.sum())


def jsd_joint_equality(spec: DiscreteJointSpec):
    """Return (joint JSD, pi-weighted mean of conditional JSDs).

    The two sides agree because both joints share the same level
    marginal pi; the pair is returned so callers can see the identity
    hold numerically rather than take it on faith.
    """
    spec.validate()
    pi = np.asarray(spec.pi, dtype=np.float64)
    rc = np.asarray(spec.real_cond, dtype=np.float64)
    gc = np.asarray(spec.gen_cond, dtype=np.float64)
    lhs = _discrete_jsd((pi[:, None] * rc).ravel(), (pi[:, None] * gc).ravel())
    rhs = float(sum(pi[i] * _discrete_jsd(rc[i], gc[i]) for i in range(pi.size)))
    return float(lhs), rhs
