"""Closed-form toy problem: two parallel line segments in the plane.

The "real" distribution puts (0, Z) and the "generator" (theta, Z) with
Z uniform on [0, 1].  Their supports are disjoint whenever theta != 0,
so the Jensen-Shannon divergence sits at its ceiling log 2 and carries
no usable gradient, while the straight-line transport distance is
|theta|.  After noising both sides at level t >= 1 the comparison
collapses to one dimension — the shared vertical coordinate cancels —
leaving two normals with common variance

    b_t = (1 - alpha_bars[t]) * sigma^2

and means 0 and a_t * theta with a_t = sqrt(alpha_bars[t]).  Their JSD
is smooth in theta, which is the whole point.  This module evaluates it
by adaptive Gauss-Legendre quadrature or Monte Carlo, exposes the
pointwise optimal discriminator, and checks the mixture identity
JSD(joint) = E_t[JSD(conditionals)] on finite cases by enumeration.

The quadrature is composite 16-point Gauss-Legendre over one or two
spans, with panels doubled until two successive depths agree to ``tol``.
Depths 0 and 1 of every span share one in-place pass over the integrand
and each deeper depth (rare) takes one more, yet each (depth, span) block
is reduced on its own, so values and node counts are bit for bit those of
a panel-by-panel loop.  The rule is built once per process, on the first
quadrature (not at import), and every later call shares its read-only
node and weight arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .schedule import DiffusionSchedule

LN2 = math.log(2.0)

_GL_NODES = 16          # Gauss-Legendre points per panel
_SPAN_SIGMAS = 8.0      # integrate each component out to this many stds
_MAX_REFINES = 8        # panel-doubling limit before giving up


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
        a_t = math.sqrt(abar)
        try:
            b_t = (1.0 - abar) * schedule.sigma ** 2
        except OverflowError:       # sigma above sqrt of the largest float
            b_t = math.inf
        # the quadrature squares up to (8 std)^2 = 64 b_t, above the normalizer 2 pi b_t
        if not _SPAN_SIGMAS ** 2 * b_t < math.inf:
            raise ValueError(f"level t={t} with sigma={schedule.sigma} gives a "
                             "non-finite noise variance or squared 8-std span")
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


def _log_pdf(y, mean, var, out=None):
    """log N(y; mean, var), computed in ``out`` if given (a float array shaped
    like ``y``)."""
    lp = np.square(np.subtract(y, mean, out=out), out=out)
    lp *= -0.5
    lp /= var
    lp -= 0.5 * np.log(2.0 * np.pi * var)
    return lp


def _jsd_integrand(y, mu1, mu2, var):
    """0.5 * [p*(log p - log m) + q*(log q - log m)] with m = (p+q)/2, in log
    space and in place: the float array ``y`` is overwritten with the result."""
    lp = _log_pdf(y, mu1, var, out=np.empty_like(y))
    lq = _log_pdf(y, mu2, var, out=y)
    lsum = np.logaddexp(lp, lq)           # log(p + q)
    for lx in (lp, lq):                   # term_p, term_q: exp(lx) * (LN2 + lx - lsum)
        dens = np.exp(lx)
        lx += LN2
        lx -= lsum
        lx *= dens
    lq += lp
    lq *= 0.5
    return lq


def _spans(mu1, mu2, std):
    """One or two integration intervals covering both components to 8 std."""
    lo1, hi1 = mu1 - _SPAN_SIGMAS * std, mu1 + _SPAN_SIGMAS * std
    lo2, hi2 = mu2 - _SPAN_SIGMAS * std, mu2 + _SPAN_SIGMAS * std
    if max(lo1, lo2) <= min(hi1, hi2):
        return [(min(lo1, lo2), max(hi1, hi2))]
    return sorted([(lo1, hi1), (lo2, hi2)])


def _tail_mass(mu, std, spans):
    """Probability of N(mu, std^2) falling outside the integration spans."""
    inside = 0.0
    for lo, hi in spans:
        inside += 0.5 * (math.erf((hi - mu) / (std * math.sqrt(2.0)))
                         - math.erf((lo - mu) / (std * math.sqrt(2.0))))
    return max(0.0, 1.0 - inside)


@functools.cache
def _gauss_legendre():
    """The ``_GL_NODES``-point rule on [-1, 1] as read-only (nodes, weights),
    built on first use and shared by every later call in the process."""
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _edges(lo, hi, panels):
    """``np.linspace(lo, hi, panels + 1)`` bit for bit, in its own arithmetic."""
    edges = np.arange(panels + 1, dtype=np.float64) * ((hi - lo) / panels) + lo
    edges[-1] = hi
    return edges


def _quadrature(p: ToyParams, tol: float) -> JsdEstimate:
    """Composite Gauss-Legendre over the spans, doubling panels until stable."""
    mu1, mu2, var = 0.0, p.a_t * p.theta, p.b_t
    std = math.sqrt(var)
    where = f"toy JSD at theta={p.theta!r}, t={p.t}, tol={tol!r}"
    spans = _spans(mu1, mu2, std)
    # a std-wide panel needs room for its nodes, or they lose the std to rounding
    if math.ulp(max(-spans[0][0], spans[-1][1])) > std / _GL_NODES:
        raise NumericError(f"{where}: the std {std:.3g} spans fewer than {_GL_NODES} "
                           f"rounding steps next to a_t*theta = {mu2:.6g}, so the "
                           "value is unreliable, inside or outside [0, log 2]")
    tail = max(_tail_mass(mu1, std, spans), _tail_mass(mu2, std, spans))
    if tail * LN2 > tol:
        raise NumericError(f"{where}: uncovered tail mass {tail:.3e} exceeds tolerance")
    base_x, base_w = _gauss_legendre()
    # start with panels roughly one std wide so the first pass already resolves
    # the bumps, then double until the value moves less than tol
    panels0 = [max(8, math.ceil((hi - lo) / std)) for lo, hi in spans]
    # depths 0 and 1 share one pass over the integrand, deeper ones take one each
    passes = [range(min(2, _MAX_REFINES + 1))] + [[d] for d in range(2, _MAX_REFINES + 1)]
    prev = None
    for depths in passes:
        blocks = [[(lo, hi, p0 * 2 ** depth) for (lo, hi), p0 in zip(spans, panels0)]
                  for depth in depths]
        half = np.empty(sum(panels for level in blocks for _, _, panels in level))
        mid = np.empty_like(half)
        row = 0
        for level in blocks:
            for lo, hi, panels in level:
                edges = _edges(lo, hi, panels)
                np.subtract(edges[1:], edges[:-1], out=half[row:row + panels])
                np.add(edges[1:], edges[:-1], out=mid[row:row + panels])
                row += panels
        half *= 0.5
        mid *= 0.5
        ys = np.multiply(half[:, None], base_x)
        ys += mid[:, None]
        vals = _jsd_integrand(ys, mu1, mu2, var)
        # one matmul and sum per block, on the rows a pass of its own would see,
        # keeps every block's bits whatever rows the BLAS kernel groups
        row = 0
        for level in blocks:
            total, first = 0.0, row
            for _, _, panels in level:
                block = slice(row, row + panels)
                total += float(np.add.reduce(vals[block] @ base_w * half[block]))
                row += panels
            if prev is not None and abs(total - prev) <= tol:
                value = 0.0 if abs(total) <= tol else total
                if not -tol <= value <= LN2 + tol:     # the std was lost to rounding
                    raise NumericError(f"{where}: the quadrature gave {value!r}, "
                                       "outside [0, log 2]")
                return JsdEstimate(value, "quadrature", (row - first) * base_x.size)
            prev = total
    raise NumericError(
        f"{where}: quadrature did not stabilize after {_MAX_REFINES} refinements")


def jsd_diffused(theta: float, t: int, schedule: DiffusionSchedule,
                 method: str = "quadrature", n: int = 200_000,
                 rng: np.random.Generator = None, tol: float = 1e-12) -> JsdEstimate:
    """JSD between the noised pair at level t >= 1, in nats.

    ``method="quadrature"`` integrates adaptively to ``tol`` (values
    within ``tol`` of zero are clipped to exactly 0); tail mass outside
    the integration spans is accounted and must be negligible.
    ``method="monte_carlo"`` averages the two log-ratio terms over ``n``
    draws per component and reports a standard error; pass ``rng`` for
    control, default is a fixed seed.  Raises ``ValueError`` unless
    ``theta`` is finite and ``tol`` finite and > 0, whichever the method.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    p = ToyParams.at(theta, t, schedule)
    if method == "quadrature":
        return _quadrature(p, tol)

    if method == "monte_carlo":
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
