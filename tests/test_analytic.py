"""Toy-problem divergence lab tests.

Independent oracles used here:

* a 200-node Gauss-Hermite rule (different quadrature family from the
  implementation's composite Gauss-Legendre) for the diffused JSD;
* the Monte-Carlo estimator, cross-checked against quadrature at points
  where both components are actually visited.  At large separations the
  MC terms saturate at log 2 for every draw and the reported standard
  error collapses, so cross-checks carry a 1e-9 absolute floor;
* the trapezoid rule in y over the default sweep (equispaced, another
  family again, and for this analytic integrand exact to rounding at 8
  nodes per std), where the 200-node Gauss-Hermite rule is itself off by
  up to 1.4e-9 (at offsets near 7 stds);
* the implementation's own rule at four times the panels;
* hand-enumerated discrete joints for the mixture identity.
"""

import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import noisegan
from noisegan import analytic
from noisegan.analytic import (LN2, DiscreteJointSpec, JsdEstimate, ToyParams,
                               jsd_diffused, jsd_joint_equality, jsd_original,
                               optimal_discriminator, wasserstein_reference)
from noisegan.config import GanConfig
from noisegan.errors import DataError
from noisegan.schedule import build_schedule


def ramp(sigma):
    """The default ramp (1000 levels, betas 1e-4 to 0.02) at noise scale ``sigma``."""
    return build_schedule(GanConfig(t_max_cap=1000, beta_start=1e-4, beta_end=0.02,
                                    sigma=sigma))


SCHED = ramp(0.05)


def gauss_hermite_jsd(theta, t, nodes=200):
    """Reference value by Gauss-Hermite expectation under each component."""
    p = ToyParams.at(theta, t, SCHED)
    mu1, mu2, var = 0.0, p.a_t * p.theta, p.b_t
    std = math.sqrt(var)
    x, w = np.polynomial.hermite.hermgauss(nodes)

    def lpdf(y, mu):
        return -0.5 * (y - mu) ** 2 / var - 0.5 * np.log(2 * np.pi * var)

    y1 = mu1 + math.sqrt(2.0) * std * x
    y2 = mu2 + math.sqrt(2.0) * std * x
    t1 = LN2 + lpdf(y1, mu1) - np.logaddexp(lpdf(y1, mu1), lpdf(y1, mu2))
    t2 = LN2 + lpdf(y2, mu2) - np.logaddexp(lpdf(y2, mu1), lpdf(y2, mu2))
    return float(0.5 * (w @ t1 + w @ t2) / math.sqrt(math.pi))


def trapezoid_jsd(theta, t):
    """Reference value by the trapezoid rule in y: nodes an eighth of a std
    apart, from 10 stds below the lower mean to 10 stds above the upper."""
    p = ToyParams.at(theta, t, SCHED)
    lo, hi = sorted((0.0, p.a_t * p.theta))
    var = p.b_t
    h = math.sqrt(var) / 8
    y = lo - 80 * h + h * np.arange(math.ceil((hi - lo) / h) + 161)

    def lpdf(mu):
        return -0.5 * (y - mu) ** 2 / var - 0.5 * np.log(2 * np.pi * var)

    lp, lq = lpdf(0.0), lpdf(p.a_t * p.theta)
    lsum = np.logaddexp(lp, lq)
    f = np.exp(lp) * (LN2 + lp - lsum) + np.exp(lq) * (LN2 + lq - lsum)
    return float(0.5 * h * f.sum())


DEFAULT_SWEEP = [(float(theta), t) for t in (1, 50, 200, 800)
                 for theta in np.linspace(-1.0, 1.0, 401)]


def count_integrand(monkeypatch):
    """Route the quadrature's rule through a recorder of the nodes each call
    takes from it; returns the record."""
    rows = []
    inner = analytic._normal_rule

    def counting():
        x, w = inner()
        rows.append(x.size)
        return x, w

    monkeypatch.setattr(analytic, "_normal_rule", counting)
    return rows


class TestOriginalPair:
    def test_zero_offset_is_exactly_zero(self):
        assert jsd_original(0.0) == 0.0
        assert jsd_original(-0.0) == 0.0

    @pytest.mark.parametrize("theta", [0.3, -0.3, 1e-300, -1e-12, 7.0])
    def test_any_other_offset_is_exactly_log2(self, theta):
        assert jsd_original(theta) == LN2

    def test_transport_distance(self):
        assert wasserstein_reference(0.0) == 0.0
        assert wasserstein_reference(-0.75) == 0.75
        assert wasserstein_reference(2.5) == 2.5


class TestToyParamsAt:
    def test_values_follow_schedule(self):
        p = ToyParams.at(0.4, 200, SCHED)
        abar = float(SCHED.alpha_bars[200])
        assert p.a_t == pytest.approx(math.sqrt(abar), rel=1e-15)
        assert p.b_t == pytest.approx((1 - abar) * 0.05 ** 2, rel=1e-15)
        assert p.b_t > 0

    @pytest.mark.parametrize("t", [0, -3, 1001])
    def test_level_bounds(self, t):
        with pytest.raises(ValueError):
            ToyParams.at(0.4, t, SCHED)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_offset_must_be_finite(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            ToyParams.at(theta, 200, SCHED)

    @pytest.mark.parametrize("call", [
        lambda s: ToyParams.at(0.4, 7, s),
        lambda s: jsd_diffused(0.4, 7, s, method="quadrature"),
        lambda s: jsd_diffused(0.4, 7, s, method="monte_carlo", n=100),
        lambda s: optimal_discriminator(np.zeros(3), 0.4, 7, s),
    ], ids=["at", "quadrature", "monte_carlo", "optimal_discriminator"])
    def test_overflowing_noise_variance_names_t_and_sigma(self, call):
        # sigma ** 2 overflows above about 1.34e154
        huge = ramp(1e300)
        with pytest.raises(ValueError, match=r"t=7 with sigma=1e\+300 gives a non-finite"):
            call(huge)
        assert ToyParams.at(0.4, 7, ramp(1e154)).b_t < math.inf

    @pytest.mark.filterwarnings("error")
    def test_largest_finite_variance(self):
        # b_1000 = 1.7e308: the quadrature needs only the offset in stds,
        # while Monte Carlo's squares of draws would overflow, so it refuses
        big = ramp(1.3e154)
        assert 0.0 < jsd_diffused(1e154, 1000, big).value < LN2
        with pytest.raises(ValueError, match=r"t=1000 with sigma=1.3e\+154 .* squared 8-std"):
            jsd_diffused(1e154, 1000, big, method="monte_carlo", n=100)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
class TestNonFiniteOffset:
    """A non-finite offset is refused before any work, with no warning."""

    @pytest.mark.parametrize("method", ["quadrature", "monte_carlo"])
    def test_jsd_diffused(self, monkeypatch, theta, method):
        rows = count_integrand(monkeypatch)
        with pytest.raises(ValueError, match="theta must be finite"):
            jsd_diffused(theta, 200, SCHED, method=method, n=100)
        assert rows == []

    def test_optimal_discriminator(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            optimal_discriminator(np.zeros(3), theta, 200, SCHED)

    def test_jsd_original(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            jsd_original(theta)


class TestQuadrature:
    @pytest.mark.parametrize("t", [1, 50, 200, 800])
    def test_zero_theta_is_exactly_zero(self, t):
        est = jsd_diffused(0.0, t, SCHED)
        assert est.value == 0.0
        assert est.method == "quadrature"
        assert est.n_evals > 0
        assert est.std_err is None

    def test_frozen_values(self):
        # regression anchors, previously cross-checked by Gauss-Hermite
        assert jsd_diffused(0.5, 200, SCHED).value == pytest.approx(
            0.6931471805543956, rel=1e-10)
        assert jsd_diffused(0.1, 800, SCHED).value == pytest.approx(
            0.0007666321990299838, rel=1e-10)
        assert jsd_diffused(0.3, 1000, SCHED).value == pytest.approx(
            0.00018158669158250488, rel=1e-10)
        assert jsd_diffused(0.05, 1000, SCHED).value == pytest.approx(
            5.044965362252394e-06, rel=1e-10)

    @pytest.mark.parametrize("theta,t", [
        (0.5, 200), (0.1, 800), (1.0, 50), (0.3, 1000), (0.02, 900),
    ])
    def test_matches_gauss_hermite(self, theta, t):
        got = jsd_diffused(theta, t, SCHED).value
        assert got == pytest.approx(gauss_hermite_jsd(theta, t), abs=1e-12)

    def test_saturates_at_log2_for_wide_separation(self):
        # at t=1 the noise std is ~5e-4, so theta=1 is thousands of stds
        assert jsd_diffused(1.0, 1, SCHED).value == pytest.approx(LN2, abs=1e-12)

    def test_matches_the_trapezoid_rule_over_the_default_sweep(self):
        for theta, t in DEFAULT_SWEEP:
            got = jsd_diffused(theta, t, SCHED).value
            assert got == pytest.approx(trapezoid_jsd(theta, t), abs=1e-12), (theta, t)

    def test_agrees_with_four_times_the_panels(self, monkeypatch):
        # at half-std panels the rule has converged to rounding
        base = [jsd_diffused(theta, t, SCHED).value for theta, t in DEFAULT_SWEEP]
        monkeypatch.setattr(analytic, "_PANELS", 4 * analytic._PANELS)
        analytic._normal_rule.cache_clear()
        try:
            assert analytic._normal_rule()[0].size == 4 * 544
            fine = [jsd_diffused(theta, t, SCHED).value for theta, t in DEFAULT_SWEEP]
        finally:
            analytic._normal_rule.cache_clear()
        assert max(abs(a - b) for a, b in zip(base, fine)) <= 1e-15

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta,t", [
        (1e11, 1), (2.6e12, 1), (4.5e12, 2), (1e13, 1), (3e13, 1), (1e300, 1),
        (1.7e308, 1), (-1.7e308, 1),
    ])
    def test_large_offsets_give_log2(self, theta, t):
        # thousands of stds apart and beyond: a std lost to rounding next to
        # a_t * theta, or a delta that overflows to inf, changes nothing
        assert jsd_diffused(theta, t, SCHED).value == LN2

    def test_tiny_offsets_stay_in_range(self):
        for theta in (1e-12, -1e-12, 1e-9, -1e-9):
            for t in (1, 50, 200, 800, 1000):
                assert 0.0 <= jsd_diffused(theta, t, SCHED).value <= LN2, (theta, t)
        assert struct.pack("<d", jsd_diffused(-0.0, 50, SCHED).value) == struct.pack(
            "<d", 0.0)

    @pytest.mark.parametrize("theta,t", [(0.5, 200), (1.0, 50), (0.0, 800)])
    def test_one_pass_over_the_rule(self, monkeypatch, theta, t):
        rows = count_integrand(monkeypatch)
        assert jsd_diffused(theta, t, SCHED).n_evals == 544
        assert rows == [544]

    def test_bounded_by_log2_on_grid(self):
        for theta in (0.02, 0.1, 0.5, 1.0, 2.0):
            for t in (1, 10, 100, 500, 900, 1000):
                v = jsd_diffused(theta, t, SCHED).value
                assert 0.0 <= v <= LN2 + 1e-9

    def test_symmetric_in_theta(self):
        for theta, t in ((0.2, 400), (0.7, 900)):
            a = jsd_diffused(theta, t, SCHED).value
            b = jsd_diffused(-theta, t, SCHED).value
            assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.0])
    def test_non_increasing_in_level(self, theta):
        vals = [jsd_diffused(theta, t, SCHED).value for t in (1, 50, 200, 800)]
        for earlier, later in zip(vals, vals[1:]):
            assert later <= earlier + 1e-6

    def test_method_validation(self):
        with pytest.raises(ValueError, match="method"):
            jsd_diffused(0.5, 200, SCHED, method="simpson")


class TestQuadratureRule:
    """The quadrature rule is built once per process, on first use."""

    def test_built_once_across_calls(self, monkeypatch):
        calls = []
        real = np.polynomial.legendre.leggauss

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        analytic._normal_rule.cache_clear()
        try:
            first = jsd_diffused(0.5, 200, SCHED)
            second = jsd_diffused(0.1, 800, SCHED)
        finally:
            analytic._normal_rule.cache_clear()
        assert calls == [16]
        assert (first.value, second.value) == (jsd_diffused(0.5, 200, SCHED).value,
                                               jsd_diffused(0.1, 800, SCHED).value)

    def test_import_builds_no_rule(self):
        code = ("import numpy as np\n"
                "calls = []\n"
                "real = np.polynomial.legendre.leggauss\n"
                "np.polynomial.legendre.leggauss = lambda n: calls.append(n) or real(n)\n"
                "import noisegan, noisegan.analytic as a\n"
                "print(len(calls), a._normal_rule.cache_info().currsize)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(noisegan.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.split() == ["0", "0"]

    def test_rule_is_read_only(self):
        x, w = analytic._normal_rule()
        assert x.shape == w.shape == (544,)
        assert abs(w.sum() - 1.0) <= 1e-15       # the N(0, 1) density is folded in
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[...] = 1.0
        assert analytic._normal_rule()[0] is x


class TestMonteCarlo:
    @pytest.mark.parametrize("theta,t", [(0.05, 1000), (0.1, 800)])
    def test_cross_check_against_quadrature(self, theta, t):
        quad = jsd_diffused(theta, t, SCHED).value
        mc = jsd_diffused(theta, t, SCHED, method="monte_carlo",
                          rng=np.random.default_rng(42))
        assert mc.method == "monte_carlo"
        assert mc.n_evals == 200_000
        assert mc.std_err > 0
        assert abs(mc.value - quad) <= 3 * mc.std_err + 1e-9

    def test_default_rng_is_fixed(self):
        a = jsd_diffused(0.1, 800, SCHED, method="monte_carlo")
        b = jsd_diffused(0.1, 800, SCHED, method="monte_carlo")
        assert a.value == b.value and a.std_err == b.std_err

    def test_saturated_separation_reports_log2(self):
        # the known blind spot: every draw lands where one density dominates
        mc = jsd_diffused(0.5, 200, SCHED, method="monte_carlo", n=10_000)
        assert mc.value == pytest.approx(LN2, abs=1e-9)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            jsd_diffused(0.1, 800, SCHED, method="monte_carlo", n=1)


class TestOptimalDiscriminator:
    def test_flat_half_when_identical(self):
        y = np.array([-2.0, 0.0, 0.013, 5.0])
        out = optimal_discriminator(y, 0.0, 100, SCHED)
        assert np.all(out == 0.5)

    def test_exactly_half_at_midpoint(self):
        p = ToyParams.at(0.8, 300, SCHED)
        out = optimal_discriminator(0.5 * p.a_t * 0.8, 0.8, 300, SCHED)
        assert float(out) == 0.5

    def test_density_ratio_oracle(self):
        theta, t = 0.6, 500
        p = ToyParams.at(theta, t, SCHED)
        ys = np.array([-0.01, 0.0, 0.1, 0.3, 0.6])
        got = optimal_discriminator(ys, theta, t, SCHED)

        def pdf(y, mu):
            return math.exp(-0.5 * (y - mu) ** 2 / p.b_t) / math.sqrt(
                2 * math.pi * p.b_t)

        for y, g in zip(ys, got):
            pr, pg = pdf(y, 0.0), pdf(y, p.a_t * theta)
            assert g == pytest.approx(pr / (pr + pg), rel=1e-12)

    def test_saturates_toward_each_component(self):
        theta, t = 1.0, 600
        p = ToyParams.at(theta, t, SCHED)
        std = math.sqrt(p.b_t)
        far_real = -20 * std
        far_gen = p.a_t * theta + 20 * std
        assert optimal_discriminator(far_real, theta, t, SCHED) > 1 - 1e-9
        assert optimal_discriminator(far_gen, theta, t, SCHED) < 1e-9

    def test_scalar_matches_array(self):
        # a lone y gets the bits it gets inside an array (no scalar power)
        rng = np.random.default_rng(11)
        for theta, t in ((0.3, 10), (-1.2, 400), (0.05, 900)):
            ys = rng.normal(0.0, 0.3, 700)
            batch = optimal_discriminator(ys, theta, t, SCHED)
            alone = np.array([optimal_discriminator(y, theta, t, SCHED) for y in ys])
            assert np.array_equal(alone.view(np.uint64), batch.view(np.uint64))

    def test_preserves_input_shape(self):
        y = np.zeros((3, 2))
        assert optimal_discriminator(y, 0.2, 50, SCHED).shape == (3, 2)

    @pytest.mark.filterwarnings("error")
    def test_finite_at_every_finite_input(self):
        # y whose square overflows, at the default sigma and at a sigma
        # with b_1 = 1.7e304: the log-ratio squares nothing
        big = ramp(1.3e154)
        assert np.array_equal(optimal_discriminator([-1e300, 1e300], 0.5, 50, SCHED),
                              [1.0, 0.0])
        out = optimal_discriminator([-1e300, 0.0, 1e300], 0.5, 1, big)
        assert out[0] > 0.5 > out[2] and np.all(np.isfinite(out))
        assert float(optimal_discriminator(0.0, 0.0, 1, big)) == 0.5


def random_spec(rng, k=4, levels=3):
    def rows(n):
        raw = rng.random((n, k)) + 1e-3
        return raw / raw.sum(axis=1, keepdims=True)

    pi = rng.random(levels) + 1e-3
    return DiscreteJointSpec(support=np.arange(k, dtype=float),
                             pi=pi / pi.sum(),
                             real_cond=rows(levels),
                             gen_cond=rows(levels))


class TestDiscreteJointIdentity:
    def test_hand_enumerated_case(self):
        # level 0 separates the pair completely, level 1 not at all:
        # both sides must equal log(2)/2
        spec = DiscreteJointSpec(
            support=np.array([0.0, 1.0]),
            pi=np.array([0.5, 0.5]),
            real_cond=np.array([[1.0, 0.0], [0.5, 0.5]]),
            gen_cond=np.array([[0.0, 1.0], [0.5, 0.5]]))
        lhs, rhs = jsd_joint_equality(spec)
        assert lhs == pytest.approx(LN2 / 2, rel=1e-15)
        assert rhs == pytest.approx(LN2 / 2, rel=1e-15)
        assert abs(lhs - rhs) <= 1e-15

    def test_identical_conditionals_give_zero(self):
        cond = np.array([[0.25, 0.75], [0.6, 0.4]])
        spec = DiscreteJointSpec(support=np.array([0.0, 1.0]),
                                 pi=np.array([0.3, 0.7]),
                                 real_cond=cond, gen_cond=cond.copy())
        lhs, rhs = jsd_joint_equality(spec)
        assert lhs == 0.0 and rhs == 0.0

    def test_zeros_in_conditionals_are_fine(self):
        spec = DiscreteJointSpec(
            support=np.array([0.0, 1.0, 2.0]),
            pi=np.array([1.0]),
            real_cond=np.array([[0.0, 1.0, 0.0]]),
            gen_cond=np.array([[0.5, 0.0, 0.5]]))
        lhs, rhs = jsd_joint_equality(spec)
        assert lhs == pytest.approx(LN2, rel=1e-14)
        assert abs(lhs - rhs) <= 1e-15

    def test_random_specs_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            spec = random_spec(rng, k=int(rng.integers(2, 6)),
                               levels=int(rng.integers(1, 5)))
            lhs, rhs = jsd_joint_equality(spec)
            assert abs(lhs - rhs) <= 1e-12
            assert -1e-12 <= lhs <= LN2 + 1e-12

    def test_validation_errors(self):
        good = random_spec(np.random.default_rng(0))
        bad_pi = DiscreteJointSpec(good.support, good.pi * 0.9,
                                   good.real_cond, good.gen_cond)
        with pytest.raises(DataError, match="pi sums"):
            jsd_joint_equality(bad_pi)

        neg = DiscreteJointSpec(good.support, good.pi,
                                good.real_cond - 0.5, good.gen_cond)
        with pytest.raises(DataError, match="real_cond"):
            jsd_joint_equality(neg)

        short = DiscreteJointSpec(good.support[:-1], good.pi,
                                  good.real_cond, good.gen_cond)
        with pytest.raises(DataError, match="shapes disagree"):
            jsd_joint_equality(short)

        unnorm = good.real_cond.copy()
        unnorm[1] *= 1.5
        with pytest.raises(DataError, match="row 1"):
            jsd_joint_equality(DiscreteJointSpec(good.support, good.pi,
                                                 unnorm, good.gen_cond))

        with pytest.raises(DataError, match="rank"):
            jsd_joint_equality(DiscreteJointSpec(
                good.support, good.pi, good.real_cond[0], good.gen_cond))


class TestEstimateContainer:
    def test_fields(self):
        est = JsdEstimate(0.5, "quadrature", 128)
        assert est.std_err is None
        assert (est.value, est.method, est.n_evals) == (0.5, "quadrature", 128)
