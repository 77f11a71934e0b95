"""Schedule construction, the closed-form noising map, and the chain."""

from decimal import Decimal, getcontext

import numpy as np
import pytest

from noisegan import build_schedule, diffuse, diffuse_chain

getcontext().prec = 60


def abar_oracle(t, cap=1000, b0=1e-4, b1=0.02):
    """Independent check: plain product loop in 60-digit decimal."""
    betas = np.linspace(b0, b1, cap)
    acc = Decimal(1)
    for s in range(t):
        acc *= Decimal(1) - Decimal(float(betas[s]))
    return acc


# values frozen from abar_oracle at the default schedule
ABAR_FROZEN = {
    1: 0.9999,
    2: 0.9997800920720721,
    50: 0.9710157229394405,
    200: 0.6590385082317941,
    500: 0.07858724288177825,
    1000: 4.035829765375685e-05,
}


class TestBuildSchedule:
    def test_endpoints_are_exact(self):
        s = build_schedule()
        assert s.betas[1] == 1e-4
        assert s.betas[1000] == 0.02
        assert float(s.alpha_bars[0]) == 1.0

    def test_against_product_oracle(self):
        s = build_schedule()
        for t, frozen in ABAR_FROZEN.items():
            got = float(s.alpha_bars[t])
            assert got == pytest.approx(frozen, rel=1e-15, abs=0.0)
            # and the frozen value itself still matches the oracle
            assert float(abar_oracle(t)) == pytest.approx(frozen, rel=1e-15, abs=0.0)

    def test_recurrence_within_one_ulp_of_accumulation(self):
        s = build_schedule()
        ab = s.alpha_bars
        for t in range(1, s.t_max_cap + 1):
            prev = ab[t - 1] * (np.longdouble(1.0) - np.longdouble(s.betas[t]))
            assert abs(ab[t] - prev) <= np.spacing(prev)

    def test_betas_increase_and_alpha_bars_decrease(self):
        s = build_schedule()
        assert np.all(np.diff(s.betas[1:]) > 0)
        assert np.all(np.diff(s.alpha_bars) < 0)
        assert 0.0 < float(s.alpha_bars[-1]) < 1.0

    def test_small_cap(self):
        s = build_schedule(t_max_cap=1, beta_start=0.3, beta_end=0.3, sigma=1.0)
        assert s.betas[1] == 0.3
        assert float(s.alpha_bars[1]) == pytest.approx(0.7, rel=1e-18)

    @pytest.mark.parametrize("kwargs", [
        dict(t_max_cap=0),
        dict(beta_start=0.0),
        dict(beta_start=0.03, beta_end=0.02),
        dict(beta_end=1.0),
        dict(sigma=0.0),
        dict(sigma=-1.0),
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            build_schedule(**kwargs)

    def test_arrays_are_read_only(self):
        s = build_schedule()
        with pytest.raises(ValueError):
            s.betas[1] = 0.5


    def test_coefficient_tables(self):
        s = build_schedule(sigma=0.3)
        a = s.alpha_bars.astype(np.float64)
        assert np.array_equal(s.keep, np.sqrt(a))
        assert np.array_equal(s.noise, np.sqrt(1.0 - a) * 0.3)
        assert s.keep.dtype == s.noise.dtype == np.float64
        assert s.keep[0] == 1.0 and s.noise[0] == 0.0
        for table in (s.keep, s.noise):
            with pytest.raises(ValueError):
                table[1] = 0.0


class TestDiffuse:
    def test_matches_textbook_formula_bitwise(self):
        # the formula as it reads, with the longdouble table cast per call
        s = build_schedule()
        rng = np.random.default_rng(8)
        x, eps = rng.standard_normal((64, 2)), rng.standard_normal((64, 2))
        t = rng.integers(0, s.t_max_cap + 1, size=64)
        a = s.alpha_bars[t].astype(np.float64)[:, None]
        want = np.sqrt(a) * x + np.sqrt(1.0 - a) * s.sigma * eps
        assert np.array_equal(diffuse(x, t, eps, s), want)
        a0 = s.alpha_bars[417].astype(np.float64)
        assert np.array_equal(diffuse(x, np.int64(417), eps, s),
                              np.sqrt(a0) * x + np.sqrt(1.0 - a0) * s.sigma * eps)

    def test_level_zero_is_identity(self):
        s = build_schedule()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 2))
        y = diffuse(x, np.zeros(7, dtype=np.int64), rng.standard_normal((7, 2)), s)
        assert np.array_equal(y, x)

    def test_zero_noise_scales_by_sqrt_alpha_bar(self):
        s = build_schedule()
        x = np.array([2.0, -3.0])
        y = diffuse(x, np.int64(200), np.zeros(2), s)
        keep = np.sqrt(ABAR_FROZEN[200])
        assert y == pytest.approx([2.0 * keep, -3.0 * keep], rel=1e-15)

    def test_worked_example_t50(self):
        # x=(1,0), eps=(1,1): frozen from the oracle alpha_bar at t=50
        s = build_schedule()
        y = diffuse(np.array([1.0, 0.0]), np.int64(50), np.array([1.0, 1.0]), s)
        assert y[0] == pytest.approx(0.9939136851185559, rel=1e-15, abs=0.0)
        assert y[1] == pytest.approx(0.008512384663030611, rel=1e-15, abs=0.0)

    def test_per_row_levels(self):
        s = build_schedule()
        x = np.ones((3, 2))
        eps = np.ones((3, 2))
        t = np.array([0, 50, 50])
        y = diffuse(x, t, eps, s)
        assert np.array_equal(y[0], x[0])
        assert np.array_equal(y[1], y[2])
        single = diffuse(x[1], np.int64(50), eps[1], s)
        assert np.array_equal(y[1], single)

    def test_moments_match_closed_form(self):
        # 10^6 draws at a fixed point: mean and variance within 3 standard errors
        s = build_schedule()
        rng = np.random.default_rng(42)
        n = 1_000_000
        x = np.array([2.0, -1.0])
        for t in (1, 100, 500):
            eps = rng.standard_normal((n, 2))
            a = float(s.alpha_bars[t])
            y = diffuse(np.tile(x, (n, 1)), np.full(n, t), eps, s)
            want_mean = np.sqrt(a) * x
            want_var = (1.0 - a) * s.sigma ** 2
            se_mean = np.sqrt(want_var / n)
            se_var = want_var * np.sqrt(2.0 / (n - 1))
            assert np.all(np.abs(y.mean(axis=0) - want_mean) < 3 * se_mean)
            assert np.all(np.abs(y.var(axis=0) - want_var) < 3 * se_var)

    def test_jacobian_wrt_x_is_sqrt_alpha_bar(self):
        s = build_schedule()
        h = 1e-5
        for t in (1, 200, 1000):
            keep = np.sqrt(float(s.alpha_bars[t]))
            for j in range(2):
                xp = np.array([0.5, -0.25])
                xm = xp.copy()
                xp[j] += h
                xm[j] -= h
                eps = np.array([0.3, 0.7])
                col = (diffuse(xp, np.int64(t), eps, s)
                       - diffuse(xm, np.int64(t), eps, s)) / (2 * h)
                want = np.zeros(2)
                want[j] = keep
                assert col == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_stack_is_noised_per_copy(self):
        # a (k, n, d) stack with per-row levels shared by every copy, and
        # either one shared noise draw or one per copy
        s = build_schedule()
        rng = np.random.default_rng(9)
        xs = rng.standard_normal((5, 8, 2))
        t = rng.integers(0, s.t_max_cap + 1, size=8)
        eps = rng.standard_normal((8, 2))
        each = rng.standard_normal((5, 8, 2))
        for level in (t, np.int64(417)):
            shared = diffuse(xs, level, eps, s)
            own = diffuse(xs, level, each, s)
            for k, x in enumerate(xs):
                assert np.array_equal(shared[k], diffuse(x, level, eps, s))
                assert np.array_equal(own[k], diffuse(x, level, each[k], s))
        with pytest.raises(ValueError, match="eps shape"):
            diffuse(xs, t, eps[:7], s)
        with pytest.raises(ValueError, match="per-row t"):
            diffuse(xs, t[:5], eps, s)

    @pytest.mark.parametrize("t", [-1, 1001])
    def test_rejects_out_of_range_level(self, t):
        s = build_schedule()
        with pytest.raises(ValueError):
            diffuse(np.zeros(2), np.int64(t), np.zeros(2), s)

    def test_rejects_float_level_and_bad_shapes(self):
        s = build_schedule()
        with pytest.raises(ValueError):
            diffuse(np.zeros(2), 1.5, np.zeros(2), s)
        with pytest.raises(ValueError):
            diffuse(np.zeros((4, 2)), np.int64(1), np.zeros((3, 2)), s)
        with pytest.raises(ValueError):
            diffuse(np.zeros((4, 2)), np.array([1, 2]), np.zeros((4, 2)), s)


class TestDiffuseChain:
    def test_zero_steps_copies(self):
        s = build_schedule()
        x = np.array([1.0, 2.0])
        y = diffuse_chain(x, 0, np.random.default_rng(0), s)
        assert np.array_equal(y, x)
        assert y is not x

    def test_chain_matches_closed_form_distribution(self):
        # same marginal as diffuse: mean/var of 10^6 chains within 3 SE
        s = build_schedule()
        x = np.array([2.0, -1.0])
        n = 1_000_000
        for t, seed in ((1, 0), (10, 1)):
            rng = np.random.default_rng(seed)
            y = diffuse_chain(np.tile(x, (n, 1)), t, rng, s)
            a = float(s.alpha_bars[t])
            want_mean = np.sqrt(a) * x
            want_var = (1.0 - a) * s.sigma ** 2
            se_mean = np.sqrt(want_var / n)
            se_var = want_var * np.sqrt(2.0 / (n - 1))
            assert np.all(np.abs(y.mean(axis=0) - want_mean) < 3 * se_mean)
            assert np.all(np.abs(y.var(axis=0) - want_var) < 3 * se_var)

    def test_deterministic_given_seed(self):
        s = build_schedule()
        x = np.ones((5, 2))
        y1 = diffuse_chain(x, 7, np.random.default_rng(3), s)
        y2 = diffuse_chain(x, 7, np.random.default_rng(3), s)
        assert np.array_equal(y1, y2)
