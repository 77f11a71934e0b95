"""Level weights, the exploration list, and the adaptive ceiling."""

import numpy as np
import pytest

from noisegan import (GanConfig, draw_t, init_policy, level_weights, observe_d,
                      resample_levels, update_t)
from noisegan.tsampler import EXPLORE_SIZE, ZERO_HALF


class TestLevelWeights:
    def test_uniform_examples(self):
        assert level_weights(1, "uniform") == pytest.approx([1.0])
        assert level_weights(3, "uniform") == pytest.approx([1 / 3] * 3)

    def test_priority_examples(self):
        assert level_weights(1, "priority") == pytest.approx([1.0])
        assert level_weights(4, "priority") == pytest.approx([0.1, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize("mode", ["uniform", "priority"])
    def test_sums_to_one_for_all_ceilings(self, mode):
        for t in range(1, 1001):
            w = level_weights(t, mode)
            assert w.shape == (t,)
            assert w.min() > 0.0
            assert abs(w.sum() - 1.0) < 1e-12

    def test_priority_is_increasing(self):
        w = level_weights(100, "priority")
        assert np.all(np.diff(w) > 0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            level_weights(0, "uniform")
        with pytest.raises(ValueError):
            level_weights(5, "linear")


class TestResampleAndDraw:
    def test_structure_half_zero_half_bounded(self):
        rng = np.random.default_rng(0)
        p = init_policy(rng, GanConfig(t_min=5, t_max=1000))
        assert p.explore_levels.shape == (EXPLORE_SIZE,)
        assert np.all(p.explore_levels[:ZERO_HALF] == 0)
        live = p.explore_levels[ZERO_HALF:]
        assert live.min() >= 1 and live.max() <= p.t_current

    def test_ceiling_one_gives_all_ones(self):
        rng = np.random.default_rng(1)
        p = init_policy(rng, GanConfig(t_min=1, t_max=10))
        assert p.t_current == 1
        assert np.all(p.explore_levels[ZERO_HALF:] == 1)

    def test_priority_frequency_oracle(self):
        # ceiling 10, priority: P(level = 10) = 10/55; binomial 3-sigma band
        rng = np.random.default_rng(2)
        p = init_policy(rng, GanConfig(t_min=10, t_max=10, mode="priority"))
        n_resamples = 5000
        hits = total = 0
        for _ in range(n_resamples):
            resample_levels(p, rng)
            hits += int((p.explore_levels[ZERO_HALF:] == 10).sum())
            total += EXPLORE_SIZE - ZERO_HALF
        prob = 10 / 55
        se = np.sqrt(prob * (1 - prob) / total)
        assert abs(hits / total - prob) < 3 * se

    def test_uniform_frequency_oracle(self):
        rng = np.random.default_rng(3)
        p = init_policy(rng, GanConfig(t_min=8, t_max=8, mode="uniform"))
        hits = total = 0
        for _ in range(5000):
            resample_levels(p, rng)
            hits += int((p.explore_levels[ZERO_HALF:] == 3).sum())
            total += EXPLORE_SIZE - ZERO_HALF
        prob = 1 / 8
        se = np.sqrt(prob * (1 - prob) / total)
        assert abs(hits / total - prob) < 3 * se

    def test_draw_t_uniform_over_list(self):
        rng = np.random.default_rng(4)
        p = init_policy(rng, GanConfig(t_min=9, t_max=9))
        n = 100000
        draws = draw_t(p, rng, n)
        assert set(np.unique(draws)) <= set(np.unique(p.explore_levels))
        # zero half: P(0) = 1/2 up to 3 sigma
        se = np.sqrt(0.25 / n)
        assert abs((draws == 0).mean() - 0.5) < 3 * se

    def test_draw_t_empty_and_negative(self):
        rng = np.random.default_rng(5)
        p = init_policy(rng, GanConfig(t_min=2, t_max=4))
        assert draw_t(p, rng, 0).shape == (0,)
        with pytest.raises(ValueError):
            draw_t(p, rng, -1)

    def test_determinism(self):
        p1 = init_policy(np.random.default_rng(7), GanConfig(t_min=50, t_max=100))
        p2 = init_policy(np.random.default_rng(7), GanConfig(t_min=50, t_max=100))
        assert np.array_equal(p1.explore_levels, p2.explore_levels)


class TestObserveUpdate:
    def make(self, rng=None, **kw):
        kw.setdefault("t_min", 5)
        kw.setdefault("t_max", 1000)
        return init_policy(rng or np.random.default_rng(0), GanConfig(**kw))

    def test_confident_window_raises_ceiling(self):
        p = self.make()
        rng = np.random.default_rng(1)
        observe_d(p, np.full(64, 0.9))     # all signs +1 -> r_d = 1
        r_d = update_t(p, rng)
        assert r_d == 1.0
        assert p.t_current == 7            # 5 + sign(1 - 0.6) * 2

    def test_weak_window_lowers_and_clamps(self):
        p = self.make()
        rng = np.random.default_rng(2)
        observe_d(p, np.full(16, 0.1))     # r_d = -1 -> step -2, clamped at t_min
        assert update_t(p, rng) == -1.0
        assert p.t_current == 5

    def test_exact_target_freezes(self):
        p = self.make(d_target=0.5)
        rng = np.random.default_rng(3)
        observe_d(p, np.array([1.0, 0.0, 1.0, 1.0]))   # signs 1,-1,1,1 -> mean 0.5
        assert update_t(p, rng) == 0.5
        assert p.t_current == 5            # sign(0) = 0: frozen

    def test_half_probability_contributes_zero_sign(self):
        p = self.make(d_target=0.0)
        rng = np.random.default_rng(4)
        observe_d(p, np.array([0.5, 0.5]))  # signs 0,0 -> r_d = 0 -> frozen
        assert update_t(p, rng) == 0.0
        assert p.t_current == 5

    def test_clamps_at_t_max(self):
        p = self.make(t_min=1, t_max=6, c_step=10)
        rng = np.random.default_rng(5)
        observe_d(p, np.full(4, 1.0))
        update_t(p, rng)
        assert p.t_current == 6

    def test_scripted_trajectory_exact(self):
        # windows with known r_d signs give an exact integer ceiling path
        p = self.make()
        rng = np.random.default_rng(6)
        # window r_d values: 1, 1, 1, 0.5; with d_target 0.6 and c_step 2
        # the ceiling follows 5 -> 7 -> 9 -> 11 -> 9
        script = [
            (np.full(8, 0.9), 7),
            (np.full(8, 0.9), 9),
            (np.full(8, 0.9), 11),
            (np.array([0.9, 0.9, 0.9, 0.1]), 9),
        ]
        for window, want in script:
            observe_d(p, window)
            update_t(p, rng)
            assert p.t_current == want

    def test_window_is_order_independent(self):
        rng = np.random.default_rng(8)
        probs = rng.uniform(0, 1, 128)
        p1, p2 = self.make(), self.make()
        observe_d(p1, probs)
        observe_d(p2, probs[::-1])
        assert p1._sign_sum == p2._sign_sum
        # feeding in two chunks also matches
        p3 = self.make()
        observe_d(p3, probs[:50])
        observe_d(p3, probs[50:])
        assert p3._sign_sum == p1._sign_sum

    def test_update_resets_window_and_resamples(self):
        p = self.make(t_min=100, t_max=1000)
        rng = np.random.default_rng(9)
        before = p.explore_levels.copy()
        observe_d(p, np.full(4, 0.9))
        update_t(p, rng)
        assert p._sign_count == 0
        assert not np.array_equal(p.explore_levels, before)
        with pytest.raises(ValueError):
            update_t(p, rng)    # empty window

    def test_observe_rejects_bad_values(self):
        p = self.make()
        with pytest.raises(ValueError):
            observe_d(p, np.array([0.5, np.nan]))
        with pytest.raises(ValueError):
            observe_d(p, np.array([1.2]))
        with pytest.raises(ValueError):
            observe_d(p, np.array([-0.1]))
        observe_d(p, np.array([]))   # no-op
        assert p._sign_count == 0

    def test_r_d_bounded(self):
        rng = np.random.default_rng(10)
        p = self.make()
        for _ in range(50):
            observe_d(p, rng.uniform(0, 1, 32))
            assert -1.0 <= update_t(p, rng) <= 1.0
            assert p.config.t_min <= p.t_current <= p.config.t_max


class TestPolicyValidation:
    @pytest.mark.parametrize("kw", [
        dict(t_min=0, t_max=10),
        dict(t_min=11, t_max=10),
        dict(t_min=1, t_max=5, c_step=0),
        dict(t_min=1, t_max=5, mode="other"),
        dict(t_min=1, t_max=5, d_target=1.5),
        dict(t_min=1, t_max=5, d_target=float("nan")),
    ])
    def test_rejects(self, kw):
        # the settings are checked by their config, not by the policy
        with pytest.raises(ValueError):
            GanConfig(**kw).validate()
