"""Trainer tests.

The heavy lifting here is the replay oracle: a from-scratch
re-composition of one training step out of the already-tested net /
schedule / policy primitives, following the RNG draw order documented
in the trainer module docstring.  If the trainer consumes randomness in
a different order, scales a gradient differently, or noises real and
fake batches at different levels, the replay diverges bitwise.
"""

import csv
import tracemalloc
from dataclasses import asdict, fields

import numpy as np
import pytest

from noisegan.errors import NumericError
from noisegan.net import AdamState, adam_step, backward, cond_input, forward, init_dense
from noisegan.schedule import build_schedule, diffuse
from noisegan.trainer import (GanConfig, TrainTrace, TraceRow,
                              config_from_dict, d_loss, g_loss, generate,
                              init_train_state, sigmoid, softplus, train,
                              train_step)
from noisegan.tsampler import draw_t, init_policy, observe_d, update_t


def tiny_config(**kw):
    base = dict(total_steps=6, batch_size=4, latent_dim=3, hidden=8,
                lr=1e-3, seed=7, t_min=2, t_max=9, d_target=0.0,
                c_step=2, update_interval=2, t_max_cap=50)
    base.update(kw)
    return GanConfig(**base)


def tiny_data(n=8, dim=2, seed=99):
    return np.random.default_rng(seed).normal(scale=2.0, size=(n, dim))


class TestLosses:
    def test_d_loss_worked_values(self):
        # softplus(-1) + softplus(-1), both batches a single logit
        assert d_loss([1.0], [-1.0]) == pytest.approx(0.6265233750364457, rel=1e-15)
        # indifferent discriminator: 2 ln 2
        assert d_loss([0.0], [0.0]) == pytest.approx(1.3862943611198906, rel=1e-15)
        assert d_loss([1.0], [3.0]) == pytest.approx(3.361849039091965, rel=1e-15)

    def test_d_loss_means_over_rows(self):
        val = d_loss([1.0, 2.0], [0.5, 1.5])
        assert val == pytest.approx(1.5578399803620273, rel=1e-15)

    def test_g_loss_worked_values(self):
        assert g_loss([-2.0]) == pytest.approx(2.1269280110429727, rel=1e-15)
        assert g_loss([1.0, -2.0]) == pytest.approx(1.2200948492805979, rel=1e-15)

    def test_g_loss_of_a_stack_is_per_copy(self):
        logits = np.random.default_rng(3).normal(scale=3.0, size=(2, 3, 128, 1))
        per_copy = g_loss(logits)
        assert per_copy.shape == (2, 3)
        alone = [float(softplus(-f).ravel().mean()) for f in logits.reshape(6, 128, 1)]
        assert per_copy.ravel().tolist() == alone
        assert [g_loss(f) for f in logits.reshape(6, 128, 1)] == alone

    def test_extreme_logits_do_not_overflow(self):
        # a saturated discriminator: exactly zero loss, no inf/nan
        assert d_loss([800.0], [-800.0]) == 0.0
        assert g_loss([800.0]) == 0.0
        # and the losing direction is exactly linear
        assert d_loss([-800.0], [800.0]) == pytest.approx(1600.0, rel=1e-15)
        assert g_loss([-800.0]) == pytest.approx(800.0, rel=1e-15)

    def test_empty_batches_rejected(self):
        with pytest.raises(ValueError):
            d_loss([], [1.0])
        with pytest.raises(ValueError):
            d_loss([1.0], [])
        with pytest.raises(ValueError):
            g_loss([])

    def test_softplus_sigmoid_identities(self):
        x = np.linspace(-30, 30, 7)
        assert softplus(x) == pytest.approx(np.log1p(np.exp(np.minimum(x, 30))) +
                                            np.maximum(x - 30, 0), abs=1e-12)
        assert sigmoid(x) == pytest.approx(1.0 / (1.0 + np.exp(-x)), rel=1e-14)


def replay_diffusion(dataset, cfg, n_steps):
    """Re-compose the training loop from primitives (see module docstring)."""
    rng = np.random.default_rng(cfg.seed)
    dim = dataset.shape[1]
    gen = init_dense([cfg.latent_dim, cfg.hidden, cfg.hidden, dim], rng)
    disc = init_dense([dim + 1, cfg.hidden, cfg.hidden, 1], rng)
    opt_g = AdamState(cfg.lr, cfg.beta1)
    opt_d = AdamState(cfg.lr if cfg.lr_d is None else cfg.lr_d, cfg.beta1)
    sched = build_schedule(cfg)
    pol = init_policy(rng, cfg)
    m = cfg.batch_size
    rows = []
    win = []
    for step in range(1, n_steps + 1):
        z = rng.standard_normal((m, cfg.latent_dim))
        idx = rng.integers(0, dataset.shape[0], size=m)
        real = dataset[idx]
        t = draw_t(pol, rng, m)
        y_real = diffuse(real, t, rng.standard_normal(real.shape), sched)
        x_fake, _ = forward(gen, z)
        y_fake = diffuse(x_fake, t, rng.standard_normal(x_fake.shape), sched)
        feat = t if cfg.t_conditioned else 0
        d_in = np.concatenate([cond_input(y_real, feat, cfg.t_max_cap),
                               cond_input(y_fake, feat, cfg.t_max_cap)])
        logits, dcache = forward(disc, d_in)
        r_log, f_log = logits[:m], logits[m:]
        dl = d_loss(r_log, f_log)
        dgrads, _ = backward(disc, dcache,
                             np.concatenate([-sigmoid(-r_log), sigmoid(f_log)]) / m)
        adam_step(disc, dgrads, opt_d)
        observe_d(pol, sigmoid(r_log))

        z2 = rng.standard_normal((m, cfg.latent_dim))
        x_gen, gcache = forward(gen, z2)
        t2 = draw_t(pol, rng, m)
        y_gen = diffuse(x_gen, t2, rng.standard_normal(x_gen.shape), sched)
        feat2 = t2 if cfg.t_conditioned else 0
        logits2, dcache2 = forward(disc, cond_input(y_gen, feat2, cfg.t_max_cap))
        gl = g_loss(logits2)
        _, in_grad = backward(disc, dcache2, -sigmoid(-logits2) / m)
        x_grad = in_grad[:, :dim] * np.sqrt(
            sched.alpha_bars[t2].astype(np.float64))[:, None]
        ggrads, _ = backward(gen, gcache, x_grad)
        adam_step(gen, ggrads, opt_g)

        win.append((dl, gl, float(sigmoid(r_log).mean()), float(sigmoid(f_log).mean())))
        if step % cfg.update_interval == 0:
            r_d = update_t(pol, rng)
            cols = list(zip(*win))
            rows.append(TraceRow(step, pol.t_current, float(r_d),
                                 float(np.mean(cols[0])), float(np.mean(cols[1])),
                                 float(np.mean(cols[2])), float(np.mean(cols[3]))))
            win.clear()
    return gen, disc, pol, rows


def assert_nets_identical(a, b):
    assert len(a.weights) == len(b.weights)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)


class TestReplayOracle:
    def test_six_steps_match_bitwise(self):
        data = tiny_data()
        for t_conditioned in (True, False):
            cfg = tiny_config(t_conditioned=t_conditioned)
            gen, disc, trace = train(data, cfg)
            rgen, rdisc, rpol, rrows = replay_diffusion(
                data, tiny_config(t_conditioned=t_conditioned), cfg.total_steps)
            assert_nets_identical(gen, rgen)
            assert_nets_identical(disc, rdisc)
            assert len(trace.rows) == len(rrows) == 3
            for got, want in zip(trace.rows, rrows):
                assert got.step == want.step
                assert got.t_ceiling == want.t_ceiling
                assert got.r_d == want.r_d
                assert got.d_loss == want.d_loss
                assert got.g_loss == want.g_loss
                assert got.d_real_mean == want.d_real_mean
                assert got.d_fake_mean == want.d_fake_mean

    def test_split_learning_rates_match_bitwise(self):
        data = tiny_data()
        cfg = tiny_config(lr_d=5e-3)
        gen, disc, _ = train(data, cfg)
        rgen, rdisc, _, _ = replay_diffusion(data, tiny_config(lr_d=5e-3),
                                             cfg.total_steps)
        assert_nets_identical(gen, rgen)
        assert_nets_identical(disc, rdisc)

    def test_ceiling_state_matches(self):
        data = tiny_data()
        cfg = tiny_config(total_steps=8)
        state = init_train_state(data, cfg)
        for _ in range(8):
            train_step(state)
        _, _, rpol, _ = replay_diffusion(data, tiny_config(total_steps=8), 8)
        assert state.policy.t_current == rpol.t_current
        assert np.array_equal(state.policy.explore_levels, rpol.explore_levels)


def replay_vanilla(dataset, cfg, n_steps):
    """A textbook non-saturating GAN, written without any noising code."""
    rng = np.random.default_rng(cfg.seed)
    dim = dataset.shape[1]
    gen = init_dense([cfg.latent_dim, cfg.hidden, cfg.hidden, dim], rng)
    disc = init_dense([dim + 1, cfg.hidden, cfg.hidden, 1], rng)
    opt_g = AdamState(cfg.lr, cfg.beta1)
    opt_d = AdamState(cfg.lr if cfg.lr_d is None else cfg.lr_d, cfg.beta1)
    m = cfg.batch_size
    zeros = np.zeros(m, dtype=np.int64)
    for _ in range(n_steps):
        z = rng.standard_normal((m, cfg.latent_dim))
        idx = rng.integers(0, dataset.shape[0], size=m)
        x_fake, _ = forward(gen, z)
        d_in = np.concatenate([cond_input(dataset[idx], zeros, cfg.t_max_cap),
                               cond_input(x_fake, zeros, cfg.t_max_cap)])
        logits, dcache = forward(disc, d_in)
        r_log, f_log = logits[:m], logits[m:]
        dgrads, _ = backward(disc, dcache,
                             np.concatenate([-sigmoid(-r_log), sigmoid(f_log)]) / m)
        adam_step(disc, dgrads, opt_d)

        z2 = rng.standard_normal((m, cfg.latent_dim))
        x_gen, gcache = forward(gen, z2)
        logits2, dcache2 = forward(disc, cond_input(x_gen, zeros, cfg.t_max_cap))
        _, in_grad = backward(disc, dcache2, -sigmoid(-logits2) / m)
        ggrads, _ = backward(gen, gcache, in_grad[:, :dim])
        adam_step(gen, ggrads, opt_g)
    return gen, disc


class TestVanillaReduction:
    def test_disabled_diffusion_is_a_plain_gan(self):
        data = tiny_data()
        cfg = tiny_config(diffusion_enabled=False, total_steps=5)
        gen, disc, trace = train(data, cfg)
        rgen, rdisc = replay_vanilla(data, tiny_config(diffusion_enabled=False), 5)
        assert_nets_identical(gen, rgen)
        assert_nets_identical(disc, rdisc)

    def test_vanilla_trace_reports_zero_levels(self):
        data = tiny_data()
        _, _, trace = train(data, tiny_config(diffusion_enabled=False, total_steps=4))
        assert [r.t_ceiling for r in trace.rows] == [0, 0]
        assert [r.r_d for r in trace.rows] == [0.0, 0.0]


class TestTrainLoop:
    def test_determinism(self):
        data = tiny_data()
        g1, d1, t1 = train(data, tiny_config(total_steps=8))
        g2, d2, t2 = train(data, tiny_config(total_steps=8))
        assert_nets_identical(g1, g2)
        assert_nets_identical(d1, d2)
        assert [r.__dict__ for r in t1.rows] == [r.__dict__ for r in t2.rows]

    def test_zero_lr_leaves_parameters_at_init(self):
        data = tiny_data()
        cfg = tiny_config(lr=0.0, total_steps=6)
        ref = init_train_state(data, tiny_config(lr=0.0))
        gen, disc, trace = train(data, cfg)
        assert_nets_identical(gen, ref.gen)
        assert_nets_identical(disc, ref.disc)
        assert len(trace.rows) == 3          # trace still produced

    def test_zero_steps(self):
        data = tiny_data()
        gen, disc, trace = train(data, tiny_config(total_steps=0))
        ref = init_train_state(data, tiny_config(total_steps=0))
        assert_nets_identical(gen, ref.gen)
        assert_nets_identical(disc, ref.disc)
        assert trace.rows == []

    def test_trailing_partial_window_is_flushed(self):
        data = tiny_data()
        _, _, trace = train(data, tiny_config(total_steps=5, update_interval=4))
        assert [r.step for r in trace.rows] == [4, 5]
        assert trace.rows[-1].r_d == 0.0

    def test_ceiling_stays_in_bounds_and_moves_by_c(self):
        data = tiny_data()
        cfg = tiny_config(total_steps=60, t_min=2, t_max=9, c_step=3)
        _, _, trace = train(data, cfg)
        ceilings = trace.column("T").astype(int)
        assert ceilings.min() >= 2 and ceilings.max() <= 9
        jumps = np.abs(np.diff(ceilings))
        assert np.all(jumps <= 3)
        r = trace.column("r_d")
        assert np.all((r >= -1.0) & (r <= 1.0))

    def test_non_finite_losses_raise_with_diagnostic_row(self):
        data = tiny_data()
        state = init_train_state(data, tiny_config(diffusion_enabled=False))
        state.disc.biases[-1][:] = np.inf
        with pytest.raises(NumericError, match="non-finite loss at step 1"):
            train_step(state)
        assert len(state.trace.rows) == 1
        assert not np.isfinite(state.trace.rows[0].d_loss)

    def test_t_unconditioned_discriminator_still_trains(self):
        data = tiny_data()
        gen, disc, trace = train(data, tiny_config(t_conditioned=False, total_steps=4))
        assert all(np.isfinite(r.d_loss) and np.isfinite(r.g_loss) for r in trace.rows)
        # level feature column pinned to zero changes the input, so the
        # run must differ from the conditioned one
        gen2, _, _ = train(data, tiny_config(total_steps=4))
        assert not all(np.array_equal(a, b) for a, b in zip(gen.weights, gen2.weights))


class TestInitValidation:
    def test_dataset_shape_and_content(self):
        cfg = tiny_config()
        with pytest.raises(ValueError):
            init_train_state(np.zeros((0, 2)), cfg)
        with pytest.raises(ValueError):
            init_train_state(np.zeros(5), cfg)
        bad = np.zeros((4, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            init_train_state(bad, cfg)

    def test_network_shapes_follow_config(self):
        data = tiny_data(dim=3)
        state = init_train_state(data, tiny_config(latent_dim=5, hidden=6))
        assert state.gen.sizes == [5, 6, 6, 3]
        assert state.disc.sizes == [4, 6, 6, 1]

    @pytest.mark.parametrize("kw", [
        dict(total_steps=-1), dict(batch_size=0), dict(latent_dim=0),
        dict(hidden=0), dict(lr=-1e-3), dict(lr_d=-1e-3),
        dict(beta1=1.0), dict(t_max_cap=0), dict(beta_start=0.0), dict(lr=float("nan")),
        dict(t_max=60, t_max_cap=50),
        dict(lr_d=float("inf")), dict(beta1=5.0), dict(sigma=0.0),
        dict(lr_d=float("nan")), dict(beta_start=float("nan")),
        dict(sigma=-1.0), dict(sigma=float("inf")),
        dict(beta_start=0.5, beta_end=0.1), dict(beta_end=1.0),
    ])
    def test_config_validation(self, kw):
        cfg = tiny_config(**kw)
        with pytest.raises(ValueError):
            cfg.validate()
        with pytest.raises(ValueError):
            init_train_state(tiny_data(), cfg)

    @pytest.mark.parametrize("kw", [
        dict(update_interval=0), dict(t_min=0), dict(t_min=10, t_max=9),
        dict(c_step=0), dict(mode="greedy"), dict(d_target=1.5),
        dict(d_target=float("nan")),
    ])
    @pytest.mark.parametrize("diffusion", [True, False])
    def test_policy_fields_are_checked_for_both_arms(self, kw, diffusion):
        cfg = tiny_config(diffusion_enabled=diffusion, **kw)
        with pytest.raises(ValueError):
            cfg.validate()
        with pytest.raises(ValueError):
            init_train_state(tiny_data(), cfg)

    def test_lr_d_defaults_to_lr(self):
        state = init_train_state(tiny_data(), tiny_config(lr=3e-4))
        assert state.opt_g.lr == state.opt_d.lr == 3e-4

    def test_lr_d_splits_the_optimizers(self):
        state = init_train_state(tiny_data(), tiny_config(lr=3e-4, lr_d=9e-4))
        assert state.opt_g.lr == 3e-4
        assert state.opt_d.lr == 9e-4


class TestConfigPlumbing:
    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys: lr_gg"):
            config_from_dict({"lr_gg": 1e-3})

    def test_asdict_round_trip(self):
        cfg = tiny_config(mode="uniform", sigma=0.25)
        assert config_from_dict(asdict(cfg)) == cfg

    def test_asdict_round_trip_with_lr_d(self):
        cfg = tiny_config(lr_d=7e-4)
        assert config_from_dict(asdict(cfg)) == cfg

    def test_disc_lr_resolves_lr_d_without_being_a_field(self):
        assert tiny_config(lr=3e-4).disc_lr == 3e-4
        assert tiny_config(lr=3e-4, lr_d=9e-4).disc_lr == 9e-4
        assert "disc_lr" not in asdict(tiny_config())


class TestTrace:
    def test_csv_round_trips_floats_exactly(self, tmp_path):
        trace = TrainTrace()
        trace.append(TraceRow(4, 7, -0.125, 1.3862943611198906, 0.1 + 0.2,
                              2.0 / 3.0, 1e-17))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,T,r_d,d_loss,g_loss,d_real_mean,d_fake_mean"
        cells = lines[1].split(",")
        assert int(cells[0]) == 4 and int(cells[1]) == 7
        assert float(cells[2]) == -0.125
        assert float(cells[3]) == 1.3862943611198906
        assert float(cells[4]) == 0.1 + 0.2
        assert float(cells[5]) == 2.0 / 3.0
        assert float(cells[6]) == 1e-17

    def test_column_accessor(self):
        trace = TrainTrace()
        trace.append(TraceRow(4, 5, 0.5, 1.0, 2.0, 0.5, 0.5))
        trace.append(TraceRow(8, 7, 1.0, 1.5, 2.5, 0.6, 0.4))
        assert np.array_equal(trace.column("step"), [4, 8])
        assert np.array_equal(trace.column("T"), [5, 7])
        assert np.array_equal(trace.column("g_loss"), [2.0, 2.5])


CSV_NAMES = [f.metadata.get("csv", f.name) for f in fields(TraceRow)]


class TestTraceSchema:
    """``TraceRow``'s fields are the one source of the trace's columns."""

    def test_csv_header_and_columns_come_from_the_schema(self, tmp_path):
        _, _, trace = train(tiny_data(), tiny_config(total_steps=7, update_interval=3))
        trace.write_csv(tmp_path / "trace.csv")
        with open(tmp_path / "trace.csv", newline="") as fh:
            header, *cells = list(csv.reader(fh))
        assert header == CSV_NAMES == list(TrainTrace.HEADER)
        assert len(cells) == len(trace.rows) == 3
        for name, col in zip(header, zip(*cells)):
            assert [float(c) for c in col] == trace.column(name).tolist()

    def test_unknown_column_names_the_columns(self):
        full = TrainTrace([TraceRow(4, 5, 0.5, 1.0, 2.0, 0.5, 0.5)])
        for trace in (TrainTrace(), full):
            for name in ("t_ceiling", "d_real", "nope"):
                with pytest.raises(ValueError, match=", ".join(CSV_NAMES)):
                    trace.column(name)

    def test_numeric_error_row_holds_that_steps_values(self, tmp_path):
        state = init_train_state(tiny_data(), tiny_config(update_interval=4))
        train_step(state)
        state.disc.biases[-1][:] = np.inf
        with pytest.raises(NumericError, match="non-finite loss at step 2"):
            train_step(state)
        (row,) = state.trace.rows
        assert (row.step, row.t_ceiling, row.r_d) == (2, state.policy.t_current, 0.0)
        # D says 1 to everything at this step alone; a window mean would not
        assert row.d_real_mean == row.d_fake_mean == 1.0
        assert not np.isfinite(row.d_loss)
        for name in CSV_NAMES:      # a number, finite or not, in every column
            assert np.isfinite(state.trace.column(name)).shape == (1,)
        state.trace.write_csv(tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0].split(",") == CSV_NAMES
        assert len(lines[1].split(",")) == len(CSV_NAMES)


class TestGenerate:
    def test_shapes_and_determinism(self):
        state = init_train_state(tiny_data(), tiny_config())
        a = generate(state.gen, 5, np.random.default_rng(3))
        b = generate(state.gen, 5, np.random.default_rng(3))
        assert a.shape == (5, 2)
        assert np.array_equal(a, b)

    def test_zero_samples(self):
        state = init_train_state(tiny_data(), tiny_config())
        out = generate(state.gen, 0, np.random.default_rng(0))
        assert out.shape == (0, 2)

    def test_negative_rejected(self):
        state = init_train_state(tiny_data(), tiny_config())
        with pytest.raises(ValueError):
            generate(state.gen, -1, np.random.default_rng(0))

    def test_working_memory_is_bounded(self):
        # 20k samples through 128-wide layers: 20 MB per whole-batch layer
        # array, where the blocked forward holds two blocks of at most 4 MB
        gen = init_dense([2, 128, 128, 2], np.random.default_rng(5))
        tracemalloc.start()
        try:
            generate(gen, 20_000, np.random.default_rng(6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6
