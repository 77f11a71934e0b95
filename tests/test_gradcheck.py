"""The audit itself: its stacked finite differences and what it checks.

``gradcheck.check_gen_path`` differentiates ``trainer.generator_loss``
and compares it with ``trainer.generator_grads``, and ``train_step``
takes its generator gradient from ``trainer.generator_grads``.  A wrong
gradient in the trainer therefore fails the audit.

The stacked finite differences are checked bit for bit against the
one-coordinate reference ``fd_on_coords``, and the checks' errors
against the checks as they ran before stacking (``reference_*``), all
kept below.
"""

import numpy as np
import pytest

from noisegan import gradcheck, trainer
from noisegan.gradcheck import (DISC_SIZES, GEN_SIZES, SMALL_SIZES, _central,
                                _clear, check_gen_path, check_isolated,
                                fd_stacked, pick_coords, random_net, rel_err,
                                run_suite, weighted_sum)
from noisegan.net import backward, forward
from noisegan.schedule import build_schedule

SCHEDULE = build_schedule()
ALL_SIZES = [*SMALL_SIZES, GEN_SIZES, DISC_SIZES]
H = 1e-5


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype == np.float64
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def fd_on_coords(loss_fn, net, coords, h=H) -> np.ndarray:
    """Central differences of ``loss_fn()`` along the given coordinates of
    ``net.flat``, nudging one entry at a time in place and restoring it:
    the one-coordinate reference for ``fd_stacked``."""
    flat = net.flat
    out = np.empty(len(coords))
    for j, c in enumerate(coords):
        keep = flat[c]
        try:
            flat[c] = keep + h
            up = loss_fn()
            flat[c] = keep - h
            down = loss_fn()
        finally:
            flat[c] = keep
        out[j] = (up - down) / (2.0 * h)
    return out


def isolated_case(sizes, seed):
    """``check_isolated``'s draws: net, batch, its forward cache, output
    coefficients and the audited coordinates."""
    rng = np.random.default_rng(seed)
    net = random_net(sizes, rng)
    while True:
        x = rng.uniform(-2.0, 2.0, (gradcheck._BATCH, sizes[0]))
        out, cache = forward(net, x)
        if _clear(cache.preacts[:-1]):
            break
    coefs = rng.uniform(-1.0, 1.0, out.shape)
    return net, x, cache, coefs, pick_coords(net, rng, gradcheck._PER_LAYER)


def path_case(t, seed, t_conditioned):
    """``check_gen_path``'s draws and analytic side."""
    rng = np.random.default_rng(seed)
    gen, disc = random_net(GEN_SIZES, rng), random_net(DISC_SIZES, rng)
    n = gradcheck._BATCH
    t_arr = np.full(n, t, dtype=np.int64)
    while True:
        z = rng.standard_normal((n, GEN_SIZES[0]))
        eps = rng.standard_normal((n, GEN_SIZES[-1]))
        _, analytic, (gcache, dcache) = trainer.generator_grads(
            gen, disc, z, t_arr, eps, SCHEDULE, t_conditioned)
        if _clear(gcache.preacts[:-1], dcache.preacts[:-1]):
            break
    coords = pick_coords(gen, rng, gradcheck._PER_LAYER)
    return gen, disc, z, t_arr, eps, analytic, gcache, coords


def reference_isolated(sizes, seed):
    """``check_isolated`` one coordinate at a time, nudging in place:
    (max relative error, parameter FD, input FD)."""
    net, x, cache, coefs, coords = isolated_case(sizes, seed)

    def loss():
        return float(np.sum(coefs * forward(net, x, cache=False)[0]))

    analytic, x_grad = backward(net, cache, coefs)
    fd = fd_on_coords(loss, net, coords, H)
    fd_x = np.empty(x.size)
    flat = x.ravel()
    for c in range(x.size):
        keep = flat[c]
        flat[c] = keep + H
        up = loss()
        flat[c] = keep - H
        down = loss()
        flat[c] = keep
        fd_x[c] = (up - down) / (2.0 * H)
    err = max(rel_err(analytic[coords], fd), rel_err(x_grad.ravel(), fd_x))
    return err, fd, fd_x


def reference_gen_path(t, seed, t_conditioned):
    """``check_gen_path`` one coordinate at a time: (error, FD)."""
    gen, disc, z, t_arr, eps, analytic, _, coords = path_case(t, seed, t_conditioned)
    fd = fd_on_coords(lambda: trainer.generator_loss(gen, disc, z, t_arr, eps, SCHEDULE,
                                                     t_conditioned), gen, coords, H)
    return rel_err(analytic[coords], fd), fd


@pytest.mark.parametrize("sizes", ALL_SIZES, ids=lambda s: "x".join(map(str, s)))
def test_isolated_stacked_fd_is_the_one_coordinate_fd(sizes):
    for seed in (0, 7):
        err, fd, fd_x = reference_isolated(sizes, seed)
        net, x, cache, coefs, coords = isolated_case(sizes, seed)

        def objective(out):
            return weighted_sum(coefs, out)

        assert same_bits(fd_stacked(objective, net, cache.inputs, coords, H), fd)
        assert same_bits(_central(lambda xs: objective(forward(net, xs, cache=False)[0]),
                                  x, np.arange(x.size), H), fd_x)
        assert check_isolated(sizes, seed) == err


@pytest.mark.parametrize("t_conditioned", [True, False])
@pytest.mark.parametrize("t", [0, 5, 100])
def test_path_stacked_fd_is_the_one_coordinate_fd(t, t_conditioned):
    seed = 1000 + t
    err, fd = reference_gen_path(t, seed, t_conditioned)
    gen, disc, _, t_arr, eps, _, gcache, coords = path_case(t, seed, t_conditioned)
    got = fd_stacked(lambda out: trainer.generator_objective(
        disc, out, t_arr, eps, SCHEDULE, t_conditioned), gen, gcache.inputs, coords, H)
    assert same_bits(got, fd)
    assert check_gen_path(SCHEDULE, t, seed, t_conditioned=t_conditioned) == err


def test_stacked_fd_takes_coordinates_in_any_order():
    net, x, cache, coefs, coords = isolated_case([2, 16, 2], 3)
    coords = np.random.default_rng(4).permutation(coords)[:21]   # not a whole pass

    def objective(out):
        return weighted_sum(coefs, out)

    want = fd_on_coords(lambda: objective(forward(net, x, cache=False)[0]), net, coords, H)
    assert same_bits(fd_stacked(objective, net, cache.inputs, coords, H), want)
    assert fd_stacked(objective, net, cache.inputs, [], H).shape == (0,)


def test_generator_objective_of_a_stack_is_per_copy():
    gen, disc, z, t_arr, eps, _, gcache, _ = path_case(5, 1005, True)
    xs = forward(gen, z)[0] + np.random.default_rng(5).normal(scale=0.1, size=(4, 8, 2))
    for e in (eps, None):
        losses = trainer.generator_objective(disc, xs, t_arr, e, SCHEDULE, True)
        assert losses.shape == (4,)
        assert losses.tolist() == [trainer.generator_objective(disc, x, t_arr, e,
                                                               SCHEDULE, True)
                                   for x in xs]


def test_checks_only_read_the_nets_and_batches(monkeypatch):
    seen = []

    def keep(*arrays):
        seen.extend((a, a.copy()) for a in arrays)

    real_net, real_forward, real_grads = (gradcheck.random_net, gradcheck.forward,
                                          trainer.generator_grads)

    def net_spy(*args):
        net = real_net(*args)
        keep(net.flat)
        return net

    def forward_spy(net, x, cache=True):
        if cache:
            keep(x)
        return real_forward(net, x, cache)

    def grads_spy(gen, disc, z, t, eps, *rest):
        keep(z, t, eps)
        return real_grads(gen, disc, z, t, eps, *rest)

    monkeypatch.setattr(gradcheck, "random_net", net_spy)
    monkeypatch.setattr(gradcheck, "forward", forward_spy)
    monkeypatch.setattr(trainer, "generator_grads", grads_spy)
    check_isolated(GEN_SIZES, seed=2)
    check_gen_path(SCHEDULE, 100, seed=1002)
    # one net and one batch or more (redraws), then two nets and z, t, eps
    assert len(seen) >= 1 + 1 + 2 + 3
    assert all(now.tobytes() == then.tobytes() for now, then in seen)


def test_scaled_trainer_gradient_fails_the_path_check(monkeypatch):
    assert check_gen_path(SCHEDULE, 100, seed=1000) <= 1e-5
    real = trainer.generator_grads

    def scaled(*args):
        gl, grads, caches = real(*args)
        return gl, grads * 1.001, caches

    monkeypatch.setattr(trainer, "generator_grads", scaled)
    assert check_gen_path(SCHEDULE, 100, seed=1000) > 1e-5


@pytest.mark.parametrize("t", [0, 100])
def test_unconditioned_level_feature_passes(t):
    assert check_gen_path(SCHEDULE, t, seed=1000, t_conditioned=False) <= 1e-5


def test_suite_rows_leave_out_the_unconditioned_check():
    rows, _, _ = run_suite(build_schedule(t_max_cap=20), n_seeds=1, path_levels=(5,))
    assert [r["check"] for r in rows] == ["isolated"] * 5 + ["path"]


def test_train_step_uses_generator_grads(monkeypatch):
    calls = []
    real = trainer.generator_grads

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(trainer, "generator_grads", spy)
    data = np.random.default_rng(0).normal(size=(16, 2))
    for diffusion in (True, False):
        cfg = trainer.GanConfig(total_steps=1, batch_size=4, hidden=4, t_max_cap=20,
                                t_max=20, diffusion_enabled=diffusion)
        state = trainer.init_train_state(data, cfg)
        trainer.train_step(state)
        gen, disc, z, t, eps, schedule, t_conditioned = calls.pop()
        assert gen is state.gen and disc is state.disc and schedule is state.schedule
        assert z.shape == (4, 2) and t.shape == (4,) and t_conditioned
        assert (eps is None) == (not diffusion)
    assert calls == []


@pytest.mark.parametrize("kw", [dict(n_seeds=0), dict(n_seeds=-1),
                                dict(path_levels=()), dict(path_levels=[])])
def test_suite_refuses_to_check_nothing(kw):
    with pytest.raises(ValueError, match="n_seeds|path_levels"):
        run_suite(build_schedule(t_max_cap=20), **{"n_seeds": 1, **kw})
