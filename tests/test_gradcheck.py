"""The path check audits the generator objective that training runs.

``gradcheck.check_gen_path`` differentiates ``trainer.generator_loss``
and compares it with ``trainer.generator_grads``, and ``train_step``
takes its generator gradient from ``trainer.generator_grads``.  A wrong
gradient in the trainer therefore fails the audit.
"""

import numpy as np
import pytest

from noisegan import trainer
from noisegan.gradcheck import check_gen_path, run_suite
from noisegan.schedule import build_schedule

SCHEDULE = build_schedule()


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
