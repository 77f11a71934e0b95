"""Acceptance gate: the nine package-level criteria.

Each test prints exactly one line

    ACCEPTANCE <id>: PASS|FAIL (<details>)

before asserting, so a plain ``pytest tests/test_acceptance.py -s``
reads as a checklist.  Tests are ordered cheap-to-expensive; the full
gate (dominated by the six 20k-step benchmark runs) takes about 12
minutes on a 2-core machine with one BLAS thread.
"""

import math
import time

import numpy as np
import pytest

from noisegan.analytic import (LN2, DiscreteJointSpec, jsd_diffused,
                               jsd_joint_equality, jsd_original)
from noisegan.cli import main as cli_main
from noisegan.data import coverage, grid_25, sample_grid
from noisegan.gradcheck import run_suite
from noisegan.schedule import build_schedule, diffuse_chain
from noisegan.trainer import GanConfig, generate, train
from noisegan.tsampler import init_policy, observe_d, update_t

SCHED = build_schedule(GanConfig(t_max_cap=1000, beta_start=1e-4, beta_end=0.02,
                                 sigma=0.05))


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# --------------------------------------------------------------- A2 / A3

def test_a2_toy_jsd_endpoints():
    ok = jsd_original(0.0) == 0.0
    for theta in (0.3, -0.3, 1e-9, 2.0):
        ok = ok and jsd_original(theta) == LN2

    worst_zero = 0.0
    for t in (1, 50, 200, 800):
        worst_zero = max(worst_zero, abs(jsd_diffused(0.0, t, SCHED).value))
    ok = ok and worst_zero <= 1e-10

    # the default sweep grid: 401 offsets x the default level list
    thetas = np.linspace(-1.0, 1.0, 401)
    high = 0.0
    for t in (0, 1, 50, 200, 800):
        for theta in thetas:
            v = jsd_original(float(theta)) if t == 0 else \
                jsd_diffused(float(theta), t, SCHED).value
            high = max(high, v)
    ok = ok and high <= LN2 + 1e-9

    assert _report("A2", ok,
                   f"endpoints exact, |jsd(0,t)| <= {worst_zero:.2e}, "
                   f"sweep max {high:.12f} vs ln2 {LN2:.12f}")


def test_a3_smoothing_monotonicity():
    worst = -np.inf
    for theta in (0.1, 0.5, 1.0):
        vals = [jsd_diffused(theta, t, SCHED).value for t in (1, 50, 200, 800)]
        for earlier, later in zip(vals, vals[1:]):
            worst = max(worst, later - earlier)
    ok = worst <= 1e-6
    assert _report("A3", ok, f"max increase across levels {worst:.3e} <= 1e-6")


# -------------------------------------------------------------------- A7

def test_a7_scripted_ceiling_trajectories():
    probs_up = [0.9] * 8       # every sample counted as confident: r_d = +1
    probs_down = [0.1] * 8     # r_d = -1
    rng = np.random.default_rng(0)

    def drive(policy, windows):
        path = [policy.t_current]
        for probs in windows:
            observe_d(policy, np.asarray(probs))
            update_t(policy, rng)
            path.append(policy.t_current)
        return path

    ramp = drive(init_policy(rng, GanConfig(t_min=5, t_max=15, d_target=0.6, c_step=2)),
                 [probs_up] * 8)
    ok = ramp == [5, 7, 9, 11, 13, 15, 15, 15, 15]

    pol = init_policy(rng, GanConfig(t_min=3, t_max=40, d_target=0.6, c_step=2))
    descent = drive(pol, [probs_up] * 3 + [probs_down] * 5)
    ok = ok and descent == [3, 5, 7, 9, 7, 5, 3, 3, 3]

    # r_d exactly on target freezes T: signs (+,-,+,+) average to 0.5
    frozen = drive(init_policy(rng, GanConfig(t_min=5, t_max=40, d_target=0.5, c_step=2)),
                   [[1.0, 0.0, 1.0, 1.0]] * 3 + [probs_up] + [[1.0, 0.0, 1.0, 1.0]])
    ok = ok and frozen == [5, 5, 5, 5, 7, 7]

    assert _report("A7", ok, f"ramp {ramp[:4]}..., descent {descent[:5]}..., "
                             f"frozen {frozen}")


# -------------------------------------------------------------------- A6

def test_a6_joint_decomposition_equality():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 9))          # support size <= 8
        big_t = int(rng.integers(1, 6))      # levels <= 5
        pi = rng.random(big_t) + 1e-3
        rc = rng.random((big_t, k)) + 1e-3
        gc = rng.random((big_t, k)) + 1e-3
        spec = DiscreteJointSpec(
            support=np.arange(k, dtype=float),
            pi=pi / pi.sum(),
            real_cond=rc / rc.sum(axis=1, keepdims=True),
            gen_cond=gc / gc.sum(axis=1, keepdims=True))
        lhs, rhs = jsd_joint_equality(spec)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-12
    assert _report("A6", ok, f"100 random specs, max |lhs - rhs| = {worst:.3e}")


# -------------------------------------------------------------------- A4

def test_a4_chain_matches_closed_form():
    x0 = np.array([1.5, -0.5])
    n = 1_000_000
    worst_z = 0.0
    for t in (1, 10, 100, 500):
        rng = np.random.default_rng(100 + t)
        chained = diffuse_chain(np.tile(x0, (n, 1)), t, rng, SCHED)
        abar = float(SCHED.alpha_bars[t])
        want_mean = np.sqrt(abar) * x0
        want_var = (1.0 - abar) * 0.05 ** 2
        se_mean = math.sqrt(want_var / n)
        se_var = want_var * math.sqrt(2.0 / (n - 1))
        for axis in (0, 1):
            z_mean = abs(chained[:, axis].mean() - want_mean[axis]) / se_mean
            z_var = abs(chained[:, axis].var(ddof=1) - want_var) / se_var
            worst_z = max(worst_z, z_mean, z_var)
    ok = worst_z <= 3.0
    assert _report("A4", ok,
                   f"10^6-sample chains at t in {{1,10,100,500}}, "
                   f"worst moment z-score {worst_z:.2f} <= 3")


# -------------------------------------------------------------------- A5

def test_a5_gradient_suite():
    rows, max_iso, max_path = run_suite(SCHED, n_seeds=20, base_seed=0,
                                        h=1e-5, path_levels=(0, 5, 100))
    ok = max_iso <= 1e-6 and max_path <= 1e-5
    assert _report("A5", ok,
                   f"{len(rows)} checks over 20 seeds: isolated max "
                   f"{max_iso:.3e} <= 1e-6, path max {max_path:.3e} <= 1e-5")


# -------------------------------------------------------------------- A9

def test_a9_cli_determinism(tmp_path):
    commands = {
        "train": ["train", "--steps", "300", "--batch", "32", "--hidden", "16",
                  "--data-n", "2048", "--sample-n", "512", "--seed", "5"],
        "toy-jsd": ["toy-jsd", "--theta-steps", "21", "--t-list", "0,50,800",
                    "--method", "monte_carlo", "--mc-n", "20000", "--no-svg",
                    "--seed", "2"],
        "toy-disc": ["toy-disc", "--theta", "0.4", "--t-list", "1,200",
                     "--y-steps", "51", "--no-svg"],
        "schedule-dump": ["schedule-dump"],
        "gradcheck": ["gradcheck", "--seeds", "2", "--t-list", "0,5"],
        "diffuse-demo": ["diffuse-demo", "--data-n", "500",
                         "--t-list", "0,10,1000"],
    }
    mismatched = []
    for name, argv in commands.items():
        out_a = tmp_path / f"{name}-a"
        out_b = tmp_path / f"{name}-b"
        assert cli_main([*argv, "--out", str(out_a)]) == 0, name
        assert cli_main([*argv, "--out", str(out_b)]) == 0, name
        csvs = sorted(p.name for p in out_a.glob("*.csv"))
        assert csvs, name
        for fname in csvs:
            if (out_a / fname).read_bytes() != (out_b / fname).read_bytes():
                mismatched.append(f"{name}/{fname}")
    ok = not mismatched
    assert _report("A9", ok,
                   "all six subcommands rerun byte-identical" if ok else
                   f"mismatches: {', '.join(mismatched)}")


# -------------------------------------------------------------------- A8

@pytest.mark.gate
def test_a8_injected_noise_does_not_leak():
    # Both arms train at the same two-timescale setting (a discriminator
    # 40x faster than the generator, both rates constant) so the
    # generator's spread settles.  At the default lr_d = lr the
    # discriminator never reaches d_target, the ceiling stays near t_min,
    # and sigma = 0.5 injects too little noise for a leak to show.  The
    # noising arm's floor t_min = 300 keeps the ceiling, for the whole run,
    # at levels whose injected std (noise[300] is about 0.39) exceeds 0.3.
    two_timescale = dict(lr_d=4e-3)
    passes_diff, passes_van, details = 0, 0, []
    for seed in (1, 2):
        rng = np.random.default_rng([seed, 0])
        data = np.array([3.0, 3.0]) + 0.3 * rng.standard_normal((50_000, 2))

        cfg = GanConfig(total_steps=10_000, sigma=0.5, t_min=300, seed=seed,
                        **two_timescale)
        assert cfg.diffusion_enabled
        gen, _, trace = train(data, cfg)
        std_diff = generate(gen, 10_000, np.random.default_rng([seed, 2])).std(axis=0)
        # the noise counts as on only if, on every trace window, the
        # ceiling sat at a level whose injected std is at least the data's 0.3
        sched = build_schedule(cfg)
        ceilings = trace.column("T")
        on_share = float(np.mean(sched.noise[ceilings] >= 0.3))

        pre_noised = data + 0.5 * np.random.default_rng([seed, 4]).standard_normal(
            data.shape)
        cfg_v = GanConfig(total_steps=10_000, diffusion_enabled=False, seed=seed,
                          **two_timescale)
        gen_v, _, _ = train(pre_noised, cfg_v)
        std_van = generate(gen_v, 10_000,
                           np.random.default_rng([seed, 2])).std(axis=0)

        if (on_share == 1.0 and np.all(std_diff >= 0.24)
                and np.all(std_diff <= 0.36)):
            passes_diff += 1
        if np.all(std_van > 0.45):
            passes_van += 1
        details.append(f"seed {seed}: noising std "
                       f"({std_diff[0]:.3f}, {std_diff[1]:.3f}) T "
                       f"{ceilings.min()}-{ceilings.max()} injected std >= 0.3 "
                       f"on {on_share:.1%} of windows, control std "
                       f"({std_van[0]:.3f}, {std_van[1]:.3f})")
    ok = passes_diff >= 1 and passes_van >= 1
    assert _report(
        "A8", ok,
        f"{'; '.join(details)}; noising in [0.24, 0.36] with injected std "
        f">= 0.3 on every window on {passes_diff}/2 seeds, control > 0.45 "
        f"on {passes_van}/2")


# -------------------------------------------------------------------- A1

@pytest.mark.gate
def test_a1_grid_benchmark():
    cfg_probe = GanConfig()
    pinned = (cfg_probe.sigma, cfg_probe.d_target, cfg_probe.c_step,
              cfg_probe.mode, cfg_probe.t_min, cfg_probe.t_max,
              cfg_probe.total_steps, cfg_probe.batch_size)
    assert pinned == (0.05, 0.6, 2, "priority", 5, 1000, 20000, 128), \
        "benchmark defaults drifted away from the pinned setting"

    grid = grid_25()
    strict_wins, quality_passes, details = 0, 0, []
    for seed in (1, 2, 3):
        data = sample_grid(grid, 100_000, np.random.default_rng([seed, 0]))

        t0 = time.time()
        gen, _, trace = train(data, GanConfig(seed=seed))
        diff_secs = time.time() - t0
        peak_t = int(trace.column("T").max())
        rep = coverage(generate(gen, 10_000, np.random.default_rng([seed, 2])),
                       grid)

        gen_v, _, _ = train(data, GanConfig(seed=seed, diffusion_enabled=False))
        rep_v = coverage(generate(gen_v, 10_000,
                                  np.random.default_rng([seed, 2])), grid)

        if rep.modes_covered >= 23 and rep.high_quality_fraction >= 0.70:
            quality_passes += 1
        if rep.modes_covered > rep_v.modes_covered:
            strict_wins += 1
        details.append(
            f"seed {seed}: noising {rep.modes_covered}/25 modes "
            f"hq {rep.high_quality_fraction:.3f} peak T {peak_t} "
            f"({diff_secs:.0f}s), vanilla {rep_v.modes_covered}/25 "
            f"hq {rep_v.high_quality_fraction:.3f}")
    ok = quality_passes >= 2 and strict_wins == 3
    assert _report(
        "A1", ok,
        f"{'; '.join(details)}; >=23 modes & hq >= 0.70 on {quality_passes}/3 "
        f"seeds (need 2), beats vanilla on {strict_wins}/3 (need 3)")
