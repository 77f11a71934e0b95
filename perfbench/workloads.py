"""The benchmark's workloads, the checks on their outputs, and their metrics.

grid-a1     the pinned A1 train shape (batch 128, hidden 128): a noised
            arm and a vanilla arm on the same 100k grid points, taking
            turns, then 10k samples per arm, coverage and the train
            artifacts.
grid-small  the same pipeline at batch 32, hidden 16 (the A9 train shape),
            where per-call Python overhead outweighs the matmuls.
gate        ``noisegan gradcheck`` at the A5 setting, then the default
            ``noisegan toy-jsd`` sweep, both through ``cli.main``.

Each workload is a closed loop with one caller: every call waits for
the previous one.  Inputs come only from the seed.  The program is
imported afresh for each set-up, so set-up time includes the program's
own import (NumPy stays loaded).
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import math
import os
import resource
import statistics
import sys
import time
from types import SimpleNamespace

import numpy as np

from tracer import Tracer

LAYERS = ("schedule", "tsampler", "net", "trainer", "data", "analytic",
          "gradcheck", "svgplot", "cli", "errors")

GRID_WORKLOADS = {
    "grid-a1": {"batch_size": 128, "hidden": 128},
    "grid-small": {"batch_size": 32, "hidden": 16},
}
# Steps per arm for each requested second; sized on a 2-core Xeon with one
# BLAS thread so that a run measures about --seconds.
GRID_STEP_RATE = {"grid-a1": 115, "grid-small": 650}
# Steps an arm runs before the other arm takes over (about 0.5 s of work).
GRID_CHUNK = {"grid-a1": 100, "grid-small": 500}
ARMS = ("noised", "vanilla")
DATA_N = 100_000
SAMPLE_N = 10_000
SETUP_REPS = 9           # set-ups per untraced run; setup_s is their median
TRACED_SETUP_REPS = 3

# The A5 setting and the default toy-jsd sweep.  A gate pass is one
# gradcheck (7 to 9 s) and three toy-jsd sweeps (about 1 s each): one sweep
# alone samples too little machine time to give a steady median.
GATE_SECONDS_PER_PASS = 10
TOY_RUNS_PER_PASS = 3
GRADCHECK_SEEDS = 20
GRADCHECK_LEVELS = (0, 5, 100)
GRADCHECK_SIZES = 5            # isolated checks per seed: three small nets, G and D
TOY_LEVELS = (0, 1, 50, 200, 800)
TOY_THETA_STEPS = 401
ISOLATED_BOUND = 1e-6
PATH_BOUND = 1e-5
LN2 = math.log(2.0)

# Per-step spans of the noised arm; each name becomes "<name>_ms".
STEP_LAYERS = ("net.forward.gen", "net.forward.disc", "net.backward.disc",
               "net.backward.disc_input", "net.backward.gen",
               "net.adam_step.disc", "net.adam_step.gen", "net.cond_input",
               "schedule.diffuse", "tsampler.draw_t", "tsampler.observe_d",
               "tsampler.update_t")
# Spans outside the step loop, reported as the median duration per call.
CALL_LAYERS = ("data.sample_grid", "schedule.build_schedule",
               "trainer.init_train_state", "trainer.generate", "data.coverage",
               "data.save_csv", "net.save_net", "trainer.trace_write")


class Tally:
    """Operations and output checks attempted, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)


def fresh_import() -> SimpleNamespace:
    """Drop every loaded noisegan module and import the layers again."""
    for name in [m for m in sys.modules
                 if m == "noisegan" or m.startswith("noisegan.")]:
        del sys.modules[name]
    return SimpleNamespace(**{k: importlib.import_module(f"noisegan.{k}")
                              for k in LAYERS})


def digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _const(name):
    return lambda _args: name


def _layer_sizes(net):
    return [(w.shape[1], w.shape[0]) for w in net.weights]


def forward_flops(args, _result) -> float:
    """Matmul flops of ``forward(net, x)``: 2 n in out per layer."""
    net, x = args[0], args[1]
    return 2.0 * np.shape(x)[0] * sum(i * o for i, o in _layer_sizes(net))


def backward_flops(args, _result) -> float:
    """Matmul flops of ``backward(net, cache, g)``: weight and input
    gradients, 4 n in out per layer."""
    net, g = args[0], args[2]
    return 4.0 * np.shape(g)[0] * sum(i * o for i, o in _layer_sizes(net))


# --------------------------------------------------------------------- grid

def grid_steps(workload: str, seconds: float) -> int:
    """Steps per arm: a whole number of policy windows (4 steps), so the
    loop leaves no partial window and ``train`` would write the same trace."""
    return 4 * max(1, math.ceil(seconds * GRID_STEP_RATE[workload] / 4))


def grid_config(ng, workload: str, seed: int, steps: int, arm: str):
    return ng.trainer.GanConfig(total_steps=steps, seed=seed,
                                diffusion_enabled=(arm == "noised"),
                                **GRID_WORKLOADS[workload])


def install_grid_spans(tracer: Tracer, ng, roles: dict) -> None:
    """Trace the names ``train_step`` and the benchmark look up.

    Net calls are labelled by net identity (``roles``); the second
    discriminator backward in a step is phase II's input-gradient pass.
    """
    seen = {"disc_backward": 0}

    def step_label(_args):
        seen["disc_backward"] = 0
        return "trainer.train_step"

    def net_label(kind):
        def label(args):
            role = roles.get(id(args[0]), "other")
            if kind == "backward" and role == "disc":
                seen["disc_backward"] += 1
                if seen["disc_backward"] > 1:
                    role = "disc_input"
            return f"net.{kind}.{role}"
        return label

    tr = ng.trainer
    tracer.swap(tr, "train_step", step_label)
    tracer.swap(tr, "forward", net_label("forward"), forward_flops)
    tracer.swap(tr, "backward", net_label("backward"), backward_flops)
    tracer.swap(tr, "adam_step", net_label("adam_step"))
    tracer.swap(tr, "cond_input", _const("net.cond_input"))
    tracer.swap(tr, "diffuse", _const("schedule.diffuse"))
    for name in ("draw_t", "observe_d", "update_t"):
        tracer.swap(tr, name, _const(f"tsampler.{name}"))
    tracer.swap(tr, "build_schedule", _const("schedule.build_schedule"))
    tracer.swap(tr, "init_train_state", _const("trainer.init_train_state"))
    tracer.swap(tr, "generate", _const("trainer.generate"))
    tracer.swap(tr.TrainTrace, "write_csv", _const("trainer.trace_write"))
    for name in ("sample_grid", "coverage", "save_csv"):
        tracer.swap(ng.data, name, _const(f"data.{name}"))
    tracer.swap(ng.net, "save_net", _const("net.save_net"))


def grid_setup(ng, workload: str, seed: int, steps: int):
    data = ng.data.sample_grid(ng.data.grid_25(), DATA_N,
                               np.random.default_rng([seed, 0]))
    return {arm: ng.trainer.init_train_state(
        data, grid_config(ng, workload, seed, steps, arm)) for arm in ARMS}


def run_arms(ng, states: dict, steps: int, chunk: int, tracer=None) -> dict:
    """``steps`` calls of ``train_step`` per arm, alternating arms every
    ``chunk`` steps so that both arms sample the same stretch of machine
    time.  Returns per arm: step seconds, loop seconds, steps not done."""
    train_step = ng.trainer.train_step
    clock = time.perf_counter
    out = {arm: {"times": [], "wall": 0.0, "failed": 0} for arm in states}
    for lo in range(0, steps, chunk):
        for arm, state in states.items():
            res = out[arm]
            if res["failed"]:
                continue
            if tracer:
                tracer.begin_run(arm)
            times = res["times"]
            start = clock()
            try:
                for _ in range(min(chunk, steps - lo)):
                    t0 = clock()
                    train_step(state)
                    times.append(clock() - t0)
            except ng.errors.NumericError:
                res["failed"] = steps - len(times)
            res["wall"] += clock() - start
    return out


def write_arm(ng, state, seed: int, out_dir: str):
    """The ``train`` artifacts of one arm; returns (coverage, digests)."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name)
             for name in ("trace.csv", "samples.csv", "gen.json", "disc.json")}
    state.trace.write_csv(paths["trace.csv"])
    ng.net.save_net(state.gen, paths["gen.json"])
    ng.net.save_net(state.disc, paths["disc.json"])
    samples = ng.trainer.generate(state.gen, SAMPLE_N,
                                  np.random.default_rng([seed, 2]))
    ng.data.save_csv(samples, paths["samples.csv"])
    report = ng.data.coverage(samples, ng.data.grid_25())
    return report, {name: digest(p) for name, p in paths.items()}


def check_arm(tally: Tally, arm: str, state, report, steps: int) -> None:
    rows = state.trace.rows
    tally.check(all(math.isfinite(r.d_loss) and math.isfinite(r.g_loss)
                    for r in rows), f"{arm}: every loss is finite")
    expected = math.ceil(steps / state.config.update_interval)
    tally.check(len(rows) == expected,
                f"{arm}: {len(rows)} trace rows, expected {expected}")
    hq = round(report.high_quality_fraction * report.n_samples)
    tally.check(int(report.mode_counts.sum()) == hq,
                f"{arm}: mode counts sum to {int(report.mode_counts.sum())}, "
                f"high-quality samples {hq}")


def grid_episode(workload: str, seed: int, steps: int, out_dir: str,
                 setup_reps: int, tally: Tally, tracer: Tracer = None) -> dict:
    """Set up ``setup_reps`` times and keep the last; run both arms; write
    and check the artifacts.  With a tracer, every layer call is a span."""
    roles = {}
    setup_times = []
    if tracer:
        tracer.begin_run("setup")
    for _ in range(setup_reps):
        start = time.perf_counter()
        ng = fresh_import()
        if tracer:
            tracer.restore()
            install_grid_spans(tracer, ng, roles)
        states = grid_setup(ng, workload, seed, steps)
        setup_times.append(time.perf_counter() - start)
    for state in states.values():
        roles[id(state.gen)] = "gen"
        roles[id(state.disc)] = "disc"

    arms = run_arms(ng, states, steps, GRID_CHUNK[workload], tracer)
    for arm, res in arms.items():
        tally.ops(steps, res["failed"], f"{arm} train_step")
    result = {"setup_times": setup_times, "arms": arms, "digests": {}}
    for arm in ARMS:
        if tracer:
            tracer.begin_run(f"{arm}-artifacts")
        report, digests = write_arm(ng, states[arm], seed,
                                    os.path.join(out_dir, arm))
        check_arm(tally, arm, states[arm], report, steps)
        result["arms"][arm]["coverage"] = report
        result["digests"].update({f"{arm}/{k}": v for k, v in digests.items()})
    result["run_s"] = time.perf_counter() - start   # from the kept set-up's start
    result["final_ceiling"] = states["noised"].policy.t_current
    if tracer:
        tracer.restore()
    return result


def grid_metrics(res: dict) -> tuple:
    """(end-to-end metrics, summary by descriptive name with sample counts)."""
    noised, vanilla = res["arms"]["noised"], res["arms"]["vanilla"]
    nt, vt = noised["times"], vanilla["times"]
    metrics = {
        "setup_s": statistics.median(res["setup_times"]),
        "run_s": res["run_s"],
        "step_ms_p50": 1e3 * statistics.median(nt),
        "step_ms_p90": 1e3 * p90(nt),
        "steps_per_s": len(nt) / noised["wall"],
        "control_s": vanilla["wall"],
        "peak_rss_mb": peak_rss_mb(),
    }
    summary = {
        "setup_s": (metrics["setup_s"], "s", len(res["setup_times"])),
        "run_s": (metrics["run_s"], "s", 1),
        "noised_step_ms_p50": (metrics["step_ms_p50"], "ms", len(nt)),
        "noised_step_ms_p90": (metrics["step_ms_p90"], "ms", len(nt)),
        "vanilla_step_ms_p50": (1e3 * statistics.median(vt), "ms", len(vt)),
        "vanilla_step_ms_p90": (1e3 * p90(vt), "ms", len(vt)),
        "steps_per_s": (metrics["steps_per_s"], "1/s", len(nt)),
        "vanilla_loop_s": (metrics["control_s"], "s", len(vt)),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB", 1),
    }
    return metrics, summary


def step_split(tracer: Tracer, run_label: str) -> dict:
    """Per-step self times (ms) and counts of the ``train_step`` spans of
    one run, averaged over its steps."""
    run = tracer.runs.index(run_label)
    names = tracer.names
    selfs = tracer.self_times()
    step_name = names.index("trainer.train_step")
    steps = {i for i in range(len(selfs))
             if tracer.run[i] == run and tracer.name_id[i] == step_name}
    n = len(steps)
    split = {f"{name}_ms": 0.0 for name in STEP_LAYERS}
    calls = flops = net_ms = 0.0
    for i, p in enumerate(tracer.parent):
        if p not in steps:
            continue
        name = names[tracer.name_id[i]]
        split[f"{name}_ms"] = split.get(f"{name}_ms", 0.0) + 1e3 * selfs[i] / n
        if name.startswith("net."):
            calls += 1
        if name.startswith(("net.forward.", "net.backward.")):
            flops += tracer.work[i]
            net_ms += 1e3 * selfs[i]
    split["trainer.self_ms"] = 1e3 * sum(selfs[i] for i in steps) / n
    split["trainer.train_step_ms"] = 1e3 * sum(
        tracer.end[i] - tracer.start[i] for i in steps) / n
    split["net.calls_per_step"] = calls / n
    split["net.mflop_per_step"] = flops / n / 1e6
    split["net.gflops"] = flops / net_ms / 1e6 if net_ms else 0.0
    return split


def call_medians(tracer: Tracer, names) -> dict:
    """Median duration (ms) of each named span over all its calls."""
    durations = {name: [] for name in names}
    for i in range(len(tracer.start)):
        name = tracer.names[tracer.name_id[i]]
        if name in durations:
            durations[name].append(tracer.end[i] - tracer.start[i])
    return {f"{name}_ms": 1e3 * statistics.median(d) if d else 0.0
            for name, d in durations.items()}


def grid_layers(tracer: Tracer, traced: dict, untraced: dict) -> dict:
    layers = step_split(tracer, "noised")
    layers.update(call_medians(tracer, CALL_LAYERS))
    sps = [len(r["arms"]["noised"]["times"]) / r["arms"]["noised"]["wall"]
           for r in (untraced, traced)]
    layers["trace_overhead_pct"] = 100.0 * (sps[0] / sps[1] - 1.0)
    layers["tsampler.final_ceiling"] = traced["final_ceiling"]
    layers["data.modes_covered"] = traced["arms"]["noised"]["coverage"].modes_covered
    return layers


# --------------------------------------------------------------------- gate

def gate_passes(seconds: float) -> int:
    return max(1, round(seconds / GATE_SECONDS_PER_PASS))


def gate_argv(seed: int, out_dir: str, seeds: int, theta_steps: int):
    gradcheck = ["gradcheck", "--seeds", str(seeds),
                 "--t-list", ",".join(map(str, GRADCHECK_LEVELS)),
                 "--seed", str(seed), "--out", os.path.join(out_dir, "gradcheck")]
    toy = ["toy-jsd", "--theta-steps", str(theta_steps),
           "--t-list", ",".join(map(str, TOY_LEVELS)),
           "--seed", str(seed), "--out", os.path.join(out_dir, "toy-jsd")]
    return gradcheck, toy


def install_gate_spans(tracer: Tracer, ng) -> None:
    tracer.swap(ng.cli, "run_suite", _const("gradcheck.run_suite"))
    tracer.swap(ng.gradcheck, "check_isolated", _const("gradcheck.isolated"))
    tracer.swap(ng.gradcheck, "check_gen_path", _const("gradcheck.path"))
    tracer.swap(ng.gradcheck, "forward", _const("gradcheck.forward"))
    tracer.swap(ng.cli, "jsd_diffused", _const("analytic.jsd_diffused"),
                lambda _args, est: est.n_evals)
    tracer.swap(ng.cli, "line_chart", _const("svgplot.line_chart"))
    tracer.swap(ng.cli, "main", _const("cli.main"))


def time_checks(ng, sink: list):
    """Swap the two gradcheck check functions for a bare timer that appends
    each call's seconds to ``sink``; returns the undo function.  This is
    the only code the untraced gate places in front of the program."""
    originals = {name: getattr(ng.gradcheck, name)
                 for name in ("check_isolated", "check_gen_path")}

    def timed(fn):
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(time.perf_counter() - t0)
        return run

    for name, fn in originals.items():
        setattr(ng.gradcheck, name, timed(fn))
    return lambda: [setattr(ng.gradcheck, n, f) for n, f in originals.items()]


def _read_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_gate_outputs(tally: Tally, out_dir: str, seeds: int,
                       theta_steps: int) -> dict:
    """Bounds on every gradcheck row and every JSD; returns digests and
    the worst gradcheck error."""
    grad_csv = os.path.join(out_dir, "gradcheck", "gradcheck.csv")
    toy_csv = os.path.join(out_dir, "toy-jsd", "toy_jsd.csv")
    grad = _read_rows(grad_csv)
    n_checks = seeds * (GRADCHECK_SIZES + len(GRADCHECK_LEVELS))
    tally.check(len(grad) == n_checks,
                f"gradcheck: {len(grad)} rows, expected {n_checks}")
    bad = sum(1 for r in grad if not float(r["max_rel_err"]) <= (
        ISOLATED_BOUND if r["check"] == "isolated" else PATH_BOUND))
    tally.ops(len(grad), bad, "gradcheck check within the A5 bound")
    toy = _read_rows(toy_csv)
    n_jsd = theta_steps * len(TOY_LEVELS)
    tally.check(len(toy) == n_jsd, f"toy-jsd: {len(toy)} rows, expected {n_jsd}")
    bad = sum(1 for r in toy if not 0.0 <= float(r["jsd"]) <= LN2 + 1e-9)
    tally.ops(len(toy), bad, "toy-jsd value in [0, ln 2]")
    return {
        "digests": {"gradcheck.csv": digest(grad_csv),
                    "toy_jsd.csv": digest(toy_csv)},
        "max_rel_err": max((float(r["max_rel_err"]) for r in grad), default=0.0),
    }


def gate_episode(seed: int, passes: int, out_dir: str, setup_reps: int,
                 tally: Tally, tracer: Tracer = None, toy_runs: int = 1,
                 seeds: int = GRADCHECK_SEEDS,
                 theta_steps: int = TOY_THETA_STEPS) -> dict:
    """Set up ``setup_reps`` times, then run ``passes`` passes of one
    gradcheck and ``toy_runs`` toy-jsd sweeps on the same inputs; every
    pass must write the same CSV bytes."""
    setup_times = []
    for _ in range(setup_reps):
        start = time.perf_counter()
        ng = fresh_import()
        ng.cli.build_parser()
        ng.schedule.build_schedule()
        setup_times.append(time.perf_counter() - start)
    if tracer:
        install_gate_spans(tracer, ng)
    check_times = []
    undo = None if tracer else time_checks(ng, check_times)
    gradcheck_argv, toy_argv = gate_argv(seed, out_dir, seeds, theta_steps)
    result = {"setup_times": setup_times, "gradcheck_s": [], "toy_jsd_s": [],
              "check_times": check_times}
    try:
        for k in range(passes):
            if tracer:
                tracer.begin_run(f"gate-{k}")
            t0 = time.perf_counter()
            rc = ng.cli.main(gradcheck_argv)
            tally.check(rc == 0, f"gradcheck exit code {rc}")
            result["gradcheck_s"].append(time.perf_counter() - t0)
            for _ in range(toy_runs):
                t0 = time.perf_counter()
                rc = ng.cli.main(toy_argv)
                tally.check(rc == 0, f"toy-jsd exit code {rc}")
                result["toy_jsd_s"].append(time.perf_counter() - t0)
            out = check_gate_outputs(tally, out_dir, seeds, theta_steps)
            if k:
                tally.check(out["digests"] == result["digests"],
                            f"gate pass {k} rewrote the same CSV bytes")
            result.update(out)
    finally:
        if tracer:
            tracer.restore()
        else:
            undo()
    return result


def gate_metrics(res: dict) -> tuple:
    ct = res["check_times"]
    setup_s = statistics.median(res["setup_times"])
    metrics = {
        "setup_s": setup_s,
        "run_s": (setup_s + statistics.median(res["gradcheck_s"])
                  + statistics.median(res["toy_jsd_s"])),
        "step_ms_p50": 1e3 * statistics.median(ct),
        "step_ms_p90": 1e3 * p90(ct),
        "steps_per_s": len(ct) / sum(res["gradcheck_s"]),
        "control_s": statistics.median(res["toy_jsd_s"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    n = len(res["gradcheck_s"])
    summary = {
        "setup_s": (setup_s, "s", len(res["setup_times"])),
        "run_s": (metrics["run_s"], "s", n),
        "gradcheck_s": (statistics.median(res["gradcheck_s"]), "s", n),
        "toy_jsd_s": (metrics["control_s"], "s", len(res["toy_jsd_s"])),
        "check_ms_p50": (metrics["step_ms_p50"], "ms", len(ct)),
        "check_ms_p90": (metrics["step_ms_p90"], "ms", len(ct)),
        "checks_per_s": (metrics["steps_per_s"], "1/s", len(ct)),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB", 1),
    }
    return metrics, summary


def _pass_s(res: dict) -> float:
    return res["gradcheck_s"][0] + res["toy_jsd_s"][0]


def gate_layers(tracer: Tracer, traced: dict, untraced: dict) -> dict:
    """Per gate pass: the traced run makes exactly one."""
    selfs = tracer.self_times()
    by_name = {}
    for i in range(len(selfs)):
        by_name.setdefault(tracer.names[tracer.name_id[i]], []).append(i)
    forward = by_name.get("gradcheck.forward", [])
    jsd = by_name.get("analytic.jsd_diffused", [])
    charts = by_name.get("svgplot.line_chart", [])
    layers = call_medians(tracer, ("gradcheck.isolated", "gradcheck.path",
                                   "analytic.jsd_diffused"))
    layers.update({
        "gradcheck.net_forward_ms": 1e3 * sum(selfs[i] for i in forward),
        "gradcheck.net_forward_calls": len(forward),
        "gradcheck.checks": (len(by_name.get("gradcheck.isolated", []))
                             + len(by_name.get("gradcheck.path", []))),
        "gradcheck.max_rel_err": traced["max_rel_err"],
        "analytic.calls": len(jsd),
        "analytic.quad_nodes": sum(tracer.work[i] for i in jsd),
        "svgplot.line_chart_ms": 1e3 * sum(tracer.end[i] - tracer.start[i]
                                           for i in charts),
        "cli.self_ms": 1e3 * sum(selfs[i] for i in by_name.get("cli.main", [])),
        "trace_overhead_pct": 100.0 * (_pass_s(traced) / _pass_s(untraced) - 1.0),
    })
    return layers
