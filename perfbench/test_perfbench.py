"""Tests of the benchmark itself: span arithmetic, seed pass-through,
exact counts, and tiny-length smoke runs of every workload."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

TINY_STEPS = 8


@pytest.fixture(autouse=True)
def keep_program_modules():
    """The workloads re-import noisegan; give other tests back their modules."""
    saved = {k: v for k, v in sys.modules.items()
             if k == "noisegan" or k.startswith("noisegan.")}
    yield
    for k in [k for k in sys.modules if k == "noisegan" or k.startswith("noisegan.")]:
        del sys.modules[k]
    sys.modules.update(saved)


def _grid(workload, seed, out, tracer=None, steps=TINY_STEPS):
    tally = wl.Tally()
    res = wl.grid_episode(workload, seed, steps, str(out), 1, tally, tracer)
    assert tally.failed == 0, tally.problems
    return res


def _gate(seed, out, tracer=None):
    tally = wl.Tally()
    res = wl.gate_episode(seed, 1, str(out), 1, tally, tracer, seeds=1,
                          theta_steps=3)
    assert tally.failed == 0, tally.problems
    return res


# ------------------------------------------------------------- span arithmetic

def test_self_time_subtracts_children_once():
    # parent [0, 10]; children overlap at [2, 3] and one runs past the parent
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.5]
    parent = [-1, 0, 0, 0, 1]
    got = self_times(start, end, parent)
    assert got[0] == pytest.approx(10.0 - (4.0 + 2.0))   # covered [1,5] and [8,10]
    assert got[1] == pytest.approx(2.0 - 1.0)            # grandchild [1.5, 2.5]
    assert got[2:] == pytest.approx([3.0, 4.0, 1.0])


def test_self_time_without_children_is_duration():
    assert self_times([1.0, 4.0], [3.0, 4.5], [-1, -1]) == pytest.approx([2.0, 0.5])


def test_tracer_nests_spans_and_restores_names():
    tracer = Tracer()
    box = type("Box", (), {})()
    box.inner = lambda x: x + 1
    box.outer = lambda x: box.inner(x) * 2
    tracer.begin_run("r")
    tracer.swap(box, "inner", lambda args: "inner", lambda args, out: out)
    tracer.swap(box, "outer", lambda args: "outer")
    assert box.outer(3) == 8
    tracer.restore()
    assert not hasattr(box.outer, "__wrapped__")
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["outer", "inner"]
    assert list(tracer.parent) == [-1, 0]
    assert tracer.work[1] == 4.0
    selfs = tracer.self_times()
    assert selfs[0] + selfs[1] == pytest.approx(tracer.end[0] - tracer.start[0])


# ----------------------------------------------------------------------- seeds

def test_seed_reaches_the_program_inputs(tmp_path):
    a = _grid("grid-small", 3, tmp_path / "a")
    b = _grid("grid-small", 3, tmp_path / "b")
    c = _grid("grid-small", 4, tmp_path / "c")
    assert a["digests"] == b["digests"]
    assert a["digests"]["noised/samples.csv"] != c["digests"]["noised/samples.csv"]
    gradcheck, toy = wl.gate_argv(7, "o", 20, 401)
    assert gradcheck[gradcheck.index("--seed") + 1] == "7"
    assert toy[toy.index("--seed") + 1] == "7"


def test_bench_loop_writes_the_same_trace_as_train(tmp_path):
    _grid("grid-small", 2, tmp_path)
    ng = wl.fresh_import()
    data = ng.data.sample_grid(ng.data.grid_25(), wl.DATA_N,
                               np.random.default_rng([2, 0]))
    for arm in wl.ARMS:
        cfg = wl.grid_config(ng, "grid-small", 2, TINY_STEPS, arm)
        _, _, trace = ng.trainer.train(data, cfg)
        trace.write_csv(tmp_path / f"{arm}-train.csv")
        assert ((tmp_path / f"{arm}-train.csv").read_bytes()
                == (tmp_path / arm / "trace.csv").read_bytes())


# ------------------------------------------------------------ smoke and counts

def test_grid_smoke_and_exact_counts(tmp_path):
    plain = _grid("grid-a1", 5, tmp_path / "plain")
    metrics, summary = wl.grid_metrics(plain)
    assert all(v > 0 for v in metrics.values())
    assert summary["noised_step_ms_p50"][2] == TINY_STEPS

    layers = []
    for k in range(2):
        tracer = Tracer()
        traced = _grid("grid-a1", 5, tmp_path / f"traced{k}", tracer)
        assert traced["digests"] == plain["digests"]
        layers.append(wl.grid_layers(tracer, traced, plain))
    exact = ("net.calls_per_step", "net.mflop_per_step", "tsampler.final_ceiling")
    assert [layers[0][k] for k in exact] == [layers[1][k] for k in exact]
    assert layers[0]["net.calls_per_step"] == 12
    # G 2-128-128-2 and D 3-128-128-1 at batch 128: 56.229888 MFLOP computed
    assert layers[0]["net.mflop_per_step"] == pytest.approx(56.229888, abs=1e-9)
    split = layers[0]
    parts = sum(split[f"{n}_ms"] for n in wl.STEP_LAYERS) + split["trainer.self_ms"]
    assert parts == pytest.approx(split["trainer.train_step_ms"], rel=1e-9)


def test_gate_smoke_and_exact_counts(tmp_path):
    plain = _gate(3, tmp_path / "plain")
    metrics, _ = wl.gate_metrics(plain)
    assert all(v > 0 for v in metrics.values())
    layers = []
    for k in range(2):
        tracer = Tracer()
        traced = _gate(3, tmp_path / f"traced{k}", tracer)
        assert traced["digests"] == plain["digests"]
        layers.append(wl.gate_layers(tracer, traced, plain))
    exact = ("gradcheck.checks", "gradcheck.net_forward_calls",
             "analytic.quad_nodes", "analytic.calls")
    assert [layers[0][k] for k in exact] == [layers[1][k] for k in exact]
    assert layers[0]["gradcheck.checks"] == wl.GRADCHECK_SIZES + len(wl.GRADCHECK_LEVELS)
    assert layers[0]["analytic.calls"] == 3 * (len(wl.TOY_LEVELS) - 1)


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    import run
    real = wl.check_arm

    def broken(tally, *args):
        real(tally, *args)
        tally.check(False, "forced failure")

    monkeypatch.setattr(wl, "check_arm", broken)
    assert run.main(["--workload", "grid-small", "--seed", "1",
                     "--seconds", "0.02", "--trace", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == len(wl.ARMS)


def test_failed_check_is_counted():
    tally = wl.Tally()
    tally.check(True, "fine")
    tally.ops(10, 2, "steps")
    assert (tally.attempted, tally.failed) == (11, 2)
    assert tally.problems == ["steps: 2 of 10 failed"]


# ------------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_names_what_the_workloads_report(tmp_path):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    grid, _ = wl.grid_metrics(_grid("grid-small", 1, tmp_path / "g"))
    gate, _ = wl.gate_metrics(_gate(1, tmp_path / "q"))
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert e2e == set(grid) == set(gate)
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in bench["end_to_end"])} in bench["end_to_end"]
    assert bench["command"] == ["python3", "perfbench/run.py"]


def test_command_prints_one_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "grid-small",
         "--seed", "2", "--seconds", "0.02", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert all(math.isfinite(m["value"]) and m["value"] > 0
               for m in last["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
