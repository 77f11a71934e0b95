"""The held-out sweep script: one row per (overrides, seed, arm), and a
rerun skips the rows already written."""

import importlib.util
import json
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "experiments" / "a1_sweep.py"
_spec = importlib.util.spec_from_file_location("a1_sweep", SCRIPT)
a1_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(a1_sweep)

TINY = {"total_steps": 8, "batch_size": 8, "hidden": 4, "update_interval": 2}


def test_rerun_appends_nothing(tmp_path):
    out = tmp_path / "rows.jsonl"
    overrides = [TINY, {**TINY, "lr": 1e-3}]
    assert a1_sweep.main([str(out), "--seeds", "4", "5", "--overrides",
                          *map(json.dumps, overrides)]) == 0
    first = out.read_text()
    rows = [json.loads(line) for line in first.splitlines()]
    assert [(r["overrides"], r["seed"], r["arm"]) for r in rows] == [
        (o, seed, arm) for o in overrides for seed in (4, 5)
        for arm in ("noising", "vanilla")]
    for r in rows:
        assert 0 <= r["modes"] <= 25 and 0.0 <= r["hq"] <= 1.0 and r["seconds"] > 0
        assert (r["peak_t"] >= 5) if r["arm"] == "noising" else (r["peak_t"] == 0)
    assert a1_sweep.sweep(out, overrides, (4, 5)) == 0
    assert out.read_text() == first
