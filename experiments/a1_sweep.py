"""Held-out sweep at A1's shape: train both arms per (overrides, seed) and
append one JSON row per run.

Data, samples and scoring are the ones ``noisegan train`` uses: 100k grid
points from ``default_rng([seed, 0])``, 10k samples from
``default_rng([seed, 2])`` and ``coverage(samples, grid_25())``.  Each
overrides set is a JSON object of ``GanConfig`` keys; the arm sets
``diffusion_enabled``.  A row records the overrides, seed, arm, modes
covered, hq fraction, peak T, mean T over the last quarter of the trace
rows and seconds.  A run that raises ``NumericError`` scores 0 modes and
hq 0, with its message under ``"error"``.  Rows already in the output
file are skipped, so a sweep that was cut short picks up where it
stopped.  Run it with one BLAS thread (two sweeps side by side fill two
cores), for example:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python experiments/a1_sweep.py \\
        rows.jsonl --seeds 4 5 6 --overrides '{"lr_d": 4e-3}' \\
        '{"lr_d": 4e-3, "beta2": 0.99}'

Seeds 1-3 are A1's; tune on others.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from noisegan import NumericError, coverage, generate, grid_25, sample_grid, train
from noisegan.trainer import config_from_dict

ARMS = {"noising": True, "vanilla": False}


def _key(overrides: dict, seed: int, arm: str) -> str:
    return json.dumps([overrides, seed, arm], sort_keys=True)


def done_keys(path) -> set:
    """The (overrides, seed, arm) keys of the rows already in ``path``."""
    if not os.path.exists(path):
        return set()
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return {_key(r["overrides"], r["seed"], r["arm"]) for r in rows}


def run_one(overrides: dict, seed: int, arm: str) -> dict:
    """Train one arm at ``GanConfig`` defaults plus ``overrides`` and score it."""
    cfg = config_from_dict({**overrides, "seed": seed, "diffusion_enabled": ARMS[arm]})
    grid = grid_25()
    data = sample_grid(grid, 100_000, np.random.default_rng([seed, 0]))
    row = {"overrides": overrides, "seed": seed, "arm": arm}
    t0 = time.perf_counter()
    try:
        gen, _, trace = train(data, cfg)
    except NumericError as e:
        return {**row, "modes": 0, "hq": 0.0, "peak_t": None, "mean_t_last_quarter": None,
                "seconds": time.perf_counter() - t0, "error": str(e)}
    seconds = time.perf_counter() - t0
    rep = coverage(generate(gen, 10_000, np.random.default_rng([seed, 2])), grid)
    ts = trace.column("T")
    return {**row, "modes": rep.modes_covered, "hq": rep.high_quality_fraction,
            "peak_t": int(ts.max()), "mean_t_last_quarter": float(ts[3 * len(ts) // 4:].mean()),
            "seconds": seconds}


def sweep(path, overrides_list, seeds, arms=tuple(ARMS)) -> int:
    """Run every (overrides, seed, arm) not yet in ``path``, appending a
    row after each run; returns the number of rows appended."""
    for overrides in overrides_list:
        bad = sorted({"seed", "diffusion_enabled"} & set(overrides))
        if bad:
            raise ValueError(f"the sweep sets {', '.join(bad)} itself")
        config_from_dict(overrides).validate()
    done = done_keys(path)
    added = 0
    for overrides in overrides_list:
        for seed in seeds:
            for arm in arms:
                if _key(overrides, seed, arm) in done:
                    continue
                row = run_one(overrides, seed, arm)
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
                print(json.dumps(row, sort_keys=True), flush=True)
                added += 1
    return added


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", help="JSON-lines file to append rows to")
    p.add_argument("--seeds", type=int, nargs="+", default=[4, 5, 6, 7, 8, 9])
    p.add_argument("--arms", nargs="+", choices=tuple(ARMS), default=list(ARMS))
    p.add_argument("--overrides", type=json.loads, nargs="+", default=[{}],
                   help="one JSON object of GanConfig keys per overrides set")
    args = p.parse_args(argv)
    for overrides in args.overrides:
        if not isinstance(overrides, dict):
            p.error(f"--overrides takes JSON objects, got {overrides!r}")
    try:
        sweep(args.out, args.overrides, args.seeds, args.arms)
    except ValueError as e:
        p.error(str(e))
    return 0


if __name__ == "__main__":
    sys.exit(main())
