"""noisegan benchmark: one command, one process, one BLAS thread.

    python3 perfbench/run.py --workload grid-a1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads run one after another in this process (``all`` runs the three
in a row).  With ``--trace 0`` nothing is wrapped and the end-to-end
metrics listed in BENCHMARK.json are reported; with ``--trace 1`` the
workload runs untraced and then traced on the same inputs, and the
per-layer metrics are reported.  Human-readable lines come first; the
last line of standard output is one JSON object.  The full record
(environment, sample counts, artifact digests, failed checks) goes to
``perfbench/out/BENCH_<workload>_trace<k>.json`` and the spans of a
traced run to ``perfbench/out/spans_<workload>.csv``.

Exit status: 0 when every check passed, 1 when a check failed, 2 when
the program under test is not there.
"""

from __future__ import annotations

import os

# Pinned before NumPy is imported: one BLAS thread, never concurrent work.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("grid-a1", "grid-small", "gate")


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns its record (metrics, tally, digests)."""
    import workloads as wl

    tally = wl.Tally()
    record = {"workload": name}
    if name in wl.GRID_WORKLOADS:
        steps = wl.grid_steps(name, seconds)
        if trace:
            half = max(4, steps // 8 * 4)
            record["metrics"], record["digests"] = traced_run(
                name, tally, wl.grid_layers,
                lambda out, tracer: wl.grid_episode(
                    name, seed, half, out, wl.TRACED_SETUP_REPS, tally, tracer))
        else:
            res = wl.grid_episode(name, seed, steps, str(OUT / name),
                                  wl.SETUP_REPS, tally)
            record["metrics"], record["summary"] = wl.grid_metrics(res)
            record["digests"] = res["digests"]
    elif trace:
        record["metrics"], record["digests"] = traced_run(
            name, tally, wl.gate_layers,
            lambda out, tracer: wl.gate_episode(seed, 1, out, 1, tally, tracer))
    else:
        res = wl.gate_episode(seed, wl.gate_passes(seconds), str(OUT / name),
                              wl.SETUP_REPS, tally,
                              toy_runs=wl.TOY_RUNS_PER_PASS)
        record["metrics"], record["summary"] = wl.gate_metrics(res)
        record["digests"] = res["digests"]
    record.update(attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems)
    return record


def traced_run(name: str, tally, layers, episode):
    """Run ``episode`` untraced, then traced on the same inputs, and check
    that both wrote the same artifacts; the per-layer metrics come from
    the traced run's spans, which are written out at the end."""
    from tracer import Tracer

    plain = episode(str(OUT / name / "untraced"), None)
    tracer = Tracer()
    traced = episode(str(OUT / name / "traced"), tracer)
    tally.check(traced["digests"] == plain["digests"],
                "traced artifacts equal untraced artifacts")
    tracer.write_csv(OUT / f"spans_{name}.csv")
    return layers(tracer, traced, plain), traced["digests"]


def listed_metrics(record: dict, listed: list, layers: bool) -> dict:
    """The metrics BENCHMARK.json lists, with their units, from a record.

    A per-layer metric of a layer the workload never calls reads 0; an
    end-to-end metric must always be measured.
    """
    values = record["metrics"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing and not layers:
        raise KeyError(f"{record['workload']}: no value for {', '.join(missing)}")
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]} for m in listed}


def print_record(record: dict, listed: dict) -> None:
    name = record["workload"]
    for metric, (value, unit, n) in record.get("summary", {}).items():
        print(f"{name}  {metric:<22} {value:12.4f} {unit:<6} n={n}")
    if "summary" not in record:
        for metric, value in sorted(record["metrics"].items()):
            print(f"{name}  {metric:<30} {value:14.6g} {listed[metric]}")
    rate = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"{name}  {'error_rate':<22} {rate:12.4f} 1      "
          f"n={record['attempted']}")
    for problem in record["problems"]:
        print(f"{name}  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "noisegan" / "__init__.py").is_file():
        print(f"benchmark: no program to measure at {SRC / 'noisegan'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = bench["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)

    env = environment(args.seed)
    print("environment  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        record["listed"] = listed_metrics(record, listed, bool(args.trace))
        print_record(record, {m["name"]: m["unit"] for m in listed})
        records.append(record)

    doc = {"command": [sys.executable.rsplit("/", 1)[-1], "perfbench/run.py",
                       *(argv if argv is not None else sys.argv[1:])],
           "environment": env, "records": records}
    with open(OUT / f"BENCH_{args.workload}_trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, default=str)
        fh.write("\n")

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["listed"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in r["listed"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
