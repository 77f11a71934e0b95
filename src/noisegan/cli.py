"""Command-line front end.

Subcommands: train, toy-jsd, toy-disc, schedule-dump, gradcheck,
diffuse-demo.  Every run writes its artifacts plus a meta.json (resolved
parameters and seed) into --out; reruns with the same arguments and seed
produce byte-identical CSVs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .analytic import (LN2, ToyParams, jsd_diffused, jsd_original,
                       optimal_discriminator, wasserstein_reference)
from .data import coverage, grid_25, load_csv, sample_grid, save_csv, write_rows
from .errors import DataError, NumericError
from .gradcheck import ISOLATED_BOUND, PATH_BOUND, run_suite
from .net import save_net
from .schedule import build_schedule, diffuse
from .trainer import GanConfig, config_from_dict, generate, train
from .svgplot import line_chart, scatter_chart


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(message)


def _prng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _write_meta(out_dir: str, command: str, seed: int, params: dict) -> None:
    doc = {"command": command, "seed": seed, "version": __version__,
           "params": params}
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fnum(v) -> str:
    return repr(float(v))


def _parse_levels(args, schedule, lowest: int = 0):
    """The levels of ``--t-list`` (at least one), each in
    [lowest, schedule.t_max_cap]."""
    try:
        levels = [int(tok) for tok in args.t_list.split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError("--t-list must be a comma-separated integer list, "
                          f"got {args.t_list!r}") from None
    if not levels:
        raise _UsageError(f"--t-list must name at least one level, got {args.t_list!r}")
    if any(t < lowest or t > schedule.t_max_cap for t in levels):
        raise _UsageError(f"{args.command} requires levels {lowest} <= t <= "
                          f"{schedule.t_max_cap}, got {args.t_list!r:.80}")
    return levels


def _flag_name(name: str) -> str:
    return "--" + name.replace("_", "-")


def _require_finite(args, *names) -> None:
    """Usage error unless each named float flag that is set is finite."""
    for name in names:
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            raise _UsageError(f"{_flag_name(name)} must be finite, got {value}")


_SCHEDULE_PARAMS = inspect.signature(build_schedule).parameters


def _schedule_params(args) -> dict:
    """The schedule settings of a run, keyed like ``build_schedule``'s
    parameters (and so in ``meta.json``)."""
    return {name: getattr(args, name) for name in _SCHEDULE_PARAMS}


def _add_schedule_flags(p):
    for name, param in _SCHEDULE_PARAMS.items():
        p.add_argument(_flag_name(name), type=type(param.default),
                       default=param.default)


def _add_common(p):
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default="out")


# ----------------------------------------------------------------- train

_FLAG_TYPES = {"int": int, "float": float, "str": str}


def _add_config_flags(p):
    """One flag per ``GanConfig`` field (see its docstring), stored under
    the field's name; an unset flag stays ``None``."""
    for f in fields(GanConfig):
        kw = {k: f.metadata[k] for k in ("help", "choices") if k in f.metadata}
        if f.type == "bool":
            kw.update(action="store_const", const=not f.default)
        else:
            kw["type"] = _FLAG_TYPES[f.type.split(" | ")[0]]
        p.add_argument(f.metadata.get("flag", _flag_name(f.name)), dest=f.name, **kw)


def _resolve_config(args) -> GanConfig:
    doc = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as e:
                raise DataError(f"config file {args.config}: {e}") from None
        if not isinstance(loaded, dict):
            raise DataError(f"config file {args.config}: expected a JSON object")
        doc.update(loaded)
    for f in fields(GanConfig):
        value = getattr(args, f.name)
        if value is not None:
            doc[f.name] = value
    cfg = config_from_dict(doc)
    cfg.validate()
    return cfg


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    os.makedirs(args.out, exist_ok=True)
    grid = grid_25()
    if args.data:
        dataset = load_csv(args.data)
        if dataset.shape[0] == 0:
            raise DataError(f"{args.data}: empty dataset")
    else:
        dataset = sample_grid(grid, args.data_n, _prng(cfg.seed, 0))

    gen, disc, trace = train(dataset, cfg)

    trace.write_csv(os.path.join(args.out, "trace.csv"))
    save_net(gen, os.path.join(args.out, "gen.json"))
    save_net(disc, os.path.join(args.out, "disc.json"))
    samples = generate(gen, args.sample_n, _prng(cfg.seed, 2))
    save_csv(samples, os.path.join(args.out, "samples.csv"))

    if not args.data:
        report = coverage(samples, grid, k_sigma=args.k_sigma,
                          min_count=args.min_count)
        with open(os.path.join(args.out, "coverage.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"modes covered: {report.modes_covered}/{grid.centers.shape[0]}  "
              f"high-quality fraction: {report.high_quality_fraction:.3f}")

    if args.svg:
        show = [("data", dataset[:2000]), ("generated", samples[:2000])]
        scatter_chart(os.path.join(args.out, "scatter.svg"), show,
                      title="data vs generated", xlabel="x1", ylabel="x2")

    params = {"config": asdict(cfg), "data": args.data,
              "data_n": args.data_n, "sample_n": args.sample_n,
              "k_sigma": args.k_sigma, "min_count": args.min_count}
    _write_meta(args.out, "train", cfg.seed, params)
    return 0


# ---------------------------------------------------------------- toy-jsd

def cmd_toy_jsd(args) -> int:
    schedule = build_schedule(**_schedule_params(args))
    if not (0.0 < args.tol < math.inf):
        raise _UsageError(f"--tol must be finite and > 0, got {args.tol}")
    if args.theta_steps < 2:
        raise _UsageError("--theta-steps must be >= 2")
    _require_finite(args, "theta_min", "theta_max")
    if args.method == "monte_carlo" and args.mc_n < 2:
        raise _UsageError(f"--mc-n must be >= 2 with --method monte_carlo, "
                          f"got {args.mc_n}")
    levels = _parse_levels(args, schedule)
    os.makedirs(args.out, exist_ok=True)
    thetas = np.linspace(args.theta_min, args.theta_max, args.theta_steps)
    rng = _prng(args.seed, 3)

    rows, series = [], []
    for t in levels:
        values = []
        for theta in thetas:
            if t == 0:
                value = jsd_original(float(theta))
                rows.append([_fnum(theta), t, _fnum(value), "closed_form", ""])
            else:
                est = jsd_diffused(float(theta), t, schedule, method=args.method,
                                   n=args.mc_n, rng=rng, tol=args.tol)
                err = "" if est.std_err is None else _fnum(est.std_err)
                rows.append([_fnum(theta), t, _fnum(est.value), est.method, err])
                value = est.value
            values.append(value)
        series.append((f"t={t}", list(thetas), values))
    write_rows(os.path.join(args.out, "toy_jsd.csv"), rows,
               ("theta", "t", "jsd", "method", "std_err"))

    if args.svg:
        series.append(("no-noise ceiling", list(thetas), [LN2] * len(thetas)))
        series.append(("transport |theta|", list(thetas),
                       [wasserstein_reference(th) for th in thetas]))
        line_chart(os.path.join(args.out, "toy_jsd.svg"), series,
                   title="toy divergence vs offset", xlabel="theta", ylabel="nats")

    _write_meta(args.out, "toy-jsd", args.seed, {
        "theta_min": args.theta_min, "theta_max": args.theta_max,
        "theta_steps": args.theta_steps, "t_list": levels, "method": args.method,
        "mc_n": args.mc_n, "tol": args.tol, **_schedule_params(args)})
    return 0


# --------------------------------------------------------------- toy-disc

def cmd_toy_disc(args) -> int:
    schedule = build_schedule(**_schedule_params(args))
    if args.y_steps < 1:
        raise _UsageError(f"--y-steps must be >= 1, got {args.y_steps}")
    _require_finite(args, "theta", "y_min", "y_max")
    levels = _parse_levels(args, schedule, lowest=1)
    os.makedirs(args.out, exist_ok=True)

    rows, series = [], []
    for t in levels:
        toy = ToyParams.at(args.theta, t, schedule)
        mu2, std = toy.a_t * toy.theta, math.sqrt(toy.b_t)
        lo = args.y_min if args.y_min is not None else min(0.0, mu2) - 6.0 * std
        hi = args.y_max if args.y_max is not None else max(0.0, mu2) + 6.0 * std
        ys = np.linspace(lo, hi, args.y_steps)
        d_star = optimal_discriminator(ys, args.theta, t, schedule)
        rows.extend([_fnum(y), t, _fnum(args.theta), _fnum(d)]
                    for y, d in zip(ys, d_star))
        series.append((f"t={t}", list(ys), list(d_star)))
    write_rows(os.path.join(args.out, "toy_disc.csv"), rows,
               ("y", "t", "theta", "d_star"))
    if args.svg:
        line_chart(os.path.join(args.out, "toy_disc.svg"), series,
                   title=f"optimal discriminator, theta={args.theta}",
                   xlabel="y", ylabel="D*(y)")
    _write_meta(args.out, "toy-disc", args.seed, {
        "theta": args.theta, "t_list": levels, "y_steps": args.y_steps,
        "y_min": args.y_min, "y_max": args.y_max, **_schedule_params(args)})
    return 0


# ----------------------------------------------------------- schedule-dump

def cmd_schedule_dump(args) -> int:
    schedule = build_schedule(**_schedule_params(args))
    os.makedirs(args.out, exist_ok=True)
    rows = [[t, _fnum(schedule.betas[t]),
             _fnum(float(schedule.alpha_bars[t]))]
            for t in range(1, schedule.t_max_cap + 1)]
    write_rows(os.path.join(args.out, "schedule.csv"), rows,
               ("t", "beta", "alpha_bar"))
    _write_meta(args.out, "schedule-dump", args.seed, _schedule_params(args))
    return 0


# ---------------------------------------------------------------- gradcheck

def cmd_gradcheck(args) -> int:
    schedule = build_schedule(**_schedule_params(args))
    if not (0.0 < args.h < math.inf):
        raise _UsageError(f"--h must be finite and > 0, got {args.h}")
    if args.seeds < 1:
        raise _UsageError(f"--seeds must be >= 1, got {args.seeds}")
    levels = _parse_levels(args, schedule)
    os.makedirs(args.out, exist_ok=True)
    rows, max_iso, max_path = run_suite(schedule, n_seeds=args.seeds,
                                        base_seed=args.seed, h=args.h,
                                        path_levels=tuple(levels))
    write_rows(os.path.join(args.out, "gradcheck.csv"),
               [[r["check"], r["sizes"], r["seed"], r["t"], _fnum(r["max_rel_err"])]
                for r in rows],
               ("check", "sizes", "seed", "t", "max_rel_err"))
    _write_meta(args.out, "gradcheck", args.seed, {
        "seeds": args.seeds, "h": args.h, "t_list": levels,
        **_schedule_params(args)})
    print(f"gradcheck: isolated max rel err {max_iso:.3e}, "
          f"path max rel err {max_path:.3e}")
    failed = [f"{kind} max rel err {err:.3e} > {bound:g}"
              for kind, err, bound in (("isolated", max_iso, ISOLATED_BOUND),
                                       ("path", max_path, PATH_BOUND))
              if not err <= bound]
    if failed:
        print(f"gradcheck FAILED: {'; '.join(failed)}", file=sys.stderr)
        return 3
    return 0


# -------------------------------------------------------------- diffuse-demo

def cmd_diffuse_demo(args) -> int:
    schedule = build_schedule(**_schedule_params(args))
    levels = _parse_levels(args, schedule)
    os.makedirs(args.out, exist_ok=True)
    if args.data:
        points = load_csv(args.data)
        if points.shape[0] == 0:
            raise DataError(f"{args.data}: empty dataset")
    else:
        points = sample_grid(grid_25(), args.data_n, _prng(args.seed, 0))
        save_csv(points, os.path.join(args.out, "input.csv"))

    rng = _prng(args.seed, 1)
    groups = []
    for t in levels:
        eps = rng.standard_normal(points.shape)
        noised = diffuse(points, np.int64(t), eps, schedule)
        save_csv(noised, os.path.join(args.out, f"diffused_t{t}.csv"))
        groups.append((f"t={t}", noised[:1500]))
    if args.svg:
        scatter_chart(os.path.join(args.out, "diffuse_demo.svg"), groups,
                      title="forward noising", xlabel="x1", ylabel="x2")
    _write_meta(args.out, "diffuse-demo", args.seed, {
        "t_list": levels, "data": args.data, "data_n": args.data_n,
        **_schedule_params(args)})
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> _Parser:
    parser = _Parser(prog="noisegan",
                     description="noise-annealed GAN toolbox")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("train", help="train a GAN (noising on by default)")
    p.add_argument("--out", default="out")
    p.add_argument("--config", help="JSON file of config fields")
    _add_config_flags(p)
    p.add_argument("--data", help="train on this CSV instead of the 5x5 grid")
    p.add_argument("--data-n", type=int, default=100000, dest="data_n")
    p.add_argument("--sample-n", type=int, default=10000, dest="sample_n")
    p.add_argument("--k-sigma", type=float, default=3.0, dest="k_sigma")
    p.add_argument("--min-count", type=float, default=None, dest="min_count")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("toy-jsd", help="divergence sweep on the toy pair")
    _add_common(p)
    _add_schedule_flags(p)
    p.add_argument("--theta-min", type=float, default=-1.0)
    p.add_argument("--theta-max", type=float, default=1.0)
    p.add_argument("--theta-steps", type=int, default=401)
    p.add_argument("--t-list", default="0,1,50,200,800")
    p.add_argument("--method", choices=("quadrature", "monte_carlo"),
                   default="quadrature")
    p.add_argument("--mc-n", type=int, default=200000, dest="mc_n")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--no-svg", dest="svg", action="store_false")
    p.set_defaults(func=cmd_toy_jsd, svg=True)

    p = sub.add_parser("toy-disc", help="optimal discriminator curves")
    _add_common(p)
    _add_schedule_flags(p)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--t-list", default="1,50,200,800")
    p.add_argument("--y-steps", type=int, default=201)
    p.add_argument("--y-min", type=float, default=None)
    p.add_argument("--y-max", type=float, default=None)
    p.add_argument("--no-svg", dest="svg", action="store_false")
    p.set_defaults(func=cmd_toy_disc, svg=True)

    p = sub.add_parser("schedule-dump", help="emit the beta / alpha_bar table")
    _add_common(p)
    _add_schedule_flags(p)
    p.set_defaults(func=cmd_schedule_dump)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    _add_common(p)
    _add_schedule_flags(p)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--t-list", default="0,5,100")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("diffuse-demo", help="noise a point cloud at several levels")
    _add_common(p)
    _add_schedule_flags(p)
    p.add_argument("--data", help="CSV to noise (default: fresh grid samples)")
    p.add_argument("--data-n", type=int, default=2000, dest="data_n")
    p.add_argument("--t-list", default="0,10,100,400,1000")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_diffuse_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
