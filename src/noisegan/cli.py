"""Command-line front end.

Subcommands: train, toy-jsd, toy-disc, schedule-dump, gradcheck,
diffuse-demo.  Every run writes its artifacts plus a meta.json (resolved
parameters and seed) into --out; reruns with the same arguments and seed
produce byte-identical CSVs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .analytic import (LN2, jsd_diffused, jsd_original, optimal_discriminator,
                       wasserstein_reference)
from .data import coverage, grid_25, load_csv, sample_grid, save_csv
from .errors import DataError, NumericError
from .gradcheck import run_suite
from .net import save_net
from .schedule import build_schedule, diffuse
from .trainer import GanConfig, config_asdict, config_from_dict, generate, train
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


def _write_rows(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fnum(v) -> str:
    return repr(float(v))


def _parse_int_list(text: str, name: str):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError(f"{name} must be a comma-separated integer list, got {text!r}")


def _schedule_from_args(args):
    return build_schedule(args.t_max_cap, args.beta_start, args.beta_end, args.sigma)


def _add_schedule_flags(p):
    p.add_argument("--t-max-cap", type=int, default=1000)
    p.add_argument("--beta-start", type=float, default=1e-4)
    p.add_argument("--beta-end", type=float, default=0.02)
    p.add_argument("--sigma", type=float, default=0.05)


def _add_common(p):
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default="out")


# ----------------------------------------------------------------- train

_FLAG_TO_FIELD = {
    "steps": "total_steps", "batch": "batch_size", "lr": "lr", "lr_d": "lr_d",
    "lr_decay_to": "lr_decay_to", "lr_decay_to_d": "lr_decay_to_d",
    "lr_hold_frac": "lr_hold_frac",
    "hidden": "hidden", "latent_dim": "latent_dim", "sigma": "sigma",
    "t_max_cap": "t_max_cap", "beta_start": "beta_start", "beta_end": "beta_end",
    "t_min": "t_min", "t_max": "t_max", "d_target": "d_target",
    "c_step": "c_step", "mode": "mode", "update_interval": "update_interval",
    "seed": "seed",
}


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
    for flag, fieldname in _FLAG_TO_FIELD.items():
        value = getattr(args, flag)
        if value is not None:
            doc[fieldname] = value
    if args.no_diffusion:
        doc["diffusion_enabled"] = False
    if args.t_ignoring:
        doc["t_conditioned"] = False
    try:
        cfg = config_from_dict(doc)
    except TypeError as e:
        raise DataError(f"bad config value: {e}") from None
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

    params = {"config": config_asdict(cfg), "data": args.data,
              "data_n": args.data_n, "sample_n": args.sample_n,
              "k_sigma": args.k_sigma, "min_count": args.min_count}
    _write_meta(args.out, "train", cfg.seed, params)
    return 0


# ---------------------------------------------------------------- toy-jsd

def cmd_toy_jsd(args) -> int:
    schedule = _schedule_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    if args.theta_steps < 2:
        raise _UsageError("--theta-steps must be >= 2")
    thetas = np.linspace(args.theta_min, args.theta_max, args.theta_steps)
    levels = _parse_int_list(args.t_list, "--t-list")
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
    _write_rows(os.path.join(args.out, "toy_jsd.csv"),
                ("theta", "t", "jsd", "method", "std_err"), rows)

    if args.svg:
        series.append(("no-noise ceiling", list(thetas), [LN2] * len(thetas)))
        series.append(("transport |theta|", list(thetas),
                       [wasserstein_reference(th) for th in thetas]))
        line_chart(os.path.join(args.out, "toy_jsd.svg"), series,
                   title="toy divergence vs offset", xlabel="theta", ylabel="nats")

    _write_meta(args.out, "toy-jsd", args.seed, {
        "theta_min": args.theta_min, "theta_max": args.theta_max,
        "theta_steps": args.theta_steps, "t_list": levels, "method": args.method,
        "mc_n": args.mc_n, "tol": args.tol, "sigma": args.sigma,
        "t_max_cap": args.t_max_cap, "beta_start": args.beta_start,
        "beta_end": args.beta_end})
    return 0


# --------------------------------------------------------------- toy-disc

def cmd_toy_disc(args) -> int:
    schedule = _schedule_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    levels = _parse_int_list(args.t_list, "--t-list")
    if any(t < 1 or t > schedule.t_max_cap for t in levels):
        raise _UsageError(
            f"toy-disc requires levels 1 <= t <= {schedule.t_max_cap}, got {levels}")

    rows, series = [], []
    for t in levels:
        abar = float(schedule.alpha_bars[t])
        a_t = np.sqrt(abar)
        std = np.sqrt((1.0 - abar) * schedule.sigma ** 2)
        mu2 = a_t * args.theta
        lo = args.y_min if args.y_min is not None else min(0.0, mu2) - 6.0 * std
        hi = args.y_max if args.y_max is not None else max(0.0, mu2) + 6.0 * std
        ys = np.linspace(lo, hi, args.y_steps)
        d_star = optimal_discriminator(ys, args.theta, t, schedule)
        rows.extend([_fnum(y), t, _fnum(args.theta), _fnum(d)]
                    for y, d in zip(ys, d_star))
        series.append((f"t={t}", list(ys), list(d_star)))
    _write_rows(os.path.join(args.out, "toy_disc.csv"),
                ("y", "t", "theta", "d_star"), rows)
    if args.svg:
        line_chart(os.path.join(args.out, "toy_disc.svg"), series,
                   title=f"optimal discriminator, theta={args.theta}",
                   xlabel="y", ylabel="D*(y)")
    _write_meta(args.out, "toy-disc", args.seed, {
        "theta": args.theta, "t_list": levels, "y_steps": args.y_steps,
        "y_min": args.y_min, "y_max": args.y_max, "sigma": args.sigma,
        "t_max_cap": args.t_max_cap, "beta_start": args.beta_start,
        "beta_end": args.beta_end})
    return 0


# ----------------------------------------------------------- schedule-dump

def cmd_schedule_dump(args) -> int:
    schedule = _schedule_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    rows = [[t, _fnum(schedule.betas[t]),
             _fnum(float(schedule.alpha_bars[t]))]
            for t in range(1, schedule.t_max_cap + 1)]
    _write_rows(os.path.join(args.out, "schedule.csv"),
                ("t", "beta", "alpha_bar"), rows)
    _write_meta(args.out, "schedule-dump", args.seed, {
        "t_max_cap": args.t_max_cap, "beta_start": args.beta_start,
        "beta_end": args.beta_end, "sigma": args.sigma})
    return 0


# ---------------------------------------------------------------- gradcheck

def cmd_gradcheck(args) -> int:
    schedule = _schedule_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    levels = _parse_int_list(args.t_list, "--t-list")
    rows, max_iso, max_path = run_suite(schedule, n_seeds=args.seeds,
                                        base_seed=args.seed, h=args.h,
                                        path_levels=tuple(levels))
    _write_rows(os.path.join(args.out, "gradcheck.csv"),
                ("check", "sizes", "seed", "t", "max_rel_err"),
                [[r["check"], r["sizes"], r["seed"], r["t"],
                  _fnum(r["max_rel_err"])] for r in rows])
    _write_meta(args.out, "gradcheck", args.seed, {
        "seeds": args.seeds, "h": args.h, "t_list": levels,
        "sigma": args.sigma, "t_max_cap": args.t_max_cap,
        "beta_start": args.beta_start, "beta_end": args.beta_end})
    overall = max(max_iso, max_path)
    print(f"gradcheck: isolated max rel err {max_iso:.3e}, "
          f"path max rel err {max_path:.3e}")
    if overall > 1e-5:
        print(f"gradcheck FAILED: {overall:.3e} > 1e-5", file=sys.stderr)
        return 3
    return 0


# -------------------------------------------------------------- diffuse-demo

def cmd_diffuse_demo(args) -> int:
    schedule = _schedule_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    levels = _parse_int_list(args.t_list, "--t-list")
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
        "sigma": args.sigma, "t_max_cap": args.t_max_cap,
        "beta_start": args.beta_start, "beta_end": args.beta_end})
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> _Parser:
    parser = _Parser(prog="noisegan",
                     description="noise-annealed GAN toolbox")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("train", help="train a GAN (noising on by default)")
    _add_common(p)
    p.add_argument("--config", help="JSON file of config fields")
    p.add_argument("--steps", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lr-d", type=float, dest="lr_d",
                   help="discriminator learning rate (defaults to --lr)")
    p.add_argument("--lr-decay-to", type=float, dest="lr_decay_to",
                   help="linearly decay learning rates to this fraction of "
                        "their start values (default 1.0: constant)")
    p.add_argument("--lr-decay-to-d", type=float, dest="lr_decay_to_d",
                   help="separate decay floor for the discriminator "
                        "(defaults to --lr-decay-to)")
    p.add_argument("--lr-hold-frac", type=float, dest="lr_hold_frac",
                   help="fraction of the run to hold learning rates at their "
                        "start values before the decay ramp (default 0.0)")
    p.add_argument("--hidden", type=int)
    p.add_argument("--latent-dim", type=int, dest="latent_dim")
    p.add_argument("--sigma", type=float)
    p.add_argument("--t-max-cap", type=int, dest="t_max_cap")
    p.add_argument("--beta-start", type=float, dest="beta_start")
    p.add_argument("--beta-end", type=float, dest="beta_end")
    p.add_argument("--t-min", type=int, dest="t_min")
    p.add_argument("--t-max", type=int, dest="t_max")
    p.add_argument("--d-target", type=float, dest="d_target")
    p.add_argument("--c-step", type=int, dest="c_step")
    p.add_argument("--mode", choices=("uniform", "priority"))
    p.add_argument("--update-interval", type=int, dest="update_interval")
    p.add_argument("--no-diffusion", action="store_true")
    p.add_argument("--t-ignoring", action="store_true",
                   help="hide the level feature from the discriminator")
    p.add_argument("--data", help="train on this CSV instead of the 5x5 grid")
    p.add_argument("--data-n", type=int, default=100000, dest="data_n")
    p.add_argument("--sample-n", type=int, default=10000, dest="sample_n")
    p.add_argument("--k-sigma", type=float, default=3.0, dest="k_sigma")
    p.add_argument("--min-count", type=float, default=None, dest="min_count")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_train, seed=None)

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
