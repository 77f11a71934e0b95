"""Command-line front end.

Subcommands: train, toy-jsd, toy-disc, schedule-dump, gradcheck,
diffuse-demo.  A command's own flags are the fields of its spec class in
``_COMMANDS``, which give the parser, the range checks and meta.json.
Every run creates --out, writes meta.json (resolved parameters and seed)
into it, then its artifacts; reruns with the same arguments and seed
produce byte-identical CSVs.

Exit codes: 0 success, 1 usage error (or sizes beyond memory), 2 data
error, 3 numeric failure (``train`` still writes its ``trace.csv``).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .analytic import (LN2, ToyParams, jsd_diffused, jsd_original,
                       optimal_discriminator, wasserstein_reference)
from .data import coverage, grid_25, load_csv, sample_grid, save_csv, write_rows
from .errors import DataError, NumericError
from .gradcheck import ISOLATED_BOUND, PATH_BOUND, run_suite
from .net import save_net
from .schedule import build_schedule, diffuse
from .trainer import (FINITE, POSITIVE, GanConfig, at_least, check_fields,
                      config_from_dict, generate, train)
from .svgplot import line_chart, scatter_chart


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(message)


def _prng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON with sorted keys; NaN and inf raise."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _start(args, seed: int, params: dict) -> None:
    """Create --out and write meta.json into it: the command, its seed and
    the value of each flag of its spec, or of ``params`` where given."""
    spec = _COMMANDS[args.command][0]
    doc = {"command": args.command, "seed": seed, "version": __version__,
           "params": {**{f.name: getattr(args, f.name) for f in fields(spec)}, **params}}
    try:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "meta.json"), doc)
    except OSError as e:
        raise _UsageError(f"--out {args.out!r:.80}: {e.strerror}") from None


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


def _prepare(args, lowest: int = 0, before=None):
    """Build the schedule and parse ``--t-list`` (levels None without one),
    run ``before(schedule, levels)`` if given, then create --out with its
    meta.json; returns (schedule, levels)."""
    params = {name: getattr(args, name) for name in _SCHEDULE_PARAMS}
    schedule = build_schedule(**params)
    if "t_list" in vars(args):
        params["t_list"] = _parse_levels(args, schedule, lowest)
    if before:
        before(schedule, params.get("t_list"))
    _start(args, args.seed, params)
    return schedule, params.get("t_list")


def _grid(lo: float, hi: float, steps: int, flags: str) -> np.ndarray:
    """``np.linspace(lo, hi, steps)``, refused if ``hi - lo`` overflows."""
    if not math.isfinite(hi - lo):
        raise _UsageError(f"{flags}: the grid from {lo!r} to {hi!r} overflows a float")
    return np.linspace(lo, hi, steps)


def _flag_name(name: str) -> str:
    return "--" + name.replace("_", "-")


def _flag(f) -> str:
    """The flag of spec field ``f``: ``metadata["flag"]`` or its name with dashes."""
    return f.metadata.get("flag", _flag_name(f.name))


_SCHEDULE_PARAMS = inspect.signature(build_schedule).parameters
_FLAG_TYPES = {"int": int, "float": float, "str": str}


def _add_flags(p, spec, unset=False):
    """One flag per field of the dataclass ``spec`` (see ``GanConfig``'s
    docstring), stored under the field's name, with its range in its help;
    a flag not given takes the field's default, or ``None`` with ``unset``."""
    for f in fields(spec):
        kw = {k: f.metadata[k] for k in ("help", "choices") if k in f.metadata}
        if "range" in f.metadata:
            kw["help"] = f"{kw.get('help', '')} (must be {f.metadata['range'][0]})"
        if f.type == "bool":
            kw.update(action="store_const", const=not f.default)
        else:
            kw["type"] = _FLAG_TYPES[f.type.split(" | ")[0]]
        p.add_argument(_flag(f), dest=f.name, default=None if unset else f.default, **kw)


@dataclass(init=False, repr=False, eq=False)
class SeedFlags:
    """``schedule-dump``'s flag, first in each spec below: the streams' seed."""

    seed: int = field(default=1, metadata={"range": at_least(0)})


# ----------------------------------------------------------------- train

@dataclass(init=False, repr=False, eq=False)
class TrainFlags:
    """``train``'s own flags; one flag per ``GanConfig`` field follows them."""

    config: str | None = field(default=None, metadata={
        "help": "JSON file of config fields"})
    data: str | None = field(default=None, metadata={
        "help": "train on this CSV instead of the 5x5 grid"})
    data_n: int = field(default=100000, metadata={"range": at_least(1)})
    sample_n: int = field(default=10000, metadata={"range": at_least(0)})
    k_sigma: float = field(default=3.0, metadata={"range": POSITIVE})
    min_count: float | None = field(default=None, metadata={"range": POSITIVE})
    svg: bool = False


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
    grid = grid_25()
    if args.data:
        dataset = load_csv(args.data)
        if dataset.shape[0] == 0:
            raise DataError(f"{args.data}: empty dataset")
    else:
        dataset = sample_grid(grid, args.data_n, _prng(cfg.seed, 0))
    _start(args, cfg.seed, {"config": asdict(cfg)})

    try:
        gen, disc, trace = train(dataset, cfg)
    except NumericError as e:   # the trace up to the failure is the evidence
        e.trace.write_csv(os.path.join(args.out, "trace.csv"))
        raise
    trace.write_csv(os.path.join(args.out, "trace.csv"))
    save_net(gen, os.path.join(args.out, "gen.json"))
    save_net(disc, os.path.join(args.out, "disc.json"))
    samples = generate(gen, args.sample_n, _prng(cfg.seed, 2))
    save_csv(samples, os.path.join(args.out, "samples.csv"))

    if not args.data:
        report = coverage(samples, grid, k_sigma=args.k_sigma,
                          min_count=args.min_count)
        _write_json(os.path.join(args.out, "coverage.json"), report.as_dict())
        print(f"modes covered: {report.modes_covered}/{grid.centers.shape[0]}  "
              f"high-quality fraction: {report.high_quality_fraction:.3f}")

    if args.svg:
        show = [("data", dataset[:2000]), ("generated", samples[:2000])]
        scatter_chart(os.path.join(args.out, "scatter.svg"), show,
                      title="data vs generated", xlabel="x1", ylabel="x2")
    return 0


# ---------------------------------------------------------------- toy-jsd

@dataclass(init=False, repr=False, eq=False)
class ToyJsdFlags(SeedFlags):
    """``toy-jsd``'s flags: the offsets and levels of the sweep, and how a
    divergence at a level above 0 is computed."""

    theta_min: float = field(default=-1.0, metadata={"range": FINITE})
    theta_max: float = field(default=1.0, metadata={"range": FINITE})
    theta_steps: int = field(default=401, metadata={"range": at_least(2)})
    t_list: str = "0,1,50,200,800"
    method: str = field(default="quadrature",
                        metadata={"choices": ("quadrature", "monte_carlo")})
    mc_n: int = field(default=200000, metadata={"range": at_least(2)})
    svg: bool = field(default=True, metadata={"flag": "--no-svg"})


def cmd_toy_jsd(args) -> int:
    thetas = _grid(args.theta_min, args.theta_max, args.theta_steps, "--theta-min/--theta-max")
    schedule, levels = _prepare(args)
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
                                   n=args.mc_n, rng=rng)
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
    return 0


# --------------------------------------------------------------- toy-disc

@dataclass(init=False, repr=False, eq=False)
class ToyDiscFlags(SeedFlags):
    """``toy-disc``'s flags: the offset, the levels (each >= 1) and the
    grid of y; an unset bound of y is 6 stds past the farther mean."""

    theta: float = field(default=0.5, metadata={"range": FINITE})
    t_list: str = "1,50,200,800"
    y_steps: int = field(default=201, metadata={"range": at_least(1)})
    y_min: float | None = field(default=None, metadata={"range": FINITE})
    y_max: float | None = field(default=None, metadata={"range": FINITE})
    svg: bool = field(default=True, metadata={"flag": "--no-svg"})


def cmd_toy_disc(args) -> int:
    rows, series = [], []

    def sweep(schedule, levels):    # before --out exists: a bad grid is refused first
        for t in levels:
            toy = ToyParams.at(args.theta, t, schedule)
            mu2, std = toy.a_t * toy.theta, math.sqrt(toy.b_t)
            lo = args.y_min if args.y_min is not None else min(0.0, mu2) - 6.0 * std
            hi = args.y_max if args.y_max is not None else max(0.0, mu2) + 6.0 * std
            ys = _grid(lo, hi, args.y_steps, "--y-min/--y-max (an unset one follows --theta)")
            d_star = optimal_discriminator(ys, args.theta, t, schedule)
            rows.extend([_fnum(y), t, _fnum(args.theta), _fnum(d)]
                        for y, d in zip(ys, d_star))
            series.append((f"t={t}", list(ys), list(d_star)))

    _prepare(args, lowest=1, before=sweep)
    write_rows(os.path.join(args.out, "toy_disc.csv"), rows,
               ("y", "t", "theta", "d_star"))
    if args.svg:
        line_chart(os.path.join(args.out, "toy_disc.svg"), series,
                   title=f"optimal discriminator, theta={args.theta}",
                   xlabel="y", ylabel="D*(y)")
    return 0


# ----------------------------------------------------------- schedule-dump

def cmd_schedule_dump(args) -> int:
    schedule, _ = _prepare(args)
    rows = [[t, _fnum(schedule.betas[t]),
             _fnum(float(schedule.alpha_bars[t]))]
            for t in range(1, schedule.t_max_cap + 1)]
    write_rows(os.path.join(args.out, "schedule.csv"), rows,
               ("t", "beta", "alpha_bar"))
    return 0


# ---------------------------------------------------------------- gradcheck

@dataclass(init=False, repr=False, eq=False)
class GradcheckFlags(SeedFlags):
    """``gradcheck``'s flags: the number of seeds, the finite-difference
    step and the levels of the path checks."""

    seeds: int = field(default=20, metadata={"range": at_least(1)})
    h: float = field(default=1e-5, metadata={"range": POSITIVE})
    t_list: str = "0,5,100"


def cmd_gradcheck(args) -> int:
    schedule, levels = _prepare(args)
    rows, max_iso, max_path = run_suite(schedule, n_seeds=args.seeds,
                                        base_seed=args.seed, h=args.h,
                                        path_levels=tuple(levels))
    write_rows(os.path.join(args.out, "gradcheck.csv"),
               [[r["check"], r["sizes"], r["seed"], r["t"], _fnum(r["max_rel_err"])]
                for r in rows],
               ("check", "sizes", "seed", "t", "max_rel_err"))
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

@dataclass(init=False, repr=False, eq=False)
class DiffuseDemoFlags(SeedFlags):
    """``diffuse-demo``'s flags: the points to noise and the levels."""

    data: str | None = field(default=None, metadata={
        "help": "CSV to noise (default: fresh grid samples)"})
    data_n: int = field(default=2000, metadata={"range": at_least(1)})
    t_list: str = "0,10,100,400,1000"
    svg: bool = False


def cmd_diffuse_demo(args) -> int:
    schedule, levels = _prepare(args)
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
    return 0


# ------------------------------------------------------------------ parser

# command -> (its spec, its function, its one-line help)
_COMMANDS = {
    "train": (TrainFlags, cmd_train, "train a GAN (noising on by default)"),
    "toy-jsd": (ToyJsdFlags, cmd_toy_jsd, "divergence sweep on the toy pair"),
    "toy-disc": (ToyDiscFlags, cmd_toy_disc, "optimal discriminator curves"),
    "schedule-dump": (SeedFlags, cmd_schedule_dump, "emit the beta / alpha_bar table"),
    "gradcheck": (GradcheckFlags, cmd_gradcheck, "finite-difference gradient audit"),
    "diffuse-demo": (DiffuseDemoFlags, cmd_diffuse_demo,
                     "noise a point cloud at several levels"),
}


def build_parser() -> _Parser:
    """Each command's flags: --out, then its spec's, then ``GanConfig``'s
    for ``train`` and the schedule's for every other command."""
    parser = _Parser(prog="noisegan",
                     description="noise-annealed GAN toolbox")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (spec, _, summary) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", default="out")
        _add_flags(p, spec)
        if spec is TrainFlags:
            _add_flags(p, GanConfig, unset=True)
        else:
            for param in _SCHEDULE_PARAMS.values():
                p.add_argument(_flag_name(param.name), type=type(param.default),
                               default=param.default)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        spec, run, _ = _COMMANDS[args.command]
        check_fields(args, spec, _flag)
        # a command's own finiteness checks decide a numeric failure, so
        # NumPy's overflow and invalid-value warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            return run(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError, UnicodeDecodeError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("usage error: the requested sizes do not fit in memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
