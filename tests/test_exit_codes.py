"""Every config and every command line ends in a documented outcome.

``GanConfig.validate`` either accepts a config or raises ``ValueError``
(``DataError`` is one), whatever the types and values in it; ``train``
turns that into exit code 1 with a usage message, never a traceback.
Whole argvs for every subcommand exit 0, 1, 2 or 3.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import typing
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from noisegan.cli import main
from noisegan.trainer import GanConfig, config_from_dict

HINTS = typing.get_type_hints(GanConfig)

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.integers(-2 ** 1100, 2 ** 1100),
    st.text(max_size=4), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)


def values_for(hint):
    """Plausible values of the declared type, edges included, or junk."""
    args = typing.get_args(hint)
    base = next((a for a in args if a is not type(None)), hint)
    valid = {
        int: st.integers(-3, 1200),
        float: st.one_of(st.floats(-2.0, 2.0), st.integers(-2, 2),
                         st.sampled_from([0.0, 1.0, 1e-4, math.inf, math.nan])),
        bool: st.booleans(),
        str: st.sampled_from(["uniform", "priority", "greedy", ""]),
    }[base]
    return st.one_of(valid, valid, JUNK)


CONFIG_DOCS = st.fixed_dictionaries(
    {}, optional={f.name: values_for(HINTS[f.name]) for f in fields(GanConfig)})


def declared_type_holds(name, value) -> bool:
    hint = HINTS[name]
    args = typing.get_args(hint)
    if value is None:
        return type(None) in args
    base = next((a for a in args if a is not type(None)), hint)
    if base is bool or isinstance(value, bool):
        return base is bool and isinstance(value, bool)
    if base is float:
        return isinstance(value, (int, float))
    return isinstance(value, base)


@settings(max_examples=300, deadline=None)
@given(CONFIG_DOCS)
def test_validate_accepts_or_raises_value_error(doc):
    try:
        cfg = config_from_dict(doc)
        cfg.validate()
    except ValueError:
        return
    for f in fields(GanConfig):
        assert declared_type_holds(f.name, getattr(cfg, f.name)), f.name


SMALL_RUN = ["--steps", "0", "--data-n", "64", "--sample-n", "16"]


@pytest.mark.parametrize("doc, code", [
    ({}, 0),
    ({"lr": 1, "lr_d": None, "batch_size": 4, "hidden": 4}, 0),
    ({"diffusion_enabled": False, "t_conditioned": False, "hidden": 4}, 0),
    ({"lr": "fast"}, 1),
    ({"batch_size": 2.5}, 1),
    ({"diffusion_enabled": "no"}, 1),
    ({"hidden": True}, 1),
    ({"lr": None}, 1),
    ({"mode": 3}, 1),
    ({"d_target": 2 ** 64}, 1),
    ({"lr": 10 ** 400}, 1),
    ({"seed": [1]}, 1),
    ({"t_max": 2000}, 1),
    ({"learning_rate": 1e-3}, 1),
    ([1, 2], 2),
    ("not json", 2),
])
def test_train_config_exit_codes(tmp_path, capsys, doc, code):
    path = tmp_path / "c.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o"),
               *SMALL_RUN])
    err = capsys.readouterr().err
    assert rc == code, err
    assert "Traceback" not in err
    if code:
        assert err.startswith(("usage error:", "data error:"))


# ------------------------------------------------------------ whole argvs

JUNK_TOKEN = st.sampled_from(["", "x", "nan", "inf", "-inf", "-1", "1e400", "0x10",
                              "2.5"])


def token(valid):
    """A flag value: mostly from ``valid``, drawn as a string, else junk
    (no junk is an int, so a capped size stays capped)."""
    junk = st.one_of(JUNK_TOKEN, st.floats().map(str))
    return st.integers(0, 15).flatmap(lambda k: junk if k == 0 else valid.map(str))


def small(cap, lowest=0):
    return token(st.integers(lowest, cap))


ANY_INT = token(st.integers(0, 2 ** 70))
UNIT = token(st.floats(0.0, 1.0))
RATE = token(st.floats(0.0, 0.05))
ANY_FLOAT = token(st.floats(-3.0, 3.0))
LEVELS = st.one_of(
    st.lists(st.integers(0, 60), max_size=3).map(lambda ls: ",".join(map(str, ls))),
    st.lists(st.integers(-1, 2 ** 70), max_size=2).map(lambda ls: ",".join(map(str, ls))),
    JUNK_TOKEN)
SCHEDULE = {"--t-max-cap": small(2000, 1), "--beta-start": token(st.floats(0.0, 0.01)),
            "--beta-end": token(st.floats(0.005, 0.05)), "--sigma": UNIT}
SEED = {"--seed": ANY_INT}

# Per subcommand: flags that are always given (each size is capped, so no
# example allocates or loops without bound) and flags that may be given;
# a value of None marks a switch.
COMMANDS = {
    "train": ({"--steps": small(4), "--batch": small(8, 1), "--hidden": small(8, 1),
               "--latent-dim": small(4, 1), "--data-n": small(64),
               "--sample-n": small(64)},
              {**SEED, **SCHEDULE, "--lr": RATE, "--lr-d": RATE,
               "--beta1": UNIT, "--t-min": small(60), "--t-max": small(1200),
               "--d-target": UNIT, "--c-step": small(5),
               "--update-interval": small(5),
               "--mode": st.sampled_from(["uniform", "priority", "greedy"]),
               "--no-diffusion": None, "--t-ignoring": None, "--svg": None,
               "--k-sigma": ANY_FLOAT, "--min-count": ANY_FLOAT,
               "--config": st.sampled_from(["ok.json", "bad.json", "junk.json",
                                            "absent.json"]),
               "--data": st.sampled_from(["pts.csv", "bad.csv", "absent.csv"])}),
    "toy-jsd": ({"--theta-steps": small(5, 1), "--mc-n": small(200),
                 "--t-list": LEVELS},
                {**SEED, **SCHEDULE, "--theta-min": ANY_FLOAT,
                 "--theta-max": ANY_FLOAT, "--no-svg": None,
                 "--method": st.sampled_from(["quadrature", "monte_carlo", "exact"])}),
    "toy-disc": ({"--y-steps": small(50), "--t-list": LEVELS},
                 {**SEED, **SCHEDULE, "--theta": ANY_FLOAT, "--y-min": ANY_FLOAT,
                  "--y-max": ANY_FLOAT, "--no-svg": None}),
    "schedule-dump": ({"--t-max-cap": small(2000)},
                      {**SEED, **{k: v for k, v in SCHEDULE.items()
                                  if k != "--t-max-cap"}}),
    "gradcheck": ({"--seeds": small(1), "--t-list": LEVELS},
                  {**SEED, **SCHEDULE, "--h": token(st.floats(0.0, 1e-3))}),
    "diffuse-demo": ({"--data-n": small(64), "--t-list": LEVELS},
                     {**SEED, **SCHEDULE, "--svg": None,
                      "--data": st.sampled_from(["pts.csv", "bad.csv", "absent.csv"])}),
}
INPUT_FILES = {"ok.json": '{"hidden": 4, "lr_d": 0.004}', "bad.json": '{"beta1": 5.0}',
               "junk.json": "{", "pts.csv": "0.5,0.5\n-1.0,2.0\n", "bad.csv": "1,x\n"}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    always, maybe = COMMANDS[command]
    chosen = dict(always)
    chosen.update({flag: maybe[flag] for flag in draw(
        st.lists(st.sampled_from(sorted(maybe)), unique=True, max_size=6))})
    pairs = [[flag] if value is None else [flag, draw(value)]
             for flag, value in chosen.items()]
    extra = draw(st.sampled_from([[]] * 8 + [["--frob"], ["stray"]]))
    return [command, *(tok for pair in draw(st.permutations(pairs)) for tok in pair),
            *extra]


# --out: mostly a fresh directory, else an existing file or a path under one
OUTS = st.sampled_from(["out"] * 8 + ["pts.csv", os.path.join("pts.csv", "x")])


@settings(max_examples=200, deadline=None)
@given(argvs(), OUTS)
def test_every_argv_exits_with_a_documented_code(argv, out):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in INPUT_FILES.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [os.path.join(tmp, tok) if tok in INPUT_FILES or tok.startswith("absent")
                else tok for tok in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([*argv, "--out", os.path.join(tmp, out)])
    assert rc in (0, 1, 2, 3), (argv, out)
    assert "Traceback" not in err.getvalue()
