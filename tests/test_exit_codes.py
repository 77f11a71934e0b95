"""Every config, valid or not, ends in a documented outcome.

``GanConfig.validate`` either accepts a config or raises ``ValueError``
(``DataError`` is one), whatever the types and values in it; ``train``
turns that into exit code 1 with a usage message, never a traceback.
"""

import json
import math
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
