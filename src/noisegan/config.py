"""Run configuration: each setting is one ``GanConfig`` field, which
declares its default and its range; the schedule, the policy and the
``noisegan`` flags read them from there.  Imports no other module of
the package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np


def at_least(low):
    """The range of a count: ``>= low``."""
    return f">= {low}", lambda v: v >= low


FINITE = "finite", math.isfinite
POSITIVE = "finite and > 0", lambda v: 0.0 < v < math.inf
_RATE = "finite and >= 0", lambda v: 0.0 <= v < math.inf
_DECAY = "in [0, 1)", lambda v: 0.0 <= v < 1.0
_BETA = "in (0, 1)", lambda v: 0.0 < v < 1.0

MODES = ("uniform", "priority")


@dataclass
class GanConfig:
    """Hyperparameters; defaults are the grid-of-Gaussians setup.

    Each field is a ``train`` flag: ``metadata["flag"]`` or the name with
    dashes; a bool field's flag sets the opposite of its default; see
    ``check_fields`` for ``metadata["range"]`` and ``["choices"]``.
    """

    total_steps: int = field(default=20000, metadata={"flag": "--steps",
                                                      "range": at_least(0)})
    batch_size: int = field(default=128, metadata={"flag": "--batch",
                                                   "range": at_least(1)})
    latent_dim: int = field(default=2, metadata={"range": at_least(1)})
    hidden: int = field(default=128, metadata={"range": at_least(1)})
    lr: float = field(default=1e-4, metadata={"range": _RATE})
    lr_d: float | None = field(default=None, metadata={
        "help": "discriminator learning rate (defaults to --lr)", "range": _RATE})
    beta1: float = field(default=0.5, metadata={"range": _DECAY})
    seed: int = field(default=1, metadata={"range": at_least(0)})
    # noising: the schedule's settings (and see validate)
    diffusion_enabled: bool = field(default=True, metadata={"flag": "--no-diffusion"})
    sigma: float = field(default=0.05, metadata={"range": POSITIVE})
    t_max_cap: int = field(default=1000, metadata={"range": at_least(1)})
    beta_start: float = field(default=1e-4, metadata={"range": _BETA})
    beta_end: float = field(default=0.02, metadata={"range": _BETA})
    # level policy
    t_min: int = field(default=5, metadata={"range": at_least(1)})
    t_max: int = field(default=1000, metadata={"range": at_least(1)})
    d_target: float = field(default=0.6, metadata={
        "range": ("in [-1, 1]", lambda v: -1.0 <= v <= 1.0)})
    c_step: int = field(default=2, metadata={"range": at_least(1)})
    mode: str = field(default="priority", metadata={"choices": MODES})
    update_interval: int = field(default=4, metadata={"range": at_least(1)})
    t_conditioned: bool = field(default=True, metadata={
        "flag": "--t-ignoring",
        "help": "hide the level feature t/t_max_cap from the discriminator "
                "(feature pinned to 0)"})

    def validate(self) -> None:
        """Raise ``ValueError`` unless every field is in range and in order."""
        check_fields(self)
        check_ramp(self)
        if not self.t_min <= self.t_max <= self.t_max_cap:
            raise ValueError("need t_min <= t_max <= t_max_cap, got "
                             f"{self.t_min}, {self.t_max}, {self.t_max_cap}")

    @property
    def disc_lr(self) -> float:
        """The discriminator's learning rate: ``lr_d``, or ``lr`` when unset."""
        return self.lr if self.lr_d is None else self.lr_d


def check_ramp(s) -> None:
    """Raise ``ValueError`` unless ``s.beta_start <= s.beta_end``: the
    schedule's one cross-field rule, for a config or a command's flags."""
    if not s.beta_start <= s.beta_end:
        raise ValueError(f"need beta_start <= beta_end, got {s.beta_start}, {s.beta_end}")


# declared type -> (accepted types, description): a float field takes ints,
# no number field takes a bool, and only an optional field takes None
_KINDS = {
    "int": ((int, np.integer), "an int"),
    "float": ((int, float, np.integer, np.floating), "a number"),
    "bool": ((bool, np.bool_), "true or false"),
    "str": ((str,), "a string"),
}


def check_fields(obj, of=None, name=lambda f: f.name) -> None:
    """Raise ``ValueError`` unless each dataclass field in ``of`` (default:
    ``obj``'s own), read from ``obj``, has its declared type and, unless it
    is None, is one of its ``metadata["choices"]`` and lies in its
    ``metadata["range"]``, a pair (what, ok) with ``ok(value)`` true in
    range.  The type is checked first, so no range test sees a wrong type;
    a message names a field ``name(field)``."""
    for f in fields(obj) if of is None else of:
        value = getattr(obj, f.name)
        base, _, rest = f.type.partition(" | ")    # annotations are strings here
        optional = rest == "None"
        if value is None and optional:
            continue
        accepted, what = _KINDS[base]
        # a bool is an int to Python, but not a number here
        if not isinstance(value, accepted) or (base != "bool" and isinstance(value, bool)):
            what += " or null" if optional else ""
            raise ValueError(f"{name(f)} must be {what}, got {value!r:.40}")
        if base == "float" and isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ValueError(f"{name(f)} is too large for a float, got {value!r:.40}")
        choices = f.metadata.get("choices")
        if choices and value not in choices:
            raise ValueError(f"{name(f)} must be one of {', '.join(choices)}, "
                             f"got {value!r:.40}")
        what, ok = f.metadata.get("range", ("", None))
        if ok and not ok(value):
            raise ValueError(f"{name(f)} must be {what}, got {value!s:.40}")


def config_from_dict(doc: dict) -> GanConfig:
    """Build a config from a mapping, rejecting unknown keys."""
    known = {f.name for f in fields(GanConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return GanConfig(**doc)
