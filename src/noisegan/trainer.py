"""GAN training loop with forward-noising and the adaptive level policy.

Each step does, in order:

  I.  discriminator update — draw latents and a real minibatch, noise
      both at *shared* per-sample levels drawn from the exploration
      list, and take one Adam step on the non-saturating loss;
  II. generator update — fresh latents, fresh independent levels, one
      Adam step through the noising map (whose input Jacobian is the
      per-sample factor sqrt(alpha_bars[t])).  The objective and its
      gradient are ``generator_loss`` and ``generator_grads``, the
      functions ``gradcheck`` audits (its finite differences evaluate
      ``generator_objective``, the part of ``generator_loss`` after the
      generator, on stacks of nudged generator outputs);
  III. every ``update_interval`` steps, close the policy window (move
      the level ceiling, redraw the exploration list) and append a row
      to the trace.

With ``diffusion_enabled=False`` the same loop runs with levels pinned
to 0, no noise draws and no policy, which is exactly a vanilla
non-saturating GAN.

All randomness comes from one generator seeded with ``config.seed``;
the draw order is part of the contract (tests replay it):
init:  G weights, D weights, policy list; per step: z | real idx |
levels | eps_real | eps_fake | z2 | levels2 | eps2 | policy redraw.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .errors import NumericError
from .net import (AdamState, DenseNet, adam_step, backward, cond_input,
                  forward, init_dense)
from .schedule import (DiffusionSchedule, build_schedule, check_schedule_settings,
                       diffuse)
from .tsampler import (MODES, TimestepPolicy, check_policy_settings, draw_t,
                       init_policy, observe_d, update_t)


@dataclass
class GanConfig:
    """Hyperparameters; defaults are the grid-of-Gaussians setup.

    Each field is a ``train`` flag: ``metadata["flag"]`` or the name with
    dashes; a bool field's flag sets the opposite of its default.
    """

    total_steps: int = field(default=20000, metadata={"flag": "--steps"})
    batch_size: int = field(default=128, metadata={"flag": "--batch"})
    latent_dim: int = 2
    hidden: int = 128
    lr: float = 1e-4
    lr_d: float | None = field(default=None, metadata={
        "help": "discriminator learning rate (defaults to --lr)"})
    lr_decay_to: float = field(default=1.0, metadata={
        "help": "linearly decay learning rates to this fraction of their "
                "start values over the run (default 1.0: constant)"})
    beta1: float = 0.5
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 1
    # noising
    diffusion_enabled: bool = field(default=True, metadata={"flag": "--no-diffusion"})
    sigma: float = 0.05
    t_max_cap: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    # level policy
    t_min: int = 5
    t_max: int = 1000
    d_target: float = 0.6
    c_step: int = 2
    mode: str = field(default="priority", metadata={"choices": MODES})
    update_interval: int = 4
    t_conditioned: bool = field(default=True, metadata={
        "flag": "--t-ignoring",
        "help": "hide the level feature t/t_max_cap from the discriminator "
                "(feature pinned to 0)"})

    def validate(self) -> None:
        for f in fields(self):
            _check_type(f, getattr(self, f.name))
        if self.total_steps < 0:
            raise ValueError(f"total_steps must be >= 0, got {self.total_steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.latent_dim < 1 or self.hidden < 1:
            raise ValueError("latent_dim and hidden must be >= 1")
        for name in ("lr", "lr_d"):
            value = getattr(self, name)
            if value is not None and not (0.0 <= value < math.inf):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not (0.0 <= self.lr_decay_to <= 1.0):
            raise ValueError(
                f"lr_decay_to must be in [0, 1], got {self.lr_decay_to}")
        for name in ("beta1", "beta2"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not (0.0 < self.adam_eps < math.inf):
            raise ValueError(f"adam_eps must be finite and > 0, got {self.adam_eps}")
        check_schedule_settings(self.t_max_cap, self.beta_start, self.beta_end,
                                self.sigma)
        if not (self.t_max <= self.t_max_cap):
            raise ValueError(f"t_max {self.t_max} exceeds t_max_cap {self.t_max_cap}")
        # checked for both arms: the vanilla arm still closes a trace
        # window every update_interval steps
        check_policy_settings(self.t_min, self.t_max, self.d_target, self.c_step,
                              self.mode, self.update_interval)


# declared type -> (accepted types, description): a float field takes ints,
# no number field takes a bool, and only an optional field takes None
_KINDS = {
    "int": ((int, np.integer), "an int"),
    "float": ((int, float, np.integer, np.floating), "a number"),
    "bool": ((bool, np.bool_), "true or false"),
    "str": ((str,), "a string"),
}


def _check_type(f, value) -> None:
    """Raise ``ValueError`` unless ``value`` has the declared type of the
    config field ``f`` (checked before any range, so no comparison can
    hit a wrong type)."""
    base, _, rest = f.type.partition(" | ")    # annotations are strings here
    optional = rest == "None"
    if value is None and optional:
        return
    accepted, what = _KINDS[base]
    # a bool is an int to Python, but not a number here
    if not isinstance(value, accepted) or (base != "bool" and isinstance(value, bool)):
        what += " or null" if optional else ""
        raise ValueError(f"{f.name} must be {what}, got {value!r:.40}")
    if base == "float" and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{f.name} is too large for a float, got {value!r:.40}")


def config_from_dict(doc: dict) -> GanConfig:
    """Build a config from a mapping, rejecting unknown keys."""
    known = {f.name for f in fields(GanConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return GanConfig(**doc)


@dataclass
class TraceRow:
    step: int
    t_ceiling: int
    r_d: float
    d_loss: float
    g_loss: float
    d_real_mean: float
    d_fake_mean: float


@dataclass
class TrainTrace:
    """One row per policy window, ready to dump as CSV."""

    rows: list = field(default_factory=list)

    HEADER = ("step", "T", "r_d", "d_loss", "g_loss", "d_real_mean", "d_fake_mean")

    def append(self, row: TraceRow) -> None:
        self.rows.append(row)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.HEADER)
            for r in self.rows:
                writer.writerow([r.step, r.t_ceiling, repr(r.r_d), repr(r.d_loss),
                                 repr(r.g_loss), repr(r.d_real_mean), repr(r.d_fake_mean)])

    def column(self, name: str) -> np.ndarray:
        attr = {"step": "step", "T": "t_ceiling"}.get(name, name)
        return np.asarray([getattr(r, attr) for r in self.rows])


def softplus(x):
    """log(1 + exp(x)), overflow-safe."""
    return np.logaddexp(0.0, x)


def sigmoid(x):
    """1 / (1 + exp(-x)), overflow-safe."""
    return np.exp(-np.logaddexp(0.0, -x))


def d_loss(real_logits: np.ndarray, fake_logits: np.ndarray) -> float:
    """Discriminator objective: mean softplus(-real) + mean softplus(fake)."""
    r = np.asarray(real_logits, dtype=np.float64).ravel()
    f = np.asarray(fake_logits, dtype=np.float64).ravel()
    if r.size == 0 or f.size == 0:
        raise ValueError("d_loss needs non-empty logit batches")
    return float(softplus(-r).mean() + softplus(f).mean())


def g_loss(fake_logits: np.ndarray):
    """Non-saturating generator objective: mean softplus(-fake).

    A batch of logits (any shape up to (n, 1)) gives a float.  A stack
    (..., n, 1) gives one mean per copy, an array of the stack's shape:
    each is the mean of a contiguous row, bit for bit the float that
    copy gives alone.
    """
    f = np.asarray(fake_logits, dtype=np.float64)
    if f.size == 0:
        raise ValueError("g_loss needs a non-empty logit batch")
    means = softplus(-f.reshape(f.shape[:-2] + (-1,))).mean(axis=-1)
    return float(means) if f.ndim <= 2 else means


@dataclass
class TrainState:
    config: GanConfig
    data: np.ndarray
    rng: np.random.Generator
    schedule: DiffusionSchedule
    gen: DenseNet
    disc: DenseNet
    opt_g: AdamState
    opt_d: AdamState
    policy: TimestepPolicy        # None when diffusion is disabled
    trace: TrainTrace
    step: int = 0
    _win: dict = field(default_factory=lambda: {
        "d_loss": [], "g_loss": [], "d_real": [], "d_fake": []})


def init_train_state(dataset: np.ndarray, config: GanConfig) -> TrainState:
    """Validate inputs and build nets, optimizers, schedule and policy."""
    config.validate()
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError(f"dataset must be a non-empty (n, d) array, got {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ValueError("dataset contains non-finite values")
    dim = data.shape[1]
    rng = np.random.default_rng(config.seed)
    schedule = build_schedule(config.t_max_cap, config.beta_start,
                              config.beta_end, config.sigma)
    gen = init_dense([config.latent_dim, config.hidden, config.hidden, dim], rng)
    disc = init_dense([dim + 1, config.hidden, config.hidden, 1], rng)
    opt_g = AdamState(config.lr, config.beta1, config.beta2, config.adam_eps)
    lr_d = config.lr if config.lr_d is None else config.lr_d
    opt_d = AdamState(lr_d, config.beta1, config.beta2, config.adam_eps)
    policy = None
    if config.diffusion_enabled:
        policy = init_policy(rng, t_min=config.t_min, t_max=config.t_max,
                             d_target=config.d_target, c_step=config.c_step,
                             mode=config.mode, update_interval=config.update_interval)
    return TrainState(config, data, rng, schedule, gen, disc, opt_g, opt_d,
                      policy, TrainTrace())


def _level_feature(t: np.ndarray, t_conditioned: bool) -> np.ndarray:
    return t if t_conditioned else np.zeros_like(t)


def _disc_pass(disc, x, t, eps, schedule, t_conditioned, cache):
    """``forward(disc, ...)`` on generator output ``x`` (or, cache-free,
    a stack of outputs), noised at per-row levels ``t`` with noise
    ``eps`` (``None``: not noised) and given its level feature."""
    y = x if eps is None else diffuse(x, t, eps, schedule)
    return forward(disc, cond_input(y, _level_feature(t, t_conditioned),
                                    schedule.t_max_cap), cache=cache)


def generator_objective(disc: DenseNet, x: np.ndarray, t: np.ndarray, eps,
                        schedule: DiffusionSchedule, t_conditioned: bool):
    """Phase II's objective as a function of the generator's output:
    ``g_loss`` of the discriminator on ``x``, noised at per-sample levels
    ``t`` with noise ``eps``.  ``eps=None`` is the vanilla arm: ``x``
    reaches the discriminator as it is.  ``x`` is an (n, d) batch, which
    gives a float, or a stack (..., n, d) of them sharing ``t`` and
    ``eps``, which gives one loss per copy, each bit for bit that copy's
    float."""
    return g_loss(_disc_pass(disc, x, t, eps, schedule, t_conditioned,
                             cache=False)[0])


def generator_loss(gen: DenseNet, disc: DenseNet, z: np.ndarray, t: np.ndarray,
                   eps, schedule: DiffusionSchedule, t_conditioned: bool) -> float:
    """Phase II's objective, keeping no layer caches: ``generator_objective``
    on the generator's output for latents ``z``."""
    return generator_objective(disc, forward(gen, z, cache=False)[0], t, eps,
                               schedule, t_conditioned)


def generator_grads(gen: DenseNet, disc: DenseNet, z: np.ndarray, t: np.ndarray,
                    eps, schedule: DiffusionSchedule, t_conditioned: bool):
    """``generator_loss`` and its gradient with respect to ``gen.flat``.

    The gradient crosses the noising map through its input Jacobian, the
    per-sample factor ``schedule.keep[t]``.  Returns ``(g_loss, grads,
    (gen_cache, disc_cache))``; the forward caches let a caller inspect
    the pre-activations of the pass it differentiated.
    """
    x, gcache = forward(gen, z)
    logits, dcache = _disc_pass(disc, x, t, eps, schedule, t_conditioned, cache=True)
    _, in_grad = backward(disc, dcache, -sigmoid(-logits) / len(z),
                          param_grads=False)
    x_grad = in_grad[:, :x.shape[1]]
    if eps is not None:
        x_grad = x_grad * schedule.keep[t][:, None]
    grads, _ = backward(gen, gcache, x_grad)
    return g_loss(logits), grads, (gcache, dcache)


def train_step(state: TrainState) -> None:
    """One full step (phases I-III above); mutates ``state``."""
    cfg = state.config
    rng = state.rng
    m = cfg.batch_size
    dim = state.data.shape[1]

    if cfg.lr_decay_to != 1.0:
        # linear ramp from 1 at step 0 towards lr_decay_to at the end of the run
        f = 1.0 + (cfg.lr_decay_to - 1.0) * (state.step / max(1, cfg.total_steps))
        state.opt_g.lr = cfg.lr * f
        state.opt_d.lr = (cfg.lr if cfg.lr_d is None else cfg.lr_d) * f

    # I. discriminator
    z = rng.standard_normal((m, cfg.latent_dim))
    real = state.data[rng.integers(0, state.data.shape[0], size=m)]
    fake, _ = forward(state.gen, z, cache=False)
    if state.policy is not None:
        t = draw_t(state.policy, rng, m)
        real = diffuse(real, t, rng.standard_normal(real.shape), state.schedule)
        fake = diffuse(fake, t, rng.standard_normal(fake.shape), state.schedule)
    else:
        t = np.zeros(m, dtype=np.int64)

    feat = _level_feature(t, cfg.t_conditioned)
    d_in = np.empty((2 * m, dim + 1))
    cond_input(real, feat, cfg.t_max_cap, out=d_in[:m])
    cond_input(fake, feat, cfg.t_max_cap, out=d_in[m:])
    logits, dcache = forward(state.disc, d_in)
    r_logits, f_logits = logits[:m], logits[m:]
    dl = d_loss(r_logits, f_logits)
    d_fake_probs = sigmoid(f_logits)
    dlogits = np.concatenate([-sigmoid(-r_logits), d_fake_probs]) / m
    dgrads, _ = backward(state.disc, dcache, dlogits)
    adam_step(state.disc, dgrads, state.opt_d)

    d_real_probs = sigmoid(r_logits)
    if state.policy is not None:
        observe_d(state.policy, d_real_probs)

    # II. generator
    z2 = rng.standard_normal((m, cfg.latent_dim))
    if state.policy is not None:
        t2 = draw_t(state.policy, rng, m)
        eps2 = rng.standard_normal((m, dim))
    else:
        t2 = np.zeros(m, dtype=np.int64)
        eps2 = None
    gl, ggrads, _ = generator_grads(state.gen, state.disc, z2, t2, eps2,
                                    state.schedule, cfg.t_conditioned)
    adam_step(state.gen, ggrads, state.opt_g)

    # III. bookkeeping and policy window
    state.step += 1
    if not (np.isfinite(dl) and np.isfinite(gl)):
        state.trace.append(TraceRow(state.step, _ceiling(state), 0.0, dl, gl,
                                    float(d_real_probs.mean()),
                                    float(d_fake_probs.mean())))
        raise NumericError(f"non-finite loss at step {state.step}: "
                           f"d_loss={dl} g_loss={gl}")
    win = state._win
    win["d_loss"].append(dl)
    win["g_loss"].append(gl)
    win["d_real"].append(float(d_real_probs.mean()))
    win["d_fake"].append(float(d_fake_probs.mean()))
    if state.step % cfg.update_interval == 0:
        r_d = update_t(state.policy, rng) if state.policy is not None else 0.0
        _flush_window(state, r_d)


def _ceiling(state: TrainState) -> int:
    return state.policy.t_current if state.policy is not None else 0


def _flush_window(state: TrainState, r_d: float) -> None:
    win = state._win
    if not win["d_loss"]:
        return
    state.trace.append(TraceRow(
        state.step, _ceiling(state), float(r_d),
        float(np.mean(win["d_loss"])), float(np.mean(win["g_loss"])),
        float(np.mean(win["d_real"])), float(np.mean(win["d_fake"]))))
    for v in win.values():
        v.clear()


def train(dataset: np.ndarray, config: GanConfig):
    """Run the loop; returns ``(generator, discriminator, trace)``.

    A trailing window shorter than ``update_interval`` is flushed with
    the last known r_d = 0 convention so short runs still leave a row.
    """
    state = init_train_state(dataset, config)
    for _ in range(config.total_steps):
        train_step(state)
    if state._win["d_loss"]:
        _flush_window(state, 0.0)
    return state.gen, state.disc, state.trace


def generate(gen: DenseNet, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` samples from the generator (latents are standard normal)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    latent = gen.weights[0].shape[1]
    out, _ = forward(gen, rng.standard_normal((n, latent)), cache=False) if n else \
        (np.zeros((0, gen.weights[-1].shape[0])), None)
    return out


def config_asdict(config: GanConfig) -> dict:
    return asdict(config)
