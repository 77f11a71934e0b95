"""GAN training loop with forward-noising and the adaptive level policy.

Each step does, in order:

  I.  discriminator update — draw latents and a real minibatch, noise
      both at *shared* per-sample levels drawn from the exploration
      list, and take one Adam step on the non-saturating loss;
  II. generator update — fresh latents, fresh independent levels, one
      Adam step through the noising map (whose input Jacobian is the
      per-sample factor sqrt(alpha_bars[t]));
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
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .errors import NumericError
from .net import (AdamState, DenseNet, adam_step, backward, cond_input,
                  forward, init_dense)
from .schedule import DiffusionSchedule, build_schedule, diffuse
from .tsampler import (TimestepPolicy, check_policy_settings, draw_t, init_policy,
                       observe_d, update_t)


@dataclass
class GanConfig:
    """Hyperparameters; defaults are the grid-of-Gaussians setup."""

    total_steps: int = 20000
    batch_size: int = 128
    latent_dim: int = 2
    hidden: int = 128
    lr: float = 1e-4
    lr_d: float | None = None   # discriminator learning rate; None means lr
    # linear decay of each learning rate to (start * floor) over the run;
    # 1.0 keeps a rate constant.  lr_decay_to_d is the discriminator's own
    # floor (None: same as the generator's).  lr_hold_frac delays the ramp:
    # rates stay at their start values for that fraction of total_steps first
    lr_decay_to: float = 1.0
    lr_decay_to_d: float | None = None
    lr_hold_frac: float = 0.0
    beta1: float = 0.5
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 1
    # noising
    diffusion_enabled: bool = True
    sigma: float = 0.05
    t_max_cap: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    # level policy
    t_min: int = 5
    t_max: int = 1000
    d_target: float = 0.6
    c_step: int = 2
    mode: str = "priority"
    update_interval: int = 4
    # condition the discriminator on t/t_max_cap (False: feature pinned to 0)
    t_conditioned: bool = True

    def validate(self) -> None:
        if self.total_steps < 0:
            raise ValueError(f"total_steps must be >= 0, got {self.total_steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.latent_dim < 1 or self.hidden < 1:
            raise ValueError("latent_dim and hidden must be >= 1")
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.lr_d is not None and self.lr_d < 0:
            raise ValueError(f"lr_d must be >= 0, got {self.lr_d}")
        if not (0.0 <= self.lr_decay_to <= 1.0):
            raise ValueError(
                f"lr_decay_to must be in [0, 1], got {self.lr_decay_to}")
        if self.lr_decay_to_d is not None and not (0.0 <= self.lr_decay_to_d <= 1.0):
            raise ValueError(
                f"lr_decay_to_d must be in [0, 1], got {self.lr_decay_to_d}")
        if not (0.0 <= self.lr_hold_frac <= 1.0):
            raise ValueError(
                f"lr_hold_frac must be in [0, 1], got {self.lr_hold_frac}")
        if not (self.t_max <= self.t_max_cap):
            raise ValueError(f"t_max {self.t_max} exceeds t_max_cap {self.t_max_cap}")
        # checked for both arms: the vanilla arm still closes a trace
        # window every update_interval steps
        check_policy_settings(self.t_min, self.t_max, self.d_target, self.c_step,
                              self.mode, self.update_interval)


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


def g_loss(fake_logits: np.ndarray) -> float:
    """Non-saturating generator objective: mean softplus(-fake)."""
    f = np.asarray(fake_logits, dtype=np.float64).ravel()
    if f.size == 0:
        raise ValueError("g_loss needs a non-empty logit batch")
    return float(softplus(-f).mean())


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


def _noised_batch(state: TrainState, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    eps = state.rng.standard_normal(x.shape)
    return diffuse(x, t, eps, state.schedule)


def _level_feature(state: TrainState, t: np.ndarray):
    if state.config.t_conditioned:
        return t
    return np.zeros_like(t)


def lr_factor(step: int, config: GanConfig, floor: float) -> float:
    """Learning-rate multiplier for the 0-based ``step``: 1.0 through the
    hold phase, then a linear ramp down to ``floor``."""
    if floor == 1.0 or config.lr_hold_frac >= 1.0:
        return 1.0
    s = step / max(1, config.total_steps)
    h = config.lr_hold_frac
    if s <= h:
        return 1.0
    return 1.0 + (floor - 1.0) * (s - h) / (1.0 - h)


def train_step(state: TrainState) -> None:
    """One full step (phases I-III above); mutates ``state``."""
    cfg = state.config
    rng = state.rng
    m = cfg.batch_size
    dim = state.data.shape[1]

    d_floor = cfg.lr_decay_to if cfg.lr_decay_to_d is None else cfg.lr_decay_to_d
    if cfg.lr_decay_to != 1.0 or d_floor != 1.0:
        state.opt_g.lr = cfg.lr * lr_factor(state.step, cfg, cfg.lr_decay_to)
        state.opt_d.lr = ((cfg.lr if cfg.lr_d is None else cfg.lr_d)
                          * lr_factor(state.step, cfg, d_floor))

    # I. discriminator
    z = rng.standard_normal((m, cfg.latent_dim))
    idx = rng.integers(0, state.data.shape[0], size=m)
    real = state.data[idx]
    if state.policy is not None:
        t = draw_t(state.policy, rng, m)
        y_real = _noised_batch(state, real, t)
    else:
        t = np.zeros(m, dtype=np.int64)
        y_real = real
    x_fake, _ = forward(state.gen, z, cache=False)
    y_fake = _noised_batch(state, x_fake, t) if state.policy is not None else x_fake

    feat = _level_feature(state, t)
    d_in = np.empty((2 * m, dim + 1))
    cond_input(y_real, feat, cfg.t_max_cap, out=d_in[:m])
    cond_input(y_fake, feat, cfg.t_max_cap, out=d_in[m:])
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
    x_gen, gcache = forward(state.gen, z2)
    if state.policy is not None:
        t2 = draw_t(state.policy, rng, m)
        y_gen = _noised_batch(state, x_gen, t2)
    else:
        t2 = np.zeros(m, dtype=np.int64)
        y_gen = x_gen
    logits2, dcache2 = forward(state.disc, cond_input(y_gen, _level_feature(state, t2),
                                                      cfg.t_max_cap))
    gl = g_loss(logits2)
    _, in_grad = backward(state.disc, dcache2, -sigmoid(-logits2) / m,
                          param_grads=False)
    x_grad = in_grad[:, :dim]
    if state.policy is not None:
        x_grad = x_grad * state.schedule.keep[t2][:, None]
    ggrads, _ = backward(state.gen, gcache, x_grad)
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
