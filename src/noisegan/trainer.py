"""GAN training loop with forward-noising and the adaptive level policy.

``init_train_state`` validates the run's ``GanConfig`` (``noisegan.config``)
and builds the nets, the schedule and the policy from it.  Each step
does, in order:

  I.  discriminator update — draw latents and a real minibatch, noise
      both at *shared* per-sample levels drawn from the exploration
      list, and take one Adam step on the non-saturating loss;
  II. generator update — fresh latents, fresh independent levels, one
      Adam step through the noising map (whose input Jacobian is the
      per-sample factor sqrt(alpha_bars[t])).  The objective is
      ``generator_objective`` of the generator's output;
      ``generator_grads`` gives it and its gradient, which ``gradcheck``
      audits against finite differences of ``generator_objective`` on
      stacks of nudged generator outputs;
  III. add the step's values to the trace's window; every
      ``update_interval`` steps, close the policy window (move the level
      ceiling, redraw the exploration list) and the trace's window,
      which appends a row of the one schema, ``TraceRow``.

With ``diffusion_enabled=False`` the same loop runs with levels pinned
to 0, no noise draws and no policy, which is exactly a vanilla
non-saturating GAN.

All randomness comes from one generator seeded with ``config.seed``;
the draw order is part of the contract (tests replay it):
init:  G weights, D weights, policy list; per step: z | real idx |
levels | eps_real | eps_fake | z2 | levels2 | eps2 | policy redraw.
Phase I draws eps_real and eps_fake as one (2, m, d) array, which is
the same stream as the two (m, d) draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .config import GanConfig, config_from_dict  # noqa: F401 (re-exported)
from .data import write_rows
from .errors import NumericError
from .net import (AdamState, DenseNet, adam_step, backward, cond_input,
                  forward, init_dense)
from .schedule import DiffusionSchedule, build_schedule, diffuse
from .tsampler import TimestepPolicy, draw_t, init_policy, observe_d, update_t


@dataclass
class TraceRow:
    """One trace row; its fields are the trace's columns, each headed
    ``metadata["csv"]`` or its name.  A windowed field is the mean of its
    per-step values over the row's policy window."""

    step: int
    t_ceiling: int = field(metadata={"csv": "T"})
    r_d: float
    d_loss: float = field(metadata={"windowed": True})
    g_loss: float = field(metadata={"windowed": True})
    d_real_mean: float = field(metadata={"windowed": True})
    d_fake_mean: float = field(metadata={"windowed": True})


# the schema, built once: column name -> field name, and the windowed fields
_COLUMNS = {f.metadata.get("csv", f.name): f.name for f in fields(TraceRow)}
_WINDOWED = tuple(f.name for f in fields(TraceRow) if f.metadata.get("windowed"))


@dataclass
class TrainTrace:
    """One row per policy window, ready to dump as CSV, and the open
    window: per step since the last row, a tuple of the windowed fields'
    values in ``TraceRow`` order."""

    rows: list = field(default_factory=list)
    window: list = field(default_factory=list)

    HEADER = tuple(_COLUMNS)

    def append(self, row: TraceRow) -> None:
        self.rows.append(row)

    def close_window(self, step: int, t_ceiling: int, r_d: float) -> None:
        """Append the open window's row, if it has steps, and empty it."""
        if self.window:
            means = (float(np.mean(col)) for col in zip(*self.window))
            self.append(TraceRow(step, t_ceiling, float(r_d), **dict(zip(_WINDOWED, means))))
            self.window.clear()

    def write_csv(self, path) -> None:
        write_rows(path, ([getattr(r, a) for a in _COLUMNS.values()] for r in self.rows),
                   self.HEADER)

    def column(self, name: str) -> np.ndarray:
        if name not in _COLUMNS:
            raise ValueError(f"unknown trace column {name!r}; the columns are "
                             f"{', '.join(self.HEADER)}")
        return np.asarray([getattr(r, _COLUMNS[name]) for r in self.rows])


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
    schedule = build_schedule(config)
    gen = init_dense([config.latent_dim, config.hidden, config.hidden, dim], rng)
    disc = init_dense([dim + 1, config.hidden, config.hidden, 1], rng)
    opt_g = AdamState(config.lr, config.beta1)
    opt_d = AdamState(config.disc_lr, config.beta1)
    policy = None
    if config.diffusion_enabled:
        policy = init_policy(rng, config)
    return TrainState(config, data, rng, schedule, gen, disc, opt_g, opt_d,
                      policy, TrainTrace())


def _draw_noise(state: TrainState, shape: tuple):
    """A phase's levels, one per row, and standard-normal noise of
    ``shape`` (..., m, d); levels 0 and no noise on the vanilla arm."""
    if state.policy is None:
        return np.zeros(shape[-2], dtype=np.int64), None
    return draw_t(state.policy, state.rng, shape[-2]), state.rng.standard_normal(shape)


def _ceiling(state: TrainState) -> int:
    """The level ceiling: the policy's, or 0 on the vanilla arm."""
    return 0 if state.policy is None else state.policy.t_current


def _disc_input(x, t, eps, schedule, t_conditioned):
    """The discriminator's input: batch ``x`` (or a stack of them) noised at
    per-row levels ``t`` with ``eps`` (``None``: not noised), then the level
    feature (0 unless ``t_conditioned``)."""
    y = x if eps is None else diffuse(x, t, eps, schedule)
    feat = t if t_conditioned else np.zeros_like(t)
    return cond_input(y, feat, schedule.t_max_cap)


def generator_objective(disc: DenseNet, x: np.ndarray, t: np.ndarray, eps,
                        schedule: DiffusionSchedule, t_conditioned: bool):
    """Phase II's objective as a function of the generator's output:
    ``g_loss`` of the discriminator on ``x``, noised at per-sample levels
    ``t`` with noise ``eps``.  ``eps=None`` is the vanilla arm: ``x``
    reaches the discriminator as it is.  ``x`` is an (n, d) batch, which
    gives a float, or a stack (..., n, d) of them sharing ``t`` and
    ``eps``, which gives one loss per copy, each bit for bit that copy's
    float."""
    return g_loss(forward(disc, _disc_input(x, t, eps, schedule, t_conditioned),
                          cache=False)[0])


def generator_grads(gen: DenseNet, disc: DenseNet, z: np.ndarray, t: np.ndarray,
                    eps, schedule: DiffusionSchedule, t_conditioned: bool):
    """Phase II's objective, ``generator_objective`` on the generator's
    output for latents ``z``, and its gradient with respect to ``gen.flat``.

    The gradient crosses the noising map through its input Jacobian, the
    per-sample factor ``schedule.keep[t]``.  Returns ``(g_loss, grads,
    (gen_cache, disc_cache))``; the forward caches let a caller inspect
    the pre-activations of the pass it differentiated.
    """
    x, gcache = forward(gen, z)
    logits, dcache = forward(disc, _disc_input(x, t, eps, schedule, t_conditioned))
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

    # I. discriminator
    z = rng.standard_normal((m, cfg.latent_dim))
    real = state.data[rng.integers(0, state.data.shape[0], size=m)]
    fake, _ = forward(state.gen, z, cache=False)
    t, eps = _draw_noise(state, (2, m, dim))    # eps_real, then eps_fake
    eps = (None, None) if eps is None else eps
    d_in = np.concatenate([_disc_input(x, t, e, state.schedule, cfg.t_conditioned)
                           for x, e in zip((real, fake), eps)])
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
    t2, eps2 = _draw_noise(state, (m, dim))
    gl, ggrads, _ = generator_grads(state.gen, state.disc, z2, t2, eps2,
                                    state.schedule, cfg.t_conditioned)
    adam_step(state.gen, ggrads, state.opt_g)

    # III. trace and policy window; values are TraceRow's windowed fields in order
    state.step += 1
    policy, trace = state.policy, state.trace
    values = (dl, gl, float(d_real_probs.mean()), float(d_fake_probs.mean()))
    if not (np.isfinite(dl) and np.isfinite(gl)):
        # the diagnostic row: a window of this step alone, at the ceiling it ran at
        trace.window[:] = [values]
        trace.close_window(state.step, _ceiling(state), 0.0)
        raise NumericError(f"non-finite loss at step {state.step}: "
                           f"d_loss={dl} g_loss={gl}")
    trace.window.append(values)
    if state.step % cfg.update_interval == 0:
        r_d = update_t(policy, rng) if policy is not None else 0.0
        trace.close_window(state.step, _ceiling(state), r_d)


def train(dataset: np.ndarray, config: GanConfig):
    """Run the loop; returns ``(generator, discriminator, trace)``.

    A trailing window shorter than ``update_interval`` is closed with
    the last known r_d = 0 convention so short runs still leave a row.
    A ``NumericError`` carries the trace so far as its ``trace``; its
    last row is the failing step's diagnostic row.
    """
    state = init_train_state(dataset, config)
    try:
        for _ in range(config.total_steps):
            train_step(state)
    except NumericError as e:
        e.trace = state.trace
        raise
    state.trace.close_window(state.step, _ceiling(state), 0.0)
    return state.gen, state.disc, state.trace


def generate(gen: DenseNet, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` samples from the generator (latents are standard normal)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    latent = gen.weights[0].shape[1]
    return forward(gen, rng.standard_normal((n, latent)), cache=False)[0]
