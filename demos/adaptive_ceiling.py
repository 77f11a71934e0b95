"""How the noise-level ceiling reacts to discriminator confidence.

The policy watches sign(D(real) - 0.5) over a short window.  When the
average (r_d) exceeds the target the ceiling T rises by C, when it
falls below the target T drops by C, always clamped to [t_min, t_max].
First we feed the policy scripted confidence sequences to show the
bare mechanics, then we train briefly on the grid and plot the ceiling
the real loop produces.
"""

import os

import numpy as np

from noisegan import GanConfig, grid_25, init_policy, observe_d, sample_grid, train, update_t
from noisegan.svgplot import line_chart

OUT = os.path.join(os.path.dirname(__file__), "out", "adaptive_ceiling")


def scripted(name, window_probs, **policy_kw):
    rng = np.random.default_rng(0)
    policy = init_policy(rng, GanConfig(**policy_kw))
    ceilings = [policy.t_current]
    for probs in window_probs:
        observe_d(policy, np.asarray(probs, dtype=float))
        r_d = update_t(policy, rng)
        ceilings.append(policy.t_current)
        print(f"  window r_d = {r_d:+.2f} -> T = {policy.t_current}")
    print(f"{name}: ceiling path {ceilings}")
    return ceilings


def main():
    os.makedirs(OUT, exist_ok=True)

    print("confident discriminator (all probabilities above 0.5):")
    scripted("ramp-up", [[0.9] * 8] * 4, t_min=5, t_max=40, d_target=0.6, c_step=2)

    print("\nstruggling discriminator (all probabilities below 0.5):")
    scripted("pinned at floor", [[0.2] * 8] * 3,
             t_min=5, t_max=40, d_target=0.6, c_step=2)

    print("\nmixed window that lands exactly on the target freezes T:")
    scripted("frozen", [[1.0, 0.0, 1.0, 1.0]], t_min=5, t_max=40,
             d_target=0.5, c_step=2)

    print("\nnow a real run (grid data, 4000 steps):")
    grid = grid_25()
    data = sample_grid(grid, 20_000, np.random.default_rng([1, 0]))
    cfg = GanConfig(total_steps=4000, seed=1)
    _, _, trace = train(data, cfg)
    steps = trace.column("step")
    ceil = trace.column("T")
    r_d = trace.column("r_d")
    print(f"  ceiling: start {int(ceil[0])}, end {int(ceil[-1])}, "
          f"max {int(ceil.max())}")
    print(f"  mean r_d over the run: {r_d.mean():+.3f}")
    path = os.path.join(OUT, "ceiling_trace.svg")
    line_chart(path, [("T", list(steps), list(ceil.astype(float)))],
               title="noise ceiling during training", xlabel="step", ylabel="T")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
