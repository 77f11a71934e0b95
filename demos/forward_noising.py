"""Forward noising in pictures and in moments.

Noising a point x0 for t steps has a closed form: the sample is
sqrt(alpha_bar_t) * x0 plus Gaussian noise with variance
(1 - alpha_bar_t) * sigma^2 per axis.  This script checks the closed
form against the literal step-by-step chain, then noises grid samples
at a few levels and writes a scatter.  Two things happen as t grows:
the sqrt(alpha_bar) factor contracts the whole cloud toward the
origin, and the per-axis noise floor approaches sigma.  Near the top
of the range the contracted grid spacing drops below the noise scale
and the 25 islands genuinely merge.
"""

import os

import numpy as np

from noisegan import (GanConfig, build_schedule, diffuse, diffuse_chain, grid_25,
                      sample_grid)
from noisegan.svgplot import scatter_chart

OUT = os.path.join(os.path.dirname(__file__), "out", "forward_noising")


def main():
    os.makedirs(OUT, exist_ok=True)
    schedule = build_schedule(GanConfig(t_max_cap=1000, beta_start=1e-4, beta_end=0.02,
                                        sigma=0.05))
    rng = np.random.default_rng(0)

    x0 = np.array([1.5, -0.5])
    n = 200_000
    print(f"chain vs closed form at x0 = {x0.tolist()}, {n} draws")
    print(f"{'t':>5} {'mean want':>12} {'mean got':>12} {'var want':>12} {'var got':>12}")
    for t in (1, 10, 100, 500):
        tiled = np.tile(x0, (n, 1))
        chained = diffuse_chain(tiled, t, rng, schedule)
        abar = float(schedule.alpha_bars[t])
        want_mean = np.sqrt(abar) * x0[0]
        want_var = (1.0 - abar) * schedule.sigma ** 2
        print(f"{t:>5} {want_mean:>12.6f} {chained[:, 0].mean():>12.6f} "
              f"{want_var:>12.3e} {chained[:, 0].var():>12.3e}")

    grid = grid_25()
    points = sample_grid(grid, 2000, rng)
    groups = []
    for t in (0, 200, 600, 1000):
        eps = rng.standard_normal(points.shape)
        noised = diffuse(points, np.int64(t), eps, schedule)
        groups.append((f"t={t}", noised))
        spread = np.sqrt(np.mean((noised - points) ** 2))
        print(f"t={t:>4}: rms displacement {spread:.4f}")
    path = os.path.join(OUT, "grid_noising.svg")
    scatter_chart(path, groups, title="grid samples under forward noising",
                  xlabel="x1", ylabel="x2")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
