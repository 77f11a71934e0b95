"""The two-segments toy problem: why noising helps.

The pair of distributions differs by a horizontal offset theta.  With
no noise their supports are disjoint, so JSD sits at log 2 for every
theta != 0 and carries no gradient, while the transport distance
|theta| does.  After noising, JSD becomes a smooth function of theta
whose basin widens with t.  This script sweeps theta at several levels,
cross-checks quadrature against Monte Carlo, and draws the optimal
discriminator curves that produce those gradients.
"""

import math
import os

import numpy as np

from noisegan import (GanConfig, build_schedule, jsd_diffused, jsd_original,
                      optimal_discriminator)
from noisegan.svgplot import line_chart

OUT = os.path.join(os.path.dirname(__file__), "out", "toy_divergences")


def main():
    os.makedirs(OUT, exist_ok=True)
    schedule = build_schedule(GanConfig(t_max_cap=1000, beta_start=1e-4, beta_end=0.02,
                                        sigma=0.05))

    thetas = np.linspace(-1.0, 1.0, 161)
    series = [("no noise", list(thetas),
               [jsd_original(float(th)) for th in thetas])]
    for t in (50, 200, 800):
        vals = [jsd_diffused(float(th), t, schedule).value for th in thetas]
        series.append((f"t={t}", list(thetas), vals))
        width = thetas[np.asarray(vals) > 0.5 * math.log(2)]
        print(f"t={t:>3}: JSD exceeds half its ceiling for |theta| >= "
              f"{np.abs(width).min() if width.size else float('nan'):.3f}")
    path = os.path.join(OUT, "jsd_sweep.svg")
    line_chart(path, series, title="toy JSD vs offset",
               xlabel="theta", ylabel="nats")
    print(f"wrote {path}")

    print("\nquadrature vs Monte Carlo (theta = 0.1):")
    for t in (200, 800):
        quad = jsd_diffused(0.1, t, schedule)
        mc = jsd_diffused(0.1, t, schedule, method="monte_carlo",
                          rng=np.random.default_rng(5))
        gap = abs(quad.value - mc.value)
        print(f"  t={t:>3}: quadrature {quad.value:.6e} ({quad.n_evals} nodes),"
              f" MC {mc.value:.6e} +/- {mc.std_err:.1e}, gap {gap:.1e}")

    theta = 0.5
    ys = np.linspace(-0.2, 0.6, 241)
    curves = [(f"t={t}", list(ys),
               list(optimal_discriminator(ys, theta, t, schedule)))
              for t in (50, 200, 800)]
    path = os.path.join(OUT, "optimal_disc.svg")
    line_chart(path, curves, title=f"optimal discriminator, theta={theta}",
               xlabel="y", ylabel="D*(y)")
    print(f"\nwrote {path}")
    print("the larger t gets, the shallower the transition -- that slope is "
          "the gradient the generator feeds on")


if __name__ == "__main__":
    main()
