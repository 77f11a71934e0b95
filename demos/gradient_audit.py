"""Finite-difference audit of the hand-written backward passes.

Every gradient in the package is coded by hand, so this demo replays
the audit the test suite relies on: central differences against the
analytic gradients, both for isolated networks and for the full
generator path where the gradient flows through the noising map's
sqrt(alpha_bar_t) Jacobian.
"""

import numpy as np

from noisegan import GanConfig, build_schedule
from noisegan.gradcheck import check_gen_path, check_isolated, run_suite


def main():
    schedule = build_schedule(GanConfig(t_max_cap=1000, beta_start=1e-4, beta_end=0.02,
                                        sigma=0.05))

    print("isolated nets, 3 seeds:")
    for sizes in ([2, 8, 8, 1], [2, 128, 128, 2]):
        worst = max(check_isolated(sizes, seed) for seed in range(3))
        print(f"  sizes {sizes}: max rel err {worst:.3e}")

    print("\ngenerator path (through the noising Jacobian):")
    for t in (0, 5, 100):
        worst = max(check_gen_path(schedule, t, seed) for seed in range(3))
        print(f"  t={t:>3}: max rel err {worst:.3e}")

    print("\nfull suite (as used by the acceptance gate), 5 seeds:")
    rows, max_iso, max_path = run_suite(schedule, n_seeds=5)
    print(f"  {len(rows)} checks, isolated max {max_iso:.3e}, "
          f"path max {max_path:.3e}")
    print("  thresholds: 1e-6 isolated, 1e-5 end-to-end")


if __name__ == "__main__":
    main()
