"""noisegan: GANs trained against forward-noised data on toy 2-D problems.

The pieces: the run configuration (``config``), a linear-ramp noising
schedule with a closed-form marginal (``schedule``), an adaptive
per-sample noise-level policy (``tsampler``), dense nets with
hand-written backprop and Adam (``net``), the training loop
(``trainer``), a fully analytic two-segments toy problem for divergence
studies (``analytic``), the 25-Gaussians benchmark with a mode-coverage
metric (``data``), and finite-difference gradient audits
(``gradcheck``).  ``python -m noisegan.cli`` or the ``noisegan`` script
exposes all of it.
"""

__version__ = "0.1.0"

from .analytic import (DiscreteJointSpec, JsdEstimate, ToyParams, jsd_diffused,
                       jsd_joint_equality, jsd_original, optimal_discriminator,
                       wasserstein_reference)
from .data import (CoverageReport, GaussGrid, coverage, grid_25, load_csv,
                   sample_grid, save_csv)
from .errors import DataError, NumericError
from .net import (AdamState, DenseNet, ForwardCache, adam_step, backward,
                  cond_input, forward, init_dense, load_net, param_views,
                  parameters, save_net)
from .schedule import DiffusionSchedule, build_schedule, diffuse, diffuse_chain
from .trainer import (GanConfig, TrainTrace, d_loss, g_loss, generate,
                      init_train_state, train, train_step)
from .tsampler import (TimestepPolicy, draw_t, init_policy, level_weights,
                       observe_d, resample_levels, update_t)

__all__ = [
    "__version__",
    "DiffusionSchedule", "build_schedule", "diffuse", "diffuse_chain",
    "TimestepPolicy", "init_policy", "level_weights", "resample_levels",
    "draw_t", "observe_d", "update_t",
    "DenseNet", "ForwardCache", "AdamState", "init_dense", "parameters",
    "param_views",
    "forward", "backward", "adam_step", "cond_input", "save_net", "load_net",
    "GanConfig", "TrainTrace", "d_loss", "g_loss", "train", "train_step",
    "init_train_state", "generate",
    "ToyParams", "JsdEstimate", "DiscreteJointSpec", "jsd_original",
    "jsd_diffused", "optimal_discriminator", "jsd_joint_equality",
    "wasserstein_reference",
    "GaussGrid", "CoverageReport", "grid_25", "sample_grid", "coverage",
    "save_csv", "load_csv",
    "DataError", "NumericError",
]
