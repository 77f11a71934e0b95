"""Grid-of-Gaussians data, the mode-coverage metric, and CSV I/O.

The benchmark dataset is an equal-weight mixture of 25 isotropic
Gaussians on a 5x5 grid.  Coverage counts a mode as hit when enough
*high-quality* samples (within k_sigma component stds of the center)
land nearest to it; the default threshold scales with sample count so
10k samples need 4 hits per mode.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError

_CHUNK = 65536


@dataclass(frozen=True)
class GaussGrid:
    centers: np.ndarray   # (k, 2)
    comp_std: float

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=np.float64)
        if c.ndim != 2 or c.shape[1] != 2 or c.shape[0] < 1:
            raise ValueError(f"centers must be (k, 2) with k >= 1, got {c.shape}")
        if not self.comp_std > 0.0:
            raise ValueError(f"comp_std must be > 0, got {self.comp_std}")
        object.__setattr__(self, "centers", c)
        self.centers.setflags(write=False)


def grid_25(spacing: float = 2.0, comp_std: float = 0.05) -> GaussGrid:
    """The 5x5 grid with centers {-2s..2s}^2, row-major order."""
    axis = spacing * np.arange(-2, 3, dtype=np.float64)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    return GaussGrid(np.column_stack([xs.ravel(), ys.ravel()]), comp_std)


def sample_grid(grid: GaussGrid, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points: uniform component choice, isotropic Gaussian jitter."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    which = rng.integers(0, grid.centers.shape[0], size=n)
    return grid.centers[which] + grid.comp_std * rng.standard_normal((n, 2))


@dataclass(frozen=True)
class CoverageReport:
    modes_covered: int
    mode_counts: np.ndarray        # high-quality samples nearest to each center
    high_quality_fraction: float
    n_samples: int
    threshold: float
    k_sigma: float

    def as_dict(self) -> dict:
        return {
            "modes_covered": int(self.modes_covered),
            "mode_counts": [int(c) for c in self.mode_counts],
            "high_quality_fraction": float(self.high_quality_fraction),
            "n_samples": int(self.n_samples),
            "threshold": float(self.threshold),
            "k_sigma": float(self.k_sigma),
        }


def coverage(samples: np.ndarray, grid: GaussGrid, k_sigma: float = 3.0,
             min_count: float = None) -> CoverageReport:
    """Score samples against the grid.

    A sample is high-quality when its nearest center is within
    ``k_sigma * comp_std``; a mode counts as covered when at least
    ``min_count`` high-quality samples land on it (default
    ``max(1, n / 2500)``).  Mode counts sum to the number of
    high-quality samples; permutation-invariant in the sample order.
    ``k_sigma`` and a given ``min_count`` must be finite and > 0.
    """
    for name, value in (("k_sigma", k_sigma), ("min_count", min_count)):
        if value is not None and not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    pts = np.asarray(samples, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != grid.centers.shape[1]:
        raise ValueError(f"samples must be (n, {grid.centers.shape[1]}), got {pts.shape}")
    n = pts.shape[0]
    k = grid.centers.shape[0]
    threshold = float(min_count) if min_count is not None else max(1.0, n / 2500.0)

    counts = np.zeros(k, dtype=np.int64)
    n_hq = 0
    radius = k_sigma * grid.comp_std
    for lo in range(0, n, _CHUNK):
        chunk = pts[lo:lo + _CHUNK]
        d2 = ((chunk[:, None, :] - grid.centers[None, :, :]) ** 2).sum(axis=2)
        nearest = d2.argmin(axis=1)
        hq = d2[np.arange(chunk.shape[0]), nearest] <= radius * radius
        counts += np.bincount(nearest[hq], minlength=k)
        n_hq += int(hq.sum())

    return CoverageReport(
        modes_covered=int((counts >= threshold).sum()),
        mode_counts=counts,
        high_quality_fraction=(n_hq / n) if n else 0.0,
        n_samples=n,
        threshold=threshold,
        k_sigma=float(k_sigma),
    )


def write_rows(path, rows, header=None) -> None:
    """Write ``rows`` as CSV lines, after ``header`` if one is given; a
    Python float cell is written as its repr, so it round-trips exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def save_csv(points: np.ndarray, path) -> None:
    """Write a headerless two-column CSV; floats use repr for exact round-trip."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must be (n, 2), got {pts.shape}")
    write_rows(path, pts.tolist())


def load_csv(path) -> np.ndarray:
    """Read a headerless two-column CSV into an (n, 2) array.

    Raises ``DataError`` naming the offending 1-based row on the first
    malformed or non-finite entry; an empty file gives an empty array.
    """
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for i, row in enumerate(csv.reader(fh), start=1):
            if len(row) != 2:
                raise DataError(f"row {i}: expected 2 fields, got {len(row)}")
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                raise DataError(f"row {i}: not a number: {row!r}") from None
            if not (np.isfinite(x) and np.isfinite(y)):
                raise DataError(f"row {i}: non-finite value: {row!r}")
            rows.append((x, y))
    if not rows:
        return np.zeros((0, 2))
    return np.asarray(rows, dtype=np.float64)
