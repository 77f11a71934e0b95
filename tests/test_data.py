import numpy as np
import pytest

from noisegan.data import (CoverageReport, GaussGrid, coverage, grid_25,
                           load_csv, sample_grid, save_csv)
from noisegan.errors import DataError


class TestGrid:
    def test_default_layout(self):
        grid = grid_25()
        c = grid.centers
        assert c.shape == (25, 2)
        assert grid.comp_std == 0.05
        # row-major over x then y, corners at +/-4
        assert np.array_equal(c[0], [-4.0, -4.0])
        assert np.array_equal(c[4], [-4.0, 4.0])
        assert np.array_equal(c[12], [0.0, 0.0])
        assert np.array_equal(c[24], [4.0, 4.0])
        assert len({(x, y) for x, y in c}) == 25

    def test_spacing_scales_centers(self):
        grid = grid_25(spacing=0.5)
        assert grid.centers.min() == -1.0 and grid.centers.max() == 1.0

    def test_centers_are_frozen(self):
        grid = grid_25()
        with pytest.raises(ValueError):
            grid.centers[0, 0] = 99.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussGrid(np.zeros((0, 2)), 0.05)
        with pytest.raises(ValueError):
            GaussGrid(np.zeros((3, 3)), 0.05)
        with pytest.raises(ValueError):
            GaussGrid(np.zeros((3, 2)), 0.0)


class TestSampleGrid:
    def test_component_frequencies(self):
        # multinomial: each of 25 modes should get n/25 +/- 3 sigma
        grid = grid_25()
        n = 50_000
        pts = sample_grid(grid, n, np.random.default_rng(11))
        rep = coverage(pts, grid, min_count=1)
        counts = rep.mode_counts
        p = 1.0 / 25.0
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3 * sigma + (n - rep.n_samples))

    def test_moments(self):
        grid = grid_25()
        n = 200_000
        pts = sample_grid(grid, n, np.random.default_rng(5))
        # overall mean ~ 0; per-axis variance = E[c^2] + comp_std^2
        centers_var = float((grid.centers[:, 0] ** 2).mean())
        want_var = centers_var + grid.comp_std ** 2
        se_mean = np.sqrt(want_var / n)
        assert np.abs(pts.mean(axis=0)) == pytest.approx(0.0, abs=4 * se_mean)
        got_var = pts.var(axis=0)
        se_var = want_var * np.sqrt(2.0 / (n - 1)) * 2  # conservative
        assert got_var == pytest.approx(want_var, abs=4 * se_var)

    def test_jitter_scale(self):
        grid = grid_25()
        pts = sample_grid(grid, 100_000, np.random.default_rng(3))
        d = pts - grid.centers[np.argmin(
            ((pts[:, None, :] - grid.centers[None, :, :]) ** 2).sum(axis=2), axis=1)]
        # residual std around the nearest center estimates comp_std
        assert d.std() == pytest.approx(0.05, rel=0.02)

    def test_empty_and_negative(self):
        grid = grid_25()
        assert sample_grid(grid, 0, np.random.default_rng(0)).shape == (0, 2)
        with pytest.raises(ValueError):
            sample_grid(grid, -1, np.random.default_rng(0))

    def test_deterministic(self):
        grid = grid_25()
        a = sample_grid(grid, 64, np.random.default_rng(9))
        b = sample_grid(grid, 64, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestCoverage:
    def test_centers_only(self):
        grid = grid_25()
        rep = coverage(grid.centers, grid)
        assert rep.modes_covered == 25
        assert rep.high_quality_fraction == 1.0
        assert np.array_equal(rep.mode_counts, np.ones(25, dtype=np.int64))
        assert rep.threshold == 1.0
        assert rep.n_samples == 25

    def test_hand_built_counts(self):
        grid = grid_25()
        # 5 samples on mode 0, 3 on mode 12, one far off every center
        samples = np.concatenate([
            np.repeat(grid.centers[:1], 5, axis=0),
            np.repeat(grid.centers[12:13], 3, axis=0) + 0.01,
            [[1.0, 1.0]],
        ])
        rep = coverage(samples, grid, min_count=4)
        assert rep.modes_covered == 1          # only mode 0 reaches 4 hits
        assert rep.mode_counts[0] == 5
        assert rep.mode_counts[12] == 3
        assert rep.mode_counts.sum() == 8      # the stray point is not high-quality
        assert rep.high_quality_fraction == pytest.approx(8 / 9)

    def test_threshold_scales_with_n(self):
        grid = grid_25()
        rep = coverage(np.zeros((10_000, 2)), grid)
        assert rep.threshold == 4.0
        rep_small = coverage(np.zeros((100, 2)), grid)
        assert rep_small.threshold == 1.0

    def test_quality_radius_boundary(self):
        grid = grid_25()
        inside = grid.centers[0] + [3 * 0.05 - 1e-9, 0.0]
        outside = grid.centers[0] + [3 * 0.05 + 1e-6, 0.0]
        rep = coverage(np.array([inside, outside]), grid, min_count=1)
        assert rep.mode_counts[0] == 1
        assert rep.high_quality_fraction == 0.5

    def test_permutation_invariant(self):
        grid = grid_25()
        pts = sample_grid(grid, 4096, np.random.default_rng(2))
        rep1 = coverage(pts, grid)
        rep2 = coverage(pts[::-1], grid)
        assert rep1.modes_covered == rep2.modes_covered
        assert np.array_equal(rep1.mode_counts, rep2.mode_counts)
        assert rep1.high_quality_fraction == rep2.high_quality_fraction

    def test_chunking_matches_single_pass(self):
        # more samples than the internal chunk so both paths execute
        grid = grid_25()
        pts = sample_grid(grid, 70_000, np.random.default_rng(8))
        whole = coverage(pts, grid)
        parts = coverage(pts[:65536], grid, min_count=1).mode_counts + \
            coverage(pts[65536:], grid, min_count=1).mode_counts
        assert np.array_equal(whole.mode_counts, parts)

    def test_true_samples_cover_everything(self):
        grid = grid_25()
        pts = sample_grid(grid, 100_000, np.random.default_rng(123))
        rep = coverage(pts, grid)
        assert rep.modes_covered == 25
        # 2-d Gaussian mass within 3 sigma is ~0.9889
        assert rep.high_quality_fraction == pytest.approx(0.9889, abs=0.005)

    def test_empty_samples(self):
        rep = coverage(np.zeros((0, 2)), grid_25())
        assert rep.modes_covered == 0
        assert rep.high_quality_fraction == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            coverage(np.zeros((4, 3)), grid_25())
        with pytest.raises(ValueError):
            coverage(np.zeros(4), grid_25())

    @pytest.mark.parametrize("kw", [
        dict(k_sigma=0.0), dict(k_sigma=-1.0), dict(k_sigma=float("nan")),
        dict(k_sigma=float("inf")), dict(min_count=0), dict(min_count=-5),
        dict(min_count=float("nan")), dict(min_count=float("inf")),
    ])
    def test_rejects_a_radius_or_count_out_of_range(self, kw):
        name = next(iter(kw))
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            coverage(grid_25().centers, grid_25(), **kw)

    def test_as_dict_is_json_ready(self):
        rep = coverage(grid_25().centers, grid_25())
        doc = rep.as_dict()
        assert doc["modes_covered"] == 25
        assert isinstance(doc["mode_counts"], list)
        assert all(isinstance(c, int) for c in doc["mode_counts"])
        assert doc["k_sigma"] == 3.0


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        pts = np.random.default_rng(0).normal(size=(50, 2)) * 1e-3
        pts[0] = [0.1 + 0.2, -1e-300]
        path = tmp_path / "pts.csv"
        save_csv(pts, path)
        back = load_csv(path)
        assert np.array_equal(back, pts)

    def test_headerless_two_columns(self, tmp_path):
        # each cell is the float's repr: the sign of zero, subnormals and
        # the largest float survive as text
        path = tmp_path / "pts.csv"
        save_csv(np.array([[1.5, -2.0], [-0.0, 5e-324], [1.7976931348623157e308, 0.1 + 0.2]]),
                 path)
        assert path.read_text() == ("1.5,-2.0\n-0.0,5e-324\n"
                                    "1.7976931348623157e+308,0.30000000000000004\n")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert load_csv(path).shape == (0, 2)

    def test_wrong_field_count_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_non_numeric_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n2.0,zap\n")
        with pytest.raises(DataError, match="row 2: not a number"):
            load_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nnan,0.0\n")
        with pytest.raises(DataError, match="row 2: non-finite"):
            load_csv(path)
        path.write_text("inf,0.0\n")
        with pytest.raises(DataError, match="row 1"):
            load_csv(path)

    def test_save_validates_shape(self, tmp_path):
        with pytest.raises(ValueError):
            save_csv(np.zeros((2, 3)), tmp_path / "x.csv")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")
