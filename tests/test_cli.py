"""End-to-end CLI tests: every subcommand through ``main(argv)``.

Each run lands in its own tmp directory; reruns with identical
arguments must produce byte-identical CSVs (the determinism contract
the artifact metadata promises).
"""

import argparse
import inspect
import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest

from noisegan import cli
from noisegan.cli import _resolve_config, build_parser, main
from noisegan.data import load_csv
from noisegan.schedule import build_schedule
from noisegan.trainer import GanConfig

TRAIN_TINY = ["--steps", "12", "--batch", "8", "--hidden", "8",
              "--latent-dim", "2", "--data-n", "256", "--sample-n", "64"]


def run(argv):
    return main(argv)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestTrain:
    def test_artifacts_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["train", "--out", str(out1), "--seed", "3", *TRAIN_TINY]) == 0
        assert run(["train", "--out", str(out2), "--seed", "3", *TRAIN_TINY]) == 0
        for name in ("trace.csv", "samples.csv", "gen.json", "disc.json",
                     "coverage.json", "meta.json"):
            assert (out1 / name).exists(), name
            assert read_bytes(out1 / name) == read_bytes(out2 / name), name
        assert not (out1 / "scatter.svg").exists()   # opt-in
        assert "modes covered:" in capsys.readouterr().out

    def test_seed_changes_artifacts(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["train", "--out", str(out1), "--seed", "3", *TRAIN_TINY])
        run(["train", "--out", str(out2), "--seed", "4", *TRAIN_TINY])
        assert read_bytes(out1 / "samples.csv") != read_bytes(out2 / "samples.csv")

    def test_zero_steps_still_writes_artifacts(self, tmp_path):
        out = tmp_path / "o"
        assert run(["train", "--out", str(out), "--steps", "0", "--batch", "8",
                    "--hidden", "8", "--data-n", "128", "--sample-n", "32"]) == 0
        assert load_csv(out / "samples.csv").shape == (32, 2)
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace == ["step,T,r_d,d_loss,g_loss,d_real_mean,d_fake_mean"]
        assert json.loads((out / "coverage.json").read_text())["n_samples"] == 32

    @pytest.mark.filterwarnings("error")
    def test_numeric_failure_leaves_the_trace(self, tmp_path, capsys):
        # the step's finiteness check decides, with no NumPy warning first
        out = tmp_path / "o"
        code = run(["train", "--lr", "1e300", "--lr-d", "1e300", "--steps", "2",
                    "--batch", "8", "--hidden", "8", "--data-n", "64",
                    "--sample-n", "16", "--out", str(out)])
        assert code == 3
        assert "numeric error: non-finite loss at step 1" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["meta.json", "trace.csv"]
        header, *rows = (out / "trace.csv").read_text().splitlines()
        assert len(rows) == 1
        (row,) = rows
        assert not math.isfinite(float(dict(zip(header.split(","), row.split(",")))["g_loss"]))

    def test_sizes_beyond_memory_are_a_usage_error(self, tmp_path, capsys, monkeypatch):
        def no_room(gen, n, rng):
            raise MemoryError(f"Unable to allocate an array of {n} samples")

        monkeypatch.setattr(cli, "generate", no_room)
        assert run(["train", "--out", str(tmp_path / "o"), "--steps", "0", "--batch", "8",
                    "--hidden", "8", "--data-n", "64", "--sample-n", "2000000000"]) == 1
        err = capsys.readouterr().err
        assert err == "usage error: the requested sizes do not fit in memory\n"

    def test_custom_data_skips_coverage(self, tmp_path):
        data = tmp_path / "pts.csv"
        pts = np.random.default_rng(0).normal(size=(64, 2))
        data.write_text("\n".join(f"{float(x)!r},{float(y)!r}" for x, y in pts) + "\n")
        out = tmp_path / "o"
        assert run(["train", "--out", str(out), "--data", str(data),
                    *TRAIN_TINY]) == 0
        assert not (out / "coverage.json").exists()
        assert (out / "samples.csv").exists()

    def test_svg_flag(self, tmp_path):
        out = tmp_path / "o"
        assert run(["train", "--out", str(out), "--svg", *TRAIN_TINY]) == 0
        svg = (out / "scatter.svg").read_text()
        assert svg.startswith("<svg") and "generated" in svg

    def test_vanilla_flag_recorded(self, tmp_path):
        out = tmp_path / "o"
        assert run(["train", "--out", str(out), "--no-diffusion",
                    *TRAIN_TINY]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["params"]["config"]["diffusion_enabled"] is False
        trace = (out / "trace.csv").read_text().splitlines()
        assert all(line.split(",")[1] == "0" for line in trace[1:])

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"total_steps": 4, "batch_size": 8,
                                   "hidden": 8, "seed": 9}))
        out = tmp_path / "o"
        assert run(["train", "--out", str(out), "--config", str(cfg),
                    "--steps", "6", "--data-n", "128", "--sample-n", "16"]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["params"]["config"]["total_steps"] == 6   # flag wins
        assert meta["params"]["config"]["seed"] == 9          # config survives
        assert meta["seed"] == 9

    def test_lr_d_flag_reaches_config(self, tmp_path):
        out = tmp_path / "o"
        assert run(["train", "--out", str(out), "--lr", "2e-4",
                    "--lr-d", "8e-4", *TRAIN_TINY]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["params"]["config"]["lr"] == 2e-4
        assert meta["params"]["config"]["lr_d"] == 8e-4

    def test_meta_excludes_output_path(self, tmp_path):
        out = tmp_path / "weirdly-named-dir"
        run(["train", "--out", str(out), *TRAIN_TINY])
        assert "weirdly-named-dir" not in (out / "meta.json").read_text()

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 1e-3}))
        assert run(["train", "--out", str(tmp_path / "o"),
                    "--config", str(cfg)]) == 1

    def test_malformed_config_json_is_data_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["train", "--out", str(tmp_path / "o"),
                    "--config", str(cfg)]) == 2

    def test_missing_data_file_is_data_error(self, tmp_path):
        assert run(["train", "--out", str(tmp_path / "o"),
                    "--data", str(tmp_path / "absent.csv"), *TRAIN_TINY]) == 2

    def test_malformed_data_file_names_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\noops\n")
        assert run(["train", "--out", str(tmp_path / "o"),
                    "--data", str(bad), *TRAIN_TINY]) == 2
        assert "row 2" in capsys.readouterr().err


class TestToyJsd:
    ARGS = ["--theta-min", "-0.5", "--theta-max", "0.5", "--theta-steps", "5",
            "--t-list", "0,50", "--no-svg"]

    def test_rows_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["toy-jsd", "--out", str(out1), *self.ARGS]) == 0
        assert run(["toy-jsd", "--out", str(out2), *self.ARGS]) == 0
        body = read_bytes(out1 / "toy_jsd.csv")
        assert body == read_bytes(out2 / "toy_jsd.csv")
        lines = body.decode().splitlines()
        assert lines[0] == "theta,t,jsd,method,std_err"
        assert len(lines) == 1 + 2 * 5
        rows = [line.split(",") for line in lines[1:]]
        t0 = [r for r in rows if r[1] == "0"]
        assert all(r[3] == "closed_form" for r in t0)
        # theta grid contains 0: original JSD is 0 there, log 2 elsewhere
        assert [float(r[2]) for r in t0] == [math.log(2), math.log(2), 0.0,
                                             math.log(2), math.log(2)]
        t50 = [r for r in rows if r[1] == "50"]
        assert all(r[3] == "quadrature" and r[4] == "" for r in t50)
        mid = [float(r[2]) for r in t50 if float(r[0]) == 0.0]
        assert mid == [0.0]
        assert not (out1 / "toy_jsd.svg").exists()

    def test_svg_written_by_default(self, tmp_path):
        out = tmp_path / "o"
        assert run(["toy-jsd", "--out", str(out), "--theta-steps", "3",
                    "--t-list", "0,800"]) == 0
        svg = (out / "toy_jsd.svg").read_text()
        assert "no-noise ceiling" in svg and "transport |theta|" in svg

    def test_monte_carlo_rows_carry_std_err(self, tmp_path):
        out = tmp_path / "o"
        assert run(["toy-jsd", "--out", str(out), "--theta-steps", "3",
                    "--t-list", "800", "--method", "monte_carlo",
                    "--mc-n", "5000", "--no-svg"]) == 0
        rows = [line.split(",") for line in
                (out / "toy_jsd.csv").read_text().splitlines()[1:]]
        assert all(r[3] == "monte_carlo" and float(r[4]) >= 0.0 for r in rows)

    def test_bad_theta_steps(self, tmp_path):
        assert run(["toy-jsd", "--out", str(tmp_path / "o"),
                    "--theta-steps", "1"]) == 1

    def test_bad_t_list(self, tmp_path):
        assert run(["toy-jsd", "--out", str(tmp_path / "o"),
                    "--t-list", "1,zap"]) == 1

    def test_level_beyond_cap(self, tmp_path):
        assert run(["toy-jsd", "--out", str(tmp_path / "o"),
                    "--theta-steps", "3", "--t-list", "2000", "--no-svg"]) == 1


class TestToyDisc:
    def test_flat_curve_at_zero_offset(self, tmp_path):
        out = tmp_path / "o"
        assert run(["toy-disc", "--out", str(out), "--theta", "0",
                    "--t-list", "1,200", "--y-steps", "11", "--no-svg"]) == 0
        lines = (out / "toy_disc.csv").read_text().splitlines()
        assert lines[0] == "y,t,theta,d_star"
        assert len(lines) == 1 + 2 * 11
        assert all(float(line.split(",")[3]) == 0.5 for line in lines[1:])

    def test_svg_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["--theta", "0.4", "--t-list", "50", "--y-steps", "31"]
        assert run(["toy-disc", "--out", str(out1), *args]) == 0
        assert run(["toy-disc", "--out", str(out2), *args]) == 0
        assert read_bytes(out1 / "toy_disc.csv") == read_bytes(out2 / "toy_disc.csv")
        assert (out1 / "toy_disc.svg").exists()

    def test_rejects_level_zero(self, tmp_path):
        assert run(["toy-disc", "--out", str(tmp_path / "o"),
                    "--t-list", "0,50"]) == 1

    @pytest.mark.filterwarnings("error")
    def test_overflowing_log_ratio_warns_nothing(self, tmp_path):
        # mu * (y - mu / 2) overflows to -inf, 0 and +inf across the grid
        out = tmp_path / "o"
        assert run(["toy-disc", "--out", str(out), "--theta", "1e200", "--t-list", "1",
                    "--y-steps", "3", "--no-svg"]) == 0
        lines = (out / "toy_disc.csv").read_text().splitlines()[1:]
        assert [float(line.split(",")[3]) for line in lines] == [1.0, 0.5, 0.0]


class TestScheduleDump:
    def test_table(self, tmp_path):
        out = tmp_path / "o"
        assert run(["schedule-dump", "--out", str(out)]) == 0
        lines = (out / "schedule.csv").read_text().splitlines()
        assert lines[0] == "t,beta,alpha_bar"
        assert len(lines) == 1001
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == 1e-4
        assert float(first[2]) == 0.9999
        last = lines[-1].split(",")
        assert last[0] == "1000"
        assert float(last[1]) == 0.02

    def test_custom_cap(self, tmp_path):
        out = tmp_path / "o"
        assert run(["schedule-dump", "--out", str(out), "--t-max-cap", "10"]) == 0
        assert len((out / "schedule.csv").read_text().splitlines()) == 11


class TestGradcheckCommand:
    def test_passes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["gradcheck", "--out", str(out), "--seeds", "1",
                    "--t-list", "0,5"]) == 0
        printed = capsys.readouterr().out
        assert "isolated max rel err" in printed
        lines = (out / "gradcheck.csv").read_text().splitlines()
        assert lines[0] == "check,sizes,seed,t,max_rel_err"
        assert len(lines) > 1
        assert all(float(line.split(",")[4]) <= 1e-5 for line in lines[1:])

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # a degenerate step size drowns the finite differences in
        # cancellation noise, so the audit must fail with exit 3
        out = tmp_path / "o"
        assert run(["gradcheck", "--out", str(out), "--seeds", "1",
                    "--t-list", "0", "--h", "1e-13"]) == 3
        assert "FAILED" in capsys.readouterr().err
        assert (out / "gradcheck.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_step_fails_the_audit(self, tmp_path, capsys):
        # a huge step size overflows the finite differences to nan, and a
        # nan error must fail the audit like any other error over its bound
        out = tmp_path / "o"
        assert run(["gradcheck", "--out", str(out), "--seeds", "1",
                    "--t-list", "0", "--h", "1e308"]) == 3
        assert "FAILED" in capsys.readouterr().err
        assert (out / "gradcheck.csv").exists()


    @pytest.mark.parametrize("iso, path, failed", [
        (5e-6, 1e-7, "isolated max rel err 5.000e-06 > 1e-06"),
        (1e-7, 2e-5, "path max rel err 2.000e-05 > 1e-05"),
        (2e-6, float("nan"), "isolated max rel err 2.000e-06 > 1e-06; "
                             "path max rel err nan > 1e-05"),
        (1e-6, 1e-5, None),
    ])
    def test_each_kind_has_its_own_bound(self, tmp_path, capsys, monkeypatch,
                                         iso, path, failed):
        rows = [{"check": "isolated", "sizes": "2x8x8x1", "seed": 0, "t": "",
                 "max_rel_err": iso},
                {"check": "path", "sizes": "gen+disc", "seed": 1000, "t": 0,
                 "max_rel_err": path}]
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: (rows, iso, path))
        out = tmp_path / "o"
        rc = run(["gradcheck", "--out", str(out), "--seeds", "1", "--t-list", "0"])
        err = capsys.readouterr().err
        if failed is None:
            assert rc == 0 and err == ""
        else:
            assert rc == 3 and err == f"gradcheck FAILED: {failed}\n"
        assert (out / "gradcheck.csv").exists()


class TestDiffuseDemo:
    def test_level_zero_reproduces_input(self, tmp_path):
        out = tmp_path / "o"
        assert run(["diffuse-demo", "--out", str(out), "--data-n", "200",
                    "--t-list", "0,100"]) == 0
        assert read_bytes(out / "input.csv") == read_bytes(out / "diffused_t0.csv")
        assert read_bytes(out / "input.csv") != read_bytes(out / "diffused_t100.csv")

    def test_custom_data(self, tmp_path):
        data = tmp_path / "pts.csv"
        data.write_text("0.5,0.5\n-1.0,2.0\n")
        out = tmp_path / "o"
        assert run(["diffuse-demo", "--out", str(out), "--data", str(data),
                    "--t-list", "10"]) == 0
        assert not (out / "input.csv").exists()
        assert load_csv(out / "diffused_t10.csv").shape == (2, 2)

    def test_empty_data_is_data_error(self, tmp_path):
        data = tmp_path / "pts.csv"
        data.write_text("")
        assert run(["diffuse-demo", "--out", str(tmp_path / "o"),
                    "--data", str(data)]) == 2

    def test_level_beyond_cap(self, tmp_path):
        assert run(["diffuse-demo", "--out", str(tmp_path / "o"),
                    "--data-n", "10", "--t-list", "1001"]) == 1


# deleted config keys: each one's old flag (with a value) and a value for
# the config file
DELETED_KNOBS = {
    "lr_decay_to": (["--lr-decay-to", "0.5"], 0.5),
    "beta2": (["--beta2", "0.99"], 0.99),
    "adam_eps": (["--adam-eps", "1e-6"], 1e-6),
}


class TestBadInputsExitWithAMessage:
    @pytest.mark.parametrize("argv, message", [
        (["train", "--no-diffusion", "--update-interval", "0", *TRAIN_TINY],
         "update_interval"),
        (["train", "--no-diffusion", "--t-min", "0", *TRAIN_TINY], "t_min"),
        (["toy-disc", "--t-list", "5000", "--no-svg"], "t <= 1000"),
        (["toy-jsd", "--sigma", "1e300", "--t-list", "1", "--no-svg"],
         "t=1 with sigma=1e+300 gives a non-finite noise variance"),
        (["toy-disc", "--sigma", "1e300", "--no-svg"],
         "t=1 with sigma=1e+300 gives a non-finite noise variance"),
        # b_t is finite, but Monte Carlo's squared 8-std span is not
        (["toy-jsd", "--sigma", "1.3e154", "--t-list", "1,1000", "--theta-steps", "2",
          "--method", "monte_carlo", "--no-svg"],
         "t=1000 with sigma=1.3e+154 gives a noise variance whose squared 8-std span"),
        # sigma ** 2 just past the largest float
        (["toy-disc", "--sigma", "1.4e154", "--t-list", "1000", "--y-steps", "3",
          "--no-svg"], "t=1000 with sigma=1.4e+154 gives a non-finite"),
    ])
    def test_usage_error_not_traceback(self, tmp_path, capsys, argv, message):
        assert run([*argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc, message", [
        ({"lr": "fast"}, "lr must be a number"),
        ({"batch_size": 2.5}, "batch_size must be an int"),
        ({"diffusion_enabled": "no"}, "diffusion_enabled must be true or false"),
    ])
    def test_wrong_typed_config_value(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err
        assert not out.exists()     # rejected before anything ran


    @pytest.mark.parametrize("doc, message", [
        ({"beta1": 5.0}, "beta1 must be in [0, 1)"),
        ({"update_interval": 0, "lr": 0.01}, "update_interval must be >= 1, got 0"),
        ({"lr": float("nan")}, "lr must be finite and >= 0"),
        ({"sigma": -1.0}, "sigma must be finite and > 0"),
    ])
    def test_out_of_range_config_value(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run(["train", "--config", str(cfg), "--out", str(out), *TRAIN_TINY]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err
        assert not out.exists()     # rejected before anything ran

    @pytest.mark.parametrize("key", DELETED_KNOBS)
    def test_no_learning_rate_decay(self, tmp_path, capsys, key):
        # the learning rates are constant and Adam's beta2 and eps fixed:
        # no flag or config key sets them
        flag, value = DELETED_KNOBS[key]
        out = tmp_path / "o"
        assert run(["train", *flag, "--out", str(out), *TRAIN_TINY]) == 1
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        assert run(["train", "--config", str(cfg), "--out", str(out), *TRAIN_TINY]) == 1
        assert f"unknown config keys: {key}" in capsys.readouterr().err
        assert not out.exists()     # rejected before anything ran

    @pytest.mark.parametrize("argv, message", [
        (["gradcheck", "--seeds", "1", "--h", "0"], "--h must be finite and > 0"),
        (["diffuse-demo", "--data-n", "4", "--t-list", "9223372036854775808"],
         "0 <= t <= 1000"),
        (["gradcheck", "--seeds", "1", "--t-list", "-1"], "0 <= t <= 1000"),
        (["gradcheck", "--seeds", "0"], "--seeds must be >= 1"),
        (["gradcheck", "--seeds", "-3"], "--seeds must be >= 1"),
        (["gradcheck", "--seeds", "1", "--t-list", ","], "--t-list must name at least"),
        # the quadrature is one fixed rule, with no tolerance to set
        (["toy-jsd", "--tol", "1e-12"], "unrecognized arguments: --tol"),
        (["toy-jsd", "--theta-steps", "1"], "--theta-steps must be >= 2"),
        (["toy-jsd", "--method", "simpson"], "invalid choice: 'simpson'"),
        (["toy-jsd", "--t-list", "1,zap"], "--t-list must be a comma-separated integer"),
        (["toy-disc", "--t-list", ""], "--t-list must name at least"),
        (["toy-disc", "--t-list", ",", "--no-svg"], "--t-list must name at least"),
        (["toy-disc", "--y-steps", "-1"], "--y-steps must be >= 1"),
        (["toy-disc", "--y-steps", "0", "--no-svg"], "--y-steps must be >= 1"),
        (["toy-jsd", "--t-list", " , "], "--t-list must name at least"),
        (["diffuse-demo", "--data-n", "4", "--t-list", ""], "--t-list must name at least"),
        (["toy-disc", "--theta", "nan", "--no-svg"], "--theta must be finite"),
        (["toy-disc", "--theta=-inf"], "--theta must be finite"),
        (["toy-disc", "--y-min", "nan"], "--y-min must be finite"),
        (["toy-disc", "--y-max", "inf", "--no-svg"], "--y-max must be finite"),
        (["toy-jsd", "--theta-min", "nan", "--theta-steps", "2", "--t-list", "1"],
         "--theta-min must be finite"),
        (["toy-jsd", "--theta-max", "inf"], "--theta-max must be finite"),
        (["toy-jsd", "--method", "monte_carlo", "--mc-n", "1"], "--mc-n must be >= 2"),
        (["toy-jsd", "--method", "monte_carlo", "--mc-n", "-5"], "--mc-n must be >= 2"),
        (["toy-jsd", "--mc-n", "1"], "--mc-n must be >= 2"),
        (["train", "--min-count", "-5", *TRAIN_TINY], "--min-count must be finite and > 0"),
        (["train", "--min-count", "0", *TRAIN_TINY], "--min-count must be finite and > 0"),
        (["train", "--min-count", "nan", *TRAIN_TINY], "--min-count must be finite and > 0"),
        (["train", "--k-sigma", "-1", *TRAIN_TINY], "--k-sigma must be finite and > 0"),
        (["train", "--k-sigma", "nan", *TRAIN_TINY], "--k-sigma must be finite and > 0"),
        (["train", "--sample-n", "-1", "--steps", "4", "--batch", "8", "--hidden", "8"],
         "--sample-n must be >= 0"),
        (["train", "--data-n", "0", "--steps", "4"], "--data-n must be >= 1"),
        (["diffuse-demo", "--data-n", "0", "--svg"], "--data-n must be >= 1"),
        (["toy-jsd", "--seed", "-1"], "--seed must be >= 0"),
        # a span above the largest float would fill the grid with nan and inf
        (["toy-jsd", "--theta-min=-1e308", "--theta-max", "1e308", "--theta-steps", "3",
          "--t-list", "0", "--no-svg"], "--theta-min/--theta-max: the grid from -1e+308"),
        (["toy-jsd", "--theta-min=-1e308", "--theta-max", "1e308", "--theta-steps", "3",
          "--t-list", "1", "--no-svg"], "--theta-min/--theta-max: the grid from -1e+308"),
        (["toy-disc", "--y-min=-1e308", "--y-max", "1e308", "--y-steps", "3",
          "--t-list", "1", "--no-svg"], "--y-min/--y-max"),
        (["toy-disc", "--y-min=-1e308", "--theta", "1.7e308", "--y-steps", "3",
          "--t-list", "1", "--no-svg"], "--y-min/--y-max (an unset one follows --theta)"),
    ])
    def test_bad_command_values(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert run([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err
        assert not out.exists()     # rejected before anything ran

    @pytest.mark.parametrize("under", [False, True])
    @pytest.mark.parametrize("command", ["train", "toy-jsd", "toy-disc", "schedule-dump",
                                         "gradcheck", "diffuse-demo"])
    def test_out_that_cannot_be_created(self, tmp_path, capsys, command, under):
        # --out names an existing file, or a path under one
        blocker = tmp_path / "f"
        blocker.write_text("keep")
        out = blocker / "x" if under else blocker
        argv = {"train": TRAIN_TINY, "schedule-dump": []}.get(command, ["--t-list", "1"])
        assert run([command, *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: --out {str(out)!r}") and "Traceback" not in err
        assert blocker.read_text() == "keep"

    @pytest.mark.parametrize("command, flag", [
        ("train", "--data"), ("train", "--config"), ("diffuse-demo", "--data")])
    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_input_file_is_data_error(self, tmp_path, capsys, command, flag,
                                                 kind):
        path = tmp_path / "in"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe,1\n")
        argv = TRAIN_TINY if command == "train" else []
        assert run([command, flag, str(path), *argv, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    def test_train_reads_its_data_before_creating_out(self, tmp_path):
        out = tmp_path / "o"
        assert run(["train", "--data", str(tmp_path / "absent.csv"), *TRAIN_TINY,
                    "--out", str(out)]) == 2
        assert not out.exists()


# every GanConfig field, each at a valid value other than its default
NON_DEFAULT = dict(
    total_steps=7, batch_size=3, latent_dim=3, hidden=5, lr=0.5, lr_d=0.25,
    beta1=0.25, seed=9, diffusion_enabled=False,
    sigma=0.5, t_max_cap=2000, beta_start=1e-3, beta_end=0.01, t_min=7,
    t_max=900, d_target=0.5, c_step=3, mode="uniform", update_interval=5,
    t_conditioned=False)
# the flag of each field: the field name with dashes, except these
RENAMED = {"total_steps": "--steps", "batch_size": "--batch",
           "diffusion_enabled": "--no-diffusion", "t_conditioned": "--t-ignoring"}
SCHEDULE_COMMANDS = ("toy-jsd", "toy-disc", "schedule-dump", "gradcheck",
                     "diffuse-demo")


def train_flags():
    """{field name: (flag, takes a value)} of the ``train`` subcommand."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: (a.option_strings[0], a.nargs != 0)
            for a in sub.choices["train"]._actions if a.option_strings}


class TestFlagsComeFromTheConfig:
    def test_no_flags_give_the_default_config(self):
        args = build_parser().parse_args(["train"])
        assert _resolve_config(args) == GanConfig()

    @pytest.mark.parametrize("command", SCHEDULE_COMMANDS)
    def test_schedule_defaults_are_build_schedule_defaults(self, command):
        args = build_parser().parse_args([command])
        for name, param in inspect.signature(build_schedule).parameters.items():
            value = getattr(args, name)
            assert value == param.default and type(value) is type(param.default)

    def test_flag_names(self):
        flags = train_flags()
        for f in fields(GanConfig):
            assert flags[f.name][0] == RENAMED.get(f.name,
                                                   "--" + f.name.replace("_", "-"))

    def test_every_field_is_reachable_from_a_flag(self):
        assert set(NON_DEFAULT) == {f.name for f in fields(GanConfig)}
        assert all(getattr(GanConfig(), k) != v for k, v in NON_DEFAULT.items())
        argv = ["train"]
        for name, (flag, takes_value) in train_flags().items():
            if name in NON_DEFAULT:
                argv += [flag, str(NON_DEFAULT[name])] if takes_value else [flag]
        assert _resolve_config(build_parser().parse_args(argv)) == \
            GanConfig(**NON_DEFAULT)

    def test_every_field_is_reachable_from_the_config_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(NON_DEFAULT))
        args = build_parser().parse_args(["train", "--config", str(cfg)])
        assert _resolve_config(args) == GanConfig(**NON_DEFAULT)

    @pytest.mark.parametrize("command, argv", [
        ("toy-jsd", ["--theta-steps", "2", "--no-svg"]),
        ("toy-disc", ["--y-steps", "3", "--no-svg"]),
        ("schedule-dump", []),
        ("gradcheck", ["--seeds", "1"]),
        ("diffuse-demo", ["--data-n", "4"]),
    ])
    def test_meta_records_the_schedule_settings(self, tmp_path, command, argv):
        out = tmp_path / "o"
        if command != "schedule-dump":
            argv = [*argv, "--t-list", "1"]
        assert run([command, "--out", str(out), "--t-max-cap", "60", "--sigma", "0.25",
                    *argv]) == 0
        params = json.loads((out / "meta.json").read_text())["params"]
        assert {k: params[k] for k in ("t_max_cap", "beta_start", "beta_end", "sigma")} \
            == {"t_max_cap": 60, "beta_start": 1e-4, "beta_end": 0.02, "sigma": 0.25}

    @pytest.mark.parametrize("command", ["train", *SCHEDULE_COMMANDS])
    def test_flags_come_from_the_spec(self, command):
        spec = cli._COMMANDS[command][0]
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        actions = {a.dest: a for a in sub.choices[command]._actions
                   if a.option_strings and a.dest != "help"}
        rest = ({f.name for f in fields(GanConfig)} if command == "train"
                else set(inspect.signature(build_schedule).parameters))
        assert set(actions) == {f.name for f in fields(spec)} | {"out"} | rest
        for f in fields(spec):
            assert actions[f.name].default == f.default
            if "range" in f.metadata:
                assert "must be " + f.metadata["range"][0] in actions[f.name].help

    @pytest.mark.parametrize("command, argv", [
        ("train", TRAIN_TINY),
        ("toy-jsd", ["--theta-steps", "2", "--no-svg", "--t-list", "1"]),
        ("toy-disc", ["--y-steps", "3", "--no-svg", "--t-list", "1"]),
        ("schedule-dump", ["--t-max-cap", "3"]),
        ("gradcheck", ["--seeds", "1", "--t-list", "1"]),
        ("diffuse-demo", ["--data-n", "4", "--t-list", "1"]),
    ])
    def test_meta_records_every_flag_of_the_spec(self, tmp_path, command, argv):
        out = tmp_path / "o"
        assert run([command, "--out", str(out), *argv]) == 0
        params = json.loads((out / "meta.json").read_text())["params"]
        spec = cli._COMMANDS[command][0]
        rest = set() if command == "train" else set(
            inspect.signature(build_schedule).parameters)
        assert set(params) == {f.name for f in fields(spec)} | rest
        if command == "train":
            assert params["config"] == asdict(_resolve_config(
                build_parser().parse_args(["train", *argv])))
        elif command != "schedule-dump":
            assert params["t_list"] == [1]


class TestMetaAndParser:
    def test_meta_contents(self, tmp_path):
        out = tmp_path / "o"
        run(["schedule-dump", "--out", str(out), "--seed", "5"])
        meta = json.loads((out / "meta.json").read_text())
        assert meta["command"] == "schedule-dump"
        assert meta["seed"] == 5
        assert "version" in meta
        assert meta["params"]["t_max_cap"] == 1000

    def test_no_command_prints_usage(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert run(["schedule-dump", "--frob"]) == 1
