import csv
import importlib
import importlib.metadata
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from rmtkit import cli, dynamics, fileio, portfolio, synth
from rmtkit.cleaning import CleaningScheme
from rmtkit.estimators import ReturnPanel, pearson, standardize


def run(args):
    return cli.run(args)


class TestSpectrumCommand:
    def test_mp_csv(self, tmp_path, capsys):
        out = tmp_path / "mp.csv"
        assert run(["spectrum", "--law", "mp", "--q", "0.25",
                    "--out", str(out)]) == 0
        d = fileio.read_density_csv(out)
        assert d.mean() == pytest.approx(1.0, abs=1e-3)
        assert "wrote" in capsys.readouterr().out

    def test_default_law_is_mp(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--out", str(out)]) == 0
        assert out.exists()

    def test_rsvd_law(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(["spectrum", "--law", "rsvd", "--n", "0.2", "--m", "0.1",
                    "--out", str(out)]) == 0
        d = fileio.read_density_csv(out)
        assert d.atom_mass() == pytest.approx(0.9, abs=1e-6)

    # mean and variance at the defaults q = 0.5, mu = 4, alpha = 0.35: exact
    # for mp (1, q), ewma (1, q/2) and wigner (0, 1); the elliptic mean is
    # mu/(mu - 2) (its variance is infinite at mu = 4); the dressed mean is
    # the prior's, 0.98713, within the benchmark's 5e-3 (it reads 0.98961)
    @pytest.mark.parametrize("law", [
        "mp", "ewma", "wigner", "elliptic", "powerlaw-dressed"])
    def test_every_law_at_its_defaults(self, tmp_path, law):
        mean, var, tol = {"mp": (1.0, 0.5, 1e-9),
                          "ewma": (1.0, 0.25, 1e-9),
                          "wigner": (0.0, 1.0, 1e-9),
                          "elliptic": (2.0, None, 1e-3),
                          "powerlaw-dressed": (0.98713, None, 5e-3)}[law]
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--law", law, "--out", str(out)]) == 0
        d = fileio.read_density_csv(out)
        assert d.mean() == pytest.approx(mean, abs=tol)
        if var is not None:
            assert d.variance() == pytest.approx(var, abs=tol)


class TestExitCodes:
    def test_unknown_command_is_input_error(self):
        assert run(["frobnicate"]) == 1

    def test_bad_value_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--law", "mp", "--q", "-1",
                    "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, capsys):
        assert run(["backtest", "--panel", "/nonexistent.csv"]) == 1

    # the scheme is checked before any file is read: the panel is missing
    @pytest.mark.parametrize("argv, name", [
        (["backtest", "--panel", "/nonexistent.csv", "--alpha", "0"],
         "alpha"),
        (["clean", "--panel", "/nonexistent.csv", "--alpha", "0"], "alpha"),
        (["clean", "--panel", "/nonexistent.csv", "--mu", "0.5"], "mu")],
        ids=["backtest-alpha", "clean-alpha", "clean-mu"])
    def test_powerlaw_parameters_checked_first(self, argv, name, capsys):
        assert run([*argv, "--scheme", "powerlaw"]) == 1
        err = capsys.readouterr().err
        assert f"{name} must" in err and "nonexistent" not in err

    def test_non_utf8_panel_names_its_line(self, tmp_path, capsys):
        panel = tmp_path / "p.csv"
        panel.write_bytes(b"date,A,B\nd1,1,2\nd2,3,4\xe9\n")
        assert run(["spikes", "--panel", str(panel)]) == 1
        assert "p.csv:3: not UTF-8 text" in capsys.readouterr().err

    def test_atom_with_far_bulk_is_numerical_failure(self, tmp_path,
                                                      capsys):
        # MP(1e13) is an atom at 0 with 1e-13 of its mass near 1e13
        out = tmp_path / "d.csv"
        assert run(["spectrum", "--law", "powerlaw-dressed", "--q", "1e13",
                    "--out", str(out)]) == 2
        assert "free_multiply's b is one atom" in capsys.readouterr().err
        assert not out.exists()

    def test_indefinite_matrix_is_input_error(self, tmp_path):
        # an indefinite "correlation" matrix passes parsing but fails
        # eigendecomposition validation downstream
        mat = tmp_path / "bad.csv"
        mat.write_text("X,Y\n1.0,2.0\n2.0,1.0\n")
        assert run(["spikes", "--matrix", str(mat), "--q", "0.5"]) == 1

    def test_non_finite_matrix_is_input_error(self, tmp_path, capsys):
        mat = tmp_path / "nan.csv"
        mat.write_text("X,Y\n1.0,nan\nnan,1.0\n")
        out = tmp_path / "clean.csv"
        assert run(["clean", "--matrix", str(mat), "--scheme", "clip",
                    "--alpha", "0.5", "--out", str(out)]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--horizon", "0"), ("--horizon", "-5"), ("--window", "0")])
    def test_unworkable_backtest_is_input_error(self, panel_path, tmp_path,
                                                capsys, flag, value):
        out = tmp_path / "bt.csv"
        assert run(["backtest", "--panel", str(panel_path), "--window",
                    "200", "--horizon", "50", flag, value,
                    "--out", str(out)]) == 1
        assert flag[2:] in capsys.readouterr().err
        assert not out.exists()

    # a day of zero returns has no momentum predictor: its g / |g| was
    # written as the row 0.5,raw,nan,nan
    def test_zero_predictor_day_is_input_error(self, tmp_path, capsys):
        values = np.random.default_rng(0).standard_normal((400, 5))
        values[300] = 0.0
        panel = tmp_path / "p.csv"
        fileio.write_panel_csv(panel, ReturnPanel(values))
        out = tmp_path / "bt.csv"
        assert run(["backtest", "--panel", str(panel), "--window", "300",
                    "--horizon", "50", "--out", str(out)]) == 1
        assert "date index 300" in capsys.readouterr().err
        assert not out.exists()

    def test_unbuildable_mp_grid_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--law", "mp", "--q", "1e22",
                    "--out", str(out)]) == 1
        assert "q = 1e+22" in capsys.readouterr().err
        assert not out.exists()

    def test_one_row_simulate_is_input_error(self, tmp_path, capsys):
        # every panel command needs two rows; a Gaussian panel of one row
        # is refused up front, as the Student one (--mu) is
        out = tmp_path / "p.csv"
        assert run(["simulate", "--N", "10", "--T", "1", "--seed", "1",
                    "--out", str(out)]) == 1
        assert "T must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    # NaN passes a range check written as x <= c, and infinity passes one
    # that has no upper end; either then failed as a numerical error or
    # with a misleading message
    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--law", "mp", "--q", "nan"], "q must be positive"),
        (["spectrum", "--law", "mp", "--q", "inf"], "q must be positive"),
        (["spectrum", "--law", "ewma", "--q", "nan"], "q must be positive"),
        (["spectrum", "--law", "elliptic", "--q", "nan"], "q must be positive"),
        (["spectrum", "--law", "elliptic", "--mu", "nan"], "mu must exceed 2"),
        (["spectrum", "--law", "powerlaw-dressed", "--q", "nan"],
         "q must be positive"),
        (["spikes", "--u", "nan"], "u_threshold must be finite"),
    ], ids=["mp-q-nan", "mp-q-inf", "ewma-q-nan", "elliptic-q-nan",
            "elliptic-mu-nan", "powerlaw-dressed-q-nan", "spikes-u-nan"])
    def test_non_finite_parameter_is_input_error(self, panel_path, tmp_path,
                                                 capsys, argv, message):
        out = tmp_path / "out.csv"
        if argv[0] == "spikes":
            argv = argv + ["--panel", str(panel_path)]
        assert run(argv + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    # a NaN tail exponent made every entry of the power-law ladder NaN
    @pytest.mark.parametrize("argv", [
        ["clean"], ["backtest", "--window", "200", "--horizon", "50"]],
        ids=["clean", "backtest"])
    def test_nan_power_law_exponent_is_input_error(self, panel_path,
                                                   tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert run(argv + ["--panel", str(panel_path), "--scheme",
                           "powerlaw", "--mu", "nan", "--out", str(out)]) == 1
        assert "mu must be finite and exceed 1" in capsys.readouterr().err
        assert not out.exists()

    # np.geomspace(1, tau_max) holds NaN below 1, which became lag -9.2e18
    @pytest.mark.parametrize("tau_max", ["0", "-3"])
    def test_tau_max_below_one_is_input_error(self, panel_path, tmp_path,
                                              capsys, tau_max):
        out = tmp_path / "v.csv"
        assert run(["dynamics", "--panel", str(panel_path), "--tau-max",
                    tau_max, "--out", str(out)]) == 1
        assert "--tau-max must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    # an option another one makes necessary: refused before any output
    @pytest.mark.parametrize("argv, message", [
        (["spikes", "--matrix", "{matrix}"], "field q: required with --matrix"),
        (["backtest", "--panel", "{panel}", "--predictor", "random",
          "--window", "200", "--horizon", "50"],
         "field seed: required for the random predictor"),
    ], ids=["spikes-matrix-q", "backtest-random-seed"])
    def test_missing_dependent_field_is_input_error(self, panel_path,
                                                    tmp_path, capsys, argv,
                                                    message):
        matrix = tmp_path / "m.csv"
        matrix.write_text("X,Y\n1.0,0.2\n0.2,1.0\n")
        out = tmp_path / "out.csv"
        argv = [a.format(matrix=matrix, panel=panel_path) for a in argv]
        assert run(argv + ["--out", str(out)]) == 1
        assert f"rmtkit: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_failure_is_exit_2(self, tmp_path, monkeypatch, capsys):
        from rmtkit.transforms import ConvergenceError

        def boom(*args, **kwargs):
            raise ConvergenceError("fixed point did not converge")

        monkeypatch.setattr(cli.spectra, "mp_density", boom)
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--law", "mp", "--out", str(out)]) == 2
        assert "did not converge" in capsys.readouterr().err


class TestSimulate:
    def test_seed_required(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert run(["simulate", "--out", str(out)]) == 1
        assert "seed" in capsys.readouterr().err

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--spec", "spike", "--rho", "0.3", "--N", "20",
                "--T", "50", "--seed", "7"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    # each --spec is one builder call, the identity constant_correlation at
    # rho = 0 whatever --rho says
    @pytest.mark.parametrize("spec, build", [
        ("identity", lambda: synth.constant_correlation(12, 0.0)),
        ("spike", lambda: synth.constant_correlation(12, 0.25)),
        ("powerlaw", lambda: synth.powerlaw_correlation(12, 0.5, 4))],
        ids=["identity", "spike", "powerlaw"])
    def test_panel_is_the_builders(self, spec, build, tmp_path, monkeypatch):
        panels = []
        monkeypatch.setattr(cli.fileio, "write_panel_csv",
                            lambda path, panel, header: panels.append(panel))
        assert run(["simulate", "--spec", spec, "--rho", "0.25", "--alpha",
                    "0.5", "--N", "12", "--T", "30", "--seed", "4",
                    "--out", str(tmp_path / "p.csv")]) == 0
        expected = synth.gaussian_panel(build(), 30, 5)
        assert panels[0].values.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--seed", "1", "--N", "0"], "N must be positive"),
        (["simulate", "--seed", "1", "--spec", "spike", "--rho", "1.0"],
         "rho must lie in [0, 1)"),
        (["simulate", "--seed", "1", "--spec", "powerlaw", "--alpha", "0"],
         "alpha must lie in (0, 1]"),
        (["spectrum", "--law", "elliptic", "--q", "1.5"], "q must be positive"),
        (["spectrum", "--law", "elliptic", "--mu", "2"], "mu must exceed 2"),
    ], ids=["simulate-N", "simulate-rho", "simulate-alpha", "elliptic-q",
            "elliptic-mu"])
    def test_builder_check_is_input_error(self, argv, message, tmp_path,
                                          capsys):
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 1
        assert f"rmtkit: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_metadata_recorded(self, tmp_path):
        out = tmp_path / "p.csv"
        run(["simulate", "--N", "10", "--T", "30", "--seed", "1",
             "--out", str(out)])
        head = out.read_text().splitlines()[:2]
        assert head[0].startswith("# command: simulate")
        # the id names the row-block rule the panel's bits depend on
        assert "generator=numpy-pcg64-rows256" in head[1].split()
        assert "seed=1" in head[1].split()


@pytest.fixture(scope="module")
def panel_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "panel.csv"
    assert run(["simulate", "--spec", "spike", "--rho", "0.3",
                "--N", "30", "--T", "400", "--seed", "3",
                "--out", str(path)]) == 0
    return path


class TestPipeline:
    def test_clean_from_panel(self, panel_path, tmp_path):
        out = tmp_path / "clean.csv"
        assert run(["clean", "--panel", str(panel_path), "--scheme", "clip",
                    "--alpha", "0.5", "--out", str(out)]) == 0
        M = fileio.read_matrix_csv(out)
        assert M.N == 30

    def test_clean_records_mu(self, panel_path, tmp_path):
        # mu sets the power-law scheme's ladder, so the header must say it
        heads = []
        for mu in ("2", "5"):
            out = tmp_path / f"clean-{mu}.csv"
            assert run(["clean", "--panel", str(panel_path), "--scheme",
                        "powerlaw", "--mu", mu, "--out", str(out)]) == 0
            heads.append(out.read_text().splitlines()[:2])
        assert heads[0] != heads[1]
        assert heads[0] == ["# command: clean",
                            "# params: alpha=0.5 mu=2.0 scheme=powerlaw"]

    def test_clean_needs_input(self, capsys):
        assert run(["clean"]) == 1
        assert "need --matrix or --panel" in capsys.readouterr().err

    def test_backtest(self, panel_path, tmp_path, capsys):
        out = tmp_path / "bt.csv"
        assert run(["backtest", "--panel", str(panel_path), "--scheme",
                    "clip", "--window", "200", "--horizon", "50",
                    "--step", "100", "--out", str(out)]) == 0
        _, mean_in, mean_out = portfolio.backtest(
            fileio.read_panel_csv(panel_path), CleaningScheme("clip", 0.5),
            window=200, horizon=50, step=100)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["# command: backtest"]
        # a text column between float columns
        assert rows[2:] == [["alpha", "scheme", "in_risk", "out_risk"],
                            ["0.5", "clip", f"{np.sqrt(mean_in):.12g}",
                             f"{np.sqrt(mean_out):.12g}"]]

    def test_backtest_records_seed(self, panel_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["backtest", "--panel", str(panel_path), "--predictor",
                "random", "--seed", "11", "--window", "200", "--horizon",
                "50", "--step", "100"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        head = a.read_text().splitlines()[:2]
        assert head[0] == "# command: backtest"
        assert "predictor=random" in head[1] and "seed=11" in head[1]

    def test_spikes_detects_market_mode(self, panel_path, capsys):
        assert run(["spikes", "--panel", str(panel_path)]) == 0
        assert "outlier rank=1" in capsys.readouterr().out

    def test_dynamics(self, panel_path, tmp_path):
        out = tmp_path / "v.csv"
        assert run(["dynamics", "--panel", str(panel_path),
                    "--epsilon", "0.05", "--tau-max", "50",
                    "--out", str(out)]) == 0
        track = dynamics.track_top(fileio.read_panel_csv(panel_path), 0.05)
        tau = np.unique(np.geomspace(1, 50, 40).astype(int))
        val, vec = dynamics.empirical_variogram(track, tau)
        assert out.read_bytes() == (
            "# epsilon=0.05\ntau,value,vector\r\n" + "".join(
                f"{t:.12g},{a:.12g},{b:.12g}\r\n"
                for t, a, b in zip(tau, val, vec))).encode()

    def test_svd(self, panel_path, tmp_path):
        other = tmp_path / "other.csv"
        assert run(["simulate", "--N", "20", "--T", "400", "--seed", "9",
                    "--out", str(other)]) == 0
        out = tmp_path / "svd.csv"
        assert run(["svd", "--x", str(panel_path), "--y", str(other),
                    "--out", str(out)]) == 0
        assert "singular_value" in out.read_text()


TICKERS = ("AAPL", "MSFT", "XOM", "JPM")


@pytest.mark.parametrize("scheme", ["clip", "ledoit", "powerlaw", "shrink"])
@pytest.mark.parametrize("kind", ["panel", "matrix"])
def test_clean_keeps_asset_ids(kind, scheme, tmp_path):
    rng = np.random.default_rng(4)
    panel = ReturnPanel(rng.standard_normal((60, 4)), TICKERS)
    path = tmp_path / "in.csv"
    if kind == "panel":
        fileio.write_panel_csv(path, panel)
    else:
        fileio.write_matrix_csv(path, pearson(standardize(panel)))
    out = tmp_path / "clean.csv"
    assert run(["clean", f"--{kind}", str(path), "--scheme", scheme,
                "--out", str(out)]) == 0
    assert fileio.read_matrix_csv(out).asset_ids == TICKERS


class TestConfigPrecedence:
    def test_config_overrides_default(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("q = 0.25\n")
        out = tmp_path / "s.csv"
        assert run(["--config", str(cfg), "spectrum", "--law", "mp",
                    "--out", str(out)]) == 0
        d = fileio.read_density_csv(out)
        lo, hi = d.support()
        assert hi < 2.3  # q=0.25 edge 2.25, not the default q=0.5 edge 2.91

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("# spectra at a quarter\n\nq = 0.25\n")
        out = tmp_path / "s.csv"
        assert run(["--config", str(cfg), "spectrum", "--law", "mp",
                    "--out", str(out)]) == 0
        assert fileio.read_density_csv(out).support()[1] < 2.3

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("q = 0.25\n")
        out = tmp_path / "s.csv"
        assert run(["--config", str(cfg), "spectrum", "--law", "mp",
                    "--q", "0.5", "--out", str(out)]) == 0
        d = fileio.read_density_csv(out)
        assert d.support()[1] > 2.8

    def test_config_value_takes_option_type(self, panel_path, tmp_path,
                                            capsys):
        # spikes' q has no default; its config value is cast to float as
        # --q would be, not left a string
        cfg = tmp_path / "cfg"
        cfg.write_text("q = 0.5\n")
        assert run(["--config", str(cfg), "spikes",
                    "--panel", str(panel_path)]) == 0
        assert "# spike report: q=0.5 " in capsys.readouterr().out

    def test_config_value_outside_choices(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("law = foo\n")
        assert run(["--config", str(cfg), "spectrum",
                    "--out", str(tmp_path / "s.csv")]) == 1
        assert "config field law: 'foo' is not one of mp, " in (
            capsys.readouterr().err)

    def test_config_value_failing_its_type(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("q = half\n")
        out = tmp_path / "s.csv"
        assert run(["--config", str(cfg), "spectrum",
                    "--out", str(out)]) == 1
        assert "config field q: could not convert string to float" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("q 0.25\n")
        assert run(["--config", str(cfg), "spectrum"]) == 1
        assert "expected 'key = value'" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert run(["--config", "/no/such/file", "spectrum"]) == 1

    def test_config_sets_options_without_defaults(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("mu = 5\nseed = 7\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--N", "20", "--T", "50"]
        assert run(args + ["--mu", "5", "--seed", "7", "--out", str(a)]) == 0
        assert run(["--config", str(cfg), *args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "mu=5.0" in b.read_text().splitlines()[1]

    def test_config_names_clean_matrix(self, panel_path, tmp_path):
        matrix = tmp_path / "m.csv"
        assert run(["clean", "--panel", str(panel_path),
                    "--out", str(matrix)]) == 0
        cfg = tmp_path / "cfg"
        cfg.write_text(f"matrix = {matrix}\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["clean", "--matrix", str(matrix), "--out", str(a)]) == 0
        assert run(["--config", str(cfg), "clean", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_names_spikes_panel(self, panel_path, tmp_path, capsys):
        assert run(["spikes", "--panel", str(panel_path)]) == 0
        by_flag = capsys.readouterr().out
        cfg = tmp_path / "cfg"
        cfg.write_text(f"panel = {panel_path}\n")
        assert run(["--config", str(cfg), "spikes"]) == 0
        assert capsys.readouterr().out == by_flag

    def test_unknown_key_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("seed = 7\nsede = 7\n")
        assert run(["--config", str(cfg), "simulate",
                    "--out", str(tmp_path / "p.csv")]) == 1
        assert "config field sede: no such option" in capsys.readouterr().err

    def test_other_subcommands_keys_ignored(self, tmp_path):
        # one file serves several subcommands
        cfg = tmp_path / "cfg"
        cfg.write_text("tau-max = 5\nscheme = ledoit\nseed = 7\n")
        assert run(["--config", str(cfg), "spectrum",
                    "--out", str(tmp_path / "s.csv")]) == 0

    def test_required_flag_not_taken_from_config(self, panel_path, tmp_path,
                                                 capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"panel = {panel_path}\n")
        assert run(["--config", str(cfg), "backtest",
                    "--out", str(tmp_path / "bt.csv")]) == 1
        assert "--panel" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["clean", "spikes"])
def test_panel_and_matrix_together_is_input_error(command, panel_path,
                                                  tmp_path, capsys):
    # refused before either file is read
    assert run([command, "--panel", str(panel_path),
                "--matrix", str(tmp_path / "m.csv"),
                "--out", str(tmp_path / "o.csv")]) == 1
    assert "not both" in capsys.readouterr().err


def test_header_only_panel_is_input_error(tmp_path, capsys):
    path = tmp_path / "p.csv"
    path.write_text("date,AAA\n")
    assert run(["spikes", "--panel", str(path)]) == 1
    assert f"{path}: no data rows" in capsys.readouterr().err


def test_readme_examples_run(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert lines and all(words[0] == "rmtkit" for words in lines)
    monkeypatch.chdir(tmp_path)
    for words in lines:
        assert run(words[1:]) == 0, " ".join(words)


def _rmtkit_installed() -> bool:
    try:
        importlib.metadata.distribution("rmtkit")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


class TestEntryPoint:
    def test_declared_entry_point_runs(self, tmp_path, monkeypatch):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["rmtkit"] == "rmtkit.cli:main"
        module, _, attr = scripts["rmtkit"].partition(":")
        main = getattr(importlib.import_module(module), attr)
        assert callable(main)
        out = tmp_path / "s.csv"
        monkeypatch.setattr(sys, "argv", ["rmtkit", "spectrum", "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        assert out.exists()

    @pytest.mark.skipif(not _rmtkit_installed(),
                        reason="no rmtkit distribution is installed")
    def test_console_script_installed(self):
        import shutil
        assert shutil.which("rmtkit") is not None
