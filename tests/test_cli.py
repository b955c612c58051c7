import csv
import importlib
import importlib.metadata
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from rmtkit import cli, dynamics, fileio, portfolio
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

    def test_indefinite_matrix_is_input_error(self, tmp_path):
        # an indefinite "correlation" matrix passes parsing but fails
        # eigendecomposition validation downstream
        mat = tmp_path / "bad.csv"
        mat.write_text("X,Y\n1.0,2.0\n2.0,1.0\n")
        assert run(["spikes", "--matrix", str(mat), "--q", "0.5"]) == 1

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

    def test_metadata_recorded(self, tmp_path):
        out = tmp_path / "p.csv"
        run(["simulate", "--N", "10", "--T", "30", "--seed", "1",
             "--out", str(out)])
        head = out.read_text().splitlines()[:2]
        assert head[0].startswith("# command: simulate")
        assert "generator=numpy-pcg64" in head[1]
        assert "seed=1" in head[1]


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
        fileio.write_matrix_csv(path, pearson(standardize(panel)), TICKERS)
    out = tmp_path / "clean.csv"
    assert run(["clean", f"--{kind}", str(path), "--scheme", scheme,
                "--out", str(out)]) == 0
    assert fileio.read_matrix_csv(out).metadata["asset_ids"] == TICKERS


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
