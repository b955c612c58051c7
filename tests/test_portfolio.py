import csv
import logging

import numpy as np
import pytest

from rmtkit import fileio, portfolio, synth
from rmtkit.cleaning import CleaningScheme, apply_scheme
from rmtkit.estimators import (CorrelationMatrix, EstimatorError, ReturnPanel,
                               _corr, pearson, standardize)


@pytest.fixture(scope="module")
def true_corr():
    return synth.constant_correlation(60, 0.2)


class TestWeights:
    def test_closed_form(self):
        C = CorrelationMatrix(np.eye(3))
        g = np.array([1.0, 2.0, 2.0])
        w = portfolio.markowitz_weights(C, g)
        # identity C: w = g / |g|^2
        assert np.allclose(w, g / 9.0)

    def test_gain_constraint_satisfied(self, true_corr):
        g = np.linspace(1, 2, 60)
        w = portfolio.markowitz_weights(true_corr, g)
        assert w @ g == pytest.approx(1.0)

    def test_zero_predictor_rejected(self, true_corr):
        with pytest.raises(ValueError):
            portfolio.markowitz_weights(true_corr, np.zeros(60))

    def test_clipped_weights_form_no_eigenvectors(self, true_corr):
        panel = standardize(synth.gaussian_panel(true_corr, 120, seed=2))
        E = pearson(panel)
        C = apply_scheme(E, CleaningScheme("clip", 0.5))
        g = np.linspace(1, 2, 60)
        w = portfolio.markowitz_weights(C, g)
        assert "_eig" not in vars(E) and "_eig" not in vars(C)
        Cg = C.inverse() @ g
        assert np.allclose(w, Cg / (g @ Cg), rtol=1e-12, atol=0)


class TestRiskTriple:
    def test_perfect_estimate_all_equal(self, true_corr):
        g = np.ones(60)
        r = portfolio.risk_triple(true_corr, true_corr, g)
        assert r.in_sample == pytest.approx(r.true_risk)
        assert r.out_of_sample == pytest.approx(r.true_risk)

    def test_unknown_population_gives_in_sample_risk_only(self, true_corr):
        panel = standardize(synth.gaussian_panel(true_corr, 120, seed=4))
        E = pearson(panel)
        g = np.random.default_rng(4).standard_normal(60)
        r = portfolio.risk_triple(E, None, g)
        ref = 1.0 / np.sqrt(g @ np.linalg.solve(E.values, g))
        assert r.in_sample == pytest.approx(ref, rel=1e-12)
        assert np.isnan(r.out_of_sample)
        assert r.true_risk is None

    def test_zero_predictor_rejected(self, true_corr):
        with pytest.raises(ValueError, match="g must be non-zero"):
            portfolio.risk_triple(true_corr, None, np.zeros(60))

    def test_ordering_in_lt_true_lt_out(self, true_corr):
        rng = np.random.default_rng(1)
        panel = standardize(synth.gaussian_panel(true_corr, 120, seed=1))
        E = pearson(panel)
        g = rng.standard_normal(60)
        r = portfolio.risk_triple(E, true_corr, g)
        assert r.in_sample < r.true_risk < r.out_of_sample

    def test_theoretical_ratios(self):
        r_in, r_out = portfolio.theoretical_risk_ratios(0.5)
        assert r_in == pytest.approx(np.sqrt(0.5))
        assert r_out == pytest.approx(1.0 / np.sqrt(0.5))
        assert r_in * r_out == pytest.approx(1.0)

    def test_ratio_validation(self):
        with pytest.raises(ValueError, match="singular"):
            portfolio.theoretical_risk_ratios(1.0)

    def test_sample_ratios_match_theory(self):
        # averaged over predictors/panels the risk ratios follow
        # sqrt(1-q) and 1/sqrt(1-q)
        N, T = 100, 200
        q = N / T
        C = synth.constant_correlation(N, 0.0)
        rng = np.random.default_rng(2)
        rin2, rout2 = [], []
        for seed in range(20):
            panel = standardize(synth.gaussian_panel(C, T, seed))
            E = pearson(panel)
            g = rng.standard_normal(N)
            r = portfolio.risk_triple(E, C, g)
            # (true/in)^2 is linear in E^{-1}, so its average is the stable
            # statistic; single draws of g fluctuate at the 20% level
            rin2.append((r.true_risk / r.in_sample) ** 2)
            rout2.append((r.out_of_sample / r.true_risk) ** 2)
        assert 1.0 / np.mean(rin2) == pytest.approx(1 - q, rel=0.1)
        assert np.mean(rout2) == pytest.approx(1 / (1 - q), rel=0.1)


@pytest.fixture(scope="module")
def panel():
    C = synth.constant_correlation(40, 0.2)
    return synth.gaussian_panel(C, 700, seed=3)


class TestBacktest:
    def test_raw_underestimates_risk(self, panel):
        rows, mean_in, mean_out = portfolio.backtest(
            panel, None, window=300, horizon=50, step=100)
        assert len(rows) > 2
        assert mean_out > mean_in

    def test_insufficient_history(self):
        p = ReturnPanel(np.random.default_rng(0).standard_normal((100, 10)))
        with pytest.raises(EstimatorError, match="insufficient history"):
            portfolio.backtest(p, None, window=300, horizon=50)

    def test_step_must_be_positive(self, panel):
        for step in (0, -100):
            with pytest.raises(ValueError, match="step"):
                portfolio.backtest(panel, None, window=300, horizon=50,
                                   step=step)

    # a zero horizon averaged an empty slice into a NaN risk, a negative one
    # indexed past the panel, a zero window standardized empty windows and a
    # one-day window read as a constant column
    @pytest.mark.parametrize("run", [portfolio.backtest])
    @pytest.mark.parametrize("window, horizon, match", [
        (300, 0, "horizon must"), (300, -5, "horizon must"),
        (0, 50, "window must"), (1, 50, "window must")])
    def test_unworkable_window_or_horizon(self, panel, run, window, horizon,
                                          match):
        with pytest.raises(ValueError, match=match):
            run(panel, None, window=window, horizon=horizon, step=100)

    def test_constant_column_raises(self):
        values = np.random.default_rng(0).standard_normal((400, 5))
        values[:250, 2] = 0.0
        with pytest.raises(EstimatorError, match="constant column"):
            portfolio.backtest(ReturnPanel(values), None, window=200,
                               horizon=50, step=50)

    # a column held at a non-zero level after the first window: its std
    # about the window mean is the mean's rounding, n * eps * |level| at most;
    # at 0.3 it passed an absolute 1e-15 bound and mean_out_risk2 read 3.6e28
    @pytest.mark.parametrize("level", [0.0, 0.3, 1.0, -7.5])
    def test_column_constant_after_first_window_raises(self, level):
        values = np.random.default_rng(0).standard_normal((600, 5))
        values[250:, 2] = level
        with pytest.raises(EstimatorError, match="constant column"):
            portfolio.backtest(ReturnPanel(values), None, window=200,
                               horizon=50, step=50)

    def test_small_spread_about_a_level_is_not_constant(self):
        values = np.random.default_rng(0).standard_normal((600, 5))
        values[250:, 2] = -7.5 + 7.5e-9 * values[250:, 2]
        rows, _, mean_out = portfolio.backtest(ReturnPanel(values), None,
                                               window=200, horizon=50,
                                               step=50)
        assert len(rows) == 7 and np.isfinite(mean_out)

    # a day of zero returns has no momentum predictor: its g / |g| wrote NaN
    def test_zero_predictor_day_rejected(self):
        values = np.random.default_rng(0).standard_normal((400, 5))
        values[300] = 0.0
        with pytest.raises(ValueError, match=r"non-zero \(date index 300\)"):
            portfolio.backtest(ReturnPanel(values), None, window=300,
                               horizon=50)

    def test_unknown_predictor_rejected(self, panel):
        with pytest.raises(ValueError, match="'momentum' or 'random'"):
            portfolio.backtest(panel, None, window=300, horizon=50,
                               predictor="mean")

    def test_random_predictor_requires_seed(self, panel):
        with pytest.raises(ValueError, match="seed"):
            portfolio.backtest(panel, None, window=300, horizon=50,
                               predictor="random")

    def test_cleaning_narrows_the_gap(self, panel):
        _, in_raw, out_raw = portfolio.backtest(
            panel, None, window=300, horizon=50, step=100)
        _, in_cl, out_cl = portfolio.backtest(
            panel, CleaningScheme("clip", 0.5), window=300, horizon=50,
            step=100)
        assert out_cl / in_cl < out_raw / in_raw

    @pytest.mark.parametrize("kind", ["clip", "powerlaw"])
    def test_cleaned_windows_form_no_matrix(self, panel, kind, monkeypatch):
        # a backtest only solves against each cleaned window, so a window
        # cleaned from eigenpairs never builds its N x N values; the raw
        # window's eigenvalues and the cleaned window's solve read the
        # factored basis only, so neither forms its dense eigenvectors
        raw, cleaned = [], []

        def keep(E, scheme):
            raw.append(E)
            cleaned.append(apply_scheme(E, scheme))
            return cleaned[-1]

        monkeypatch.setattr(portfolio, "apply_scheme", keep)
        rows, _, _ = portfolio.backtest(panel, CleaningScheme(kind, 0.5),
                                        window=300, horizon=50, step=100)
        assert len(cleaned) == len(rows) > 2
        assert all(E.__dict__["_values"] is None for E in cleaned)
        assert not any("_eig" in vars(E) for E in raw + cleaned)

    # each window's E comes from running sums about a fixed shift; it must
    # stay within 1e-12 of the direct formula where the mean sits far from
    # zero, drifts, jumps (the stale shift cancels: the cancellation rebuild
    # catches it), where windows do not overlap, and over many windows
    @staticmethod
    def window_cases():
        C = synth.constant_correlation(10, 0.2)
        base = synth.gaussian_panel(C, 2000, seed=5).values
        T = base.shape[0]
        sigma = base.std(axis=0)
        ramp = np.linspace(0.0, 1e3, T)[:, None]
        jump = np.where(np.arange(T) >= T // 2, 1e3, 0.0)[:, None]
        many = np.random.default_rng(6).standard_normal((2200, 8))
        return {
            "level": (base + 1e3 * sigma, 300, 50),
            "drift": (base + ramp * sigma, 300, 50),
            "jump": (base + jump * sigma, 300, 50),
            "step-ge-window": (base, 300, 300),
            "2000-windows": (many + np.arange(8.0), 100, 1),
        }

    @pytest.mark.parametrize("case", ["fixture", "level", "drift", "jump",
                                      "step-ge-window", "2000-windows"])
    def test_window_estimates_match_direct_formula(self, panel, case,
                                                   monkeypatch):
        if case == "fixture":
            values, window, step = panel.values, 300, 100
        else:
            values, window, step = self.window_cases()[case]
        matrices = []

        def keep(values):
            matrices.append(values)
            return CorrelationMatrix(values)

        monkeypatch.setattr(portfolio, "CorrelationMatrix", keep)
        rows, _, _ = portfolio.backtest(ReturnPanel(values), None,
                                        window=window, horizon=1, step=step)
        assert len(matrices) == len(rows) >= (2000 if step == 1 else 2)
        for t, E in zip(range(window, len(values), step), matrices):
            hist = values[t - window:t]
            X = (hist - hist.mean(axis=0)) / hist.std(axis=0)
            assert np.max(np.abs(E - _corr(X))) <= 1e-12

    @staticmethod
    def rebuilds(caplog, values, window, step):
        with caplog.at_level(logging.DEBUG, logger="rmtkit.portfolio"):
            portfolio.backtest(ReturnPanel(values), None, window=window,
                               horizon=99, step=step)
        (record,) = [r for r in caplog.records
                     if r.getMessage().startswith("backtest:")]
        stats = record.args
        assert stats["seconds"] >= 0.0
        return stats["windows"], stats["periodic"], stats["cancelled"]

    def test_logs_windows_and_rebuilds(self, caplog):
        values = np.random.default_rng(0).standard_normal((5000, 5))
        # the benchmark's layout: the sums are formed again every 10 windows
        assert self.rebuilds(caplog, values, 1000, 100) == (40, 4, 0)
        caplog.clear()
        # windows that do not overlap are each formed from the window
        assert self.rebuilds(caplog, values, 300, 300) == (16, 16, 0)
        caplog.clear()
        # a jump leaves the shift far from the later windows' mean
        values[2500:] += 1e3
        windows, _, cancelled = self.rebuilds(caplog, values, 1000, 100)
        assert windows == 40 and cancelled >= 1

    def test_csv_output(self, tmp_path):
        path = tmp_path / "bt.csv"
        fileio.write_table(
            path, ["alpha", "scheme", "in_risk", "out_risk"],
            [np.array([[0.5], [0.0]]), ["clip", "raw"],
             np.array([[1.25, 1.5], [1.0, 2.0]])])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "scheme", "in_risk", "out_risk"]
        assert rows[1] == ["0.5", "clip", "1.25", "1.5"]
