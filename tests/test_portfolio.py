import csv

import numpy as np
import pytest

from rmtkit import fileio, portfolio, synth
from rmtkit.cleaning import CleaningScheme, apply_scheme
from rmtkit.estimators import (CorrelationMatrix, EstimatorError, ReturnPanel,
                               pearson, standardize)


@pytest.fixture(scope="module")
def true_corr():
    return synth.build_true_correlation(
        synth.TrueCorrelationSpec("single_spike", 60, rho_bar=0.2))


class TestWeights:
    def test_closed_form(self):
        C = CorrelationMatrix(np.eye(3))
        g = np.array([1.0, 2.0, 2.0])
        w = portfolio.markowitz_weights(C, g, G=2.0)
        # identity C: w = G g / |g|^2
        assert np.allclose(w.w, 2.0 * g / 9.0)

    def test_gain_constraint_satisfied(self, true_corr):
        g = np.linspace(1, 2, 60)
        w = portfolio.markowitz_weights(true_corr, g, G=1.5)
        assert w.w @ g == pytest.approx(1.5)

    def test_zero_predictor_rejected(self, true_corr):
        with pytest.raises(ValueError):
            portfolio.markowitz_weights(true_corr, np.zeros(60))


class TestRiskTriple:
    def test_perfect_estimate_all_equal(self, true_corr):
        g = np.ones(60)
        r = portfolio.risk_triple(true_corr, true_corr, g)
        assert r.in_sample == pytest.approx(r.true_risk)
        assert r.out_of_sample == pytest.approx(r.true_risk)

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
        C = synth.build_true_correlation(
            synth.TrueCorrelationSpec("identity", N))
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
    C = synth.build_true_correlation(
        synth.TrueCorrelationSpec("single_spike", 40, rho_bar=0.2))
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
        # cleaned from eigenpairs never builds its N x N values
        cleaned = []

        def keep(E, scheme):
            cleaned.append(apply_scheme(E, scheme))
            return cleaned[-1]

        monkeypatch.setattr(portfolio, "apply_scheme", keep)
        rows, _, _ = portfolio.backtest(panel, CleaningScheme(kind, 0.5),
                                        window=300, horizon=50, step=100)
        assert len(cleaned) == len(rows) > 2
        assert all(E.__dict__["_values"] is None for E in cleaned)

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


class TestResidualTest:
    def test_raw_estimate_biased_out_of_sample(self):
        C = synth.build_true_correlation(
            synth.TrueCorrelationSpec("single_spike", 40, rho_bar=0.2))
        panel = synth.gaussian_panel(C, 700, seed=9)
        in_ratio, out_ratio = portfolio.residual_test(
            panel, None, window=300, horizon=50, step=100)
        # in-window the fit is flattered; out-of-window it deteriorates
        assert in_ratio > out_ratio
        assert 0.5 < out_ratio < 1.05

    def test_constant_column_raises(self):
        values = np.random.default_rng(0).standard_normal((400, 5))
        values[:250, 2] = 0.0
        with pytest.raises(EstimatorError, match="constant column"):
            portfolio.residual_test(ReturnPanel(values), None, window=200,
                                    horizon=50, step=50)
