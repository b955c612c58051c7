import csv

import numpy as np
import pytest

from rmtkit import cleaning, fileio, synth
from rmtkit.cleaning import CleaningScheme
from rmtkit.estimators import (CorrelationMatrix, ReturnPanel, pearson,
                               standardize)


def _kept(E, out):
    """How many of E's eigenvalues ``out`` holds unchanged."""
    return int(np.isin(out.eigenvalues, E.eigenvalues).sum())


@pytest.fixture(scope="module")
def noisy_estimate():
    rng = np.random.default_rng(4)
    return pearson(standardize(ReturnPanel(rng.standard_normal((400, 100)))))


class TestScheme:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            CleaningScheme("magic", 0.5)
        with pytest.raises(ValueError):
            CleaningScheme("clip", 1.5)

    def test_powerlaw_takes_the_priors_checks(self):
        # clip and shrinkage accept alpha = 0 and ignore mu
        CleaningScheme("clip", 0.0, mu=0.5)
        with pytest.raises(ValueError, match="alpha must lie in \\(0, 1\\]"):
            CleaningScheme("powerlaw", 0.0)
        for mu in (1.0, 0.5, np.inf):
            with pytest.raises(ValueError, match="mu must"):
                CleaningScheme("powerlaw", 0.5, mu)


class TestClip:
    def test_trace_preserved(self, noisy_estimate):
        out = cleaning.clip(noisy_estimate, 0.6)
        assert np.trace(out.values) == pytest.approx(
            np.trace(noisy_estimate.values), rel=1e-10)

    def test_kept_count_and_flat_bulk(self, noisy_estimate):
        out = cleaning.clip(noisy_estimate, 0.6)
        n_keep = _kept(noisy_estimate, out)
        assert n_keep == int(np.ceil(0.4 * 100))
        bulk = out.eigenvalues[n_keep:]
        assert np.ptp(bulk) < 1e-10

    def test_kept_count_exact_for_decimal_alpha(self):
        # ceil((1 - k/100) N) = N - floor(kN/100) in integers; the float
        # product (1 - 0.45) * 100 reads 55.00000000000001.  E's trace is
        # below N, so the value clip gives the rest exceeds all of E's
        # eigenvalues and _kept counts the kept ones alone
        wrong = []
        for N in (10, 40, 100, 200, 500, 1000):
            E = CorrelationMatrix(np.diag(np.linspace(0.9, 0.1, N)))
            for k in range(1, 100):
                kept = _kept(E, cleaning.clip(E, k / 100))
                if kept != N - k * N // 100:
                    wrong.append((N, k / 100, kept))
        assert not wrong

    def test_keeps_top_eigenvalues(self, noisy_estimate):
        out = cleaning.clip(noisy_estimate, 0.6)
        np.testing.assert_allclose(out.eigenvalues[:5],
                                   noisy_estimate.eigenvalues[:5], rtol=1e-10)


@pytest.fixture(scope="module")
def market_estimate():
    # a real market mode far above the replacement ladder
    C = synth.constant_correlation(100, 0.3)
    panel = standardize(synth.gaussian_panel(C, 400, seed=6))
    return pearson(panel)


class TestPowerLaw:
    def test_market_mode_untouched(self, market_estimate):
        out = cleaning.powerlaw_clean(market_estimate, 0.4)
        assert out.eigenvalues[0] == pytest.approx(
            market_estimate.eigenvalues[0], rel=1e-10)

    def test_ladder_descends_and_trace_recorded(self, market_estimate):
        out = cleaning.powerlaw_clean(market_estimate, 0.4)
        assert np.all(np.diff(out.eigenvalues) <= 1e-12)
        assert np.trace(out.values) == pytest.approx(
            float(out.eigenvalues.sum()))

    def test_leading_eigenvectors_preserved(self, market_estimate):
        out = cleaning.powerlaw_clean(market_estimate, 0.4)
        overlap = np.abs(np.diag(out.eigenvectors.T
                                 @ market_estimate.eigenvectors))
        # higher ranks sit in nearly degenerate ladder eigenspaces, so only
        # the well-separated leading modes are individually comparable
        assert np.all(overlap[:5] > 1.0 - 1e-6)


class TestTiedEigenvalues:
    """A cleaned matrix depends on E alone: eigenvalues tied within rounding
    share one new value, so the basis rounding picks inside their
    eigenspace does not matter."""

    def test_powerlaw_solve_ignores_the_null_space_basis(self):
        rng = np.random.default_rng(11)
        W, N = 60, 100  # a window shorter than N: a null space of N - W + 1
        panel = standardize(ReturnPanel(rng.standard_normal((W, N))))
        E = pearson(panel).values
        # rotate the null space by a random orthogonal R: Q E Q^T is E up to
        # rounding, which moves the basis an eigensolver picks inside it
        null = np.linalg.svd(panel.values)[2][W - 1:].T
        R = np.linalg.qr(rng.standard_normal((N - W + 1,) * 2))[0]
        Q = np.eye(N) + null @ (R - np.eye(N - W + 1)) @ null.T
        rotated = Q @ E @ Q.T
        rotated = 0.5 * (rotated + rotated.T)
        g = rng.standard_normal(N)
        a = cleaning.powerlaw_clean(CorrelationMatrix(E), 0.5).solve(g)
        b = cleaning.powerlaw_clean(CorrelationMatrix(rotated), 0.5).solve(g)
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)

    def test_clip_cut_inside_a_tied_cluster(self):
        rng = np.random.default_rng(12)
        V = np.linalg.qr(rng.standard_normal((10, 10)))[0]
        lam = np.array([3.0, 2.0] + [1.0] * 4 + [0.25] * 4)  # trace 10
        E = CorrelationMatrix((V * lam) @ V.T)
        # alpha = 0.6 keeps 4: the cut splits the cluster at 1 into two kept
        # values and two clipped ones, (10 - 7) / 6 = 0.5
        out = cleaning.clip(E, 0.6)
        expected = np.array([3.0, 2.0] + [0.75] * 4 + [0.5] * 4)
        np.testing.assert_allclose(out.eigenvalues, expected, rtol=0,
                                   atol=1e-12)
        # the cluster's value sits on its whole eigenspace
        ref = (V * expected) @ V.T
        assert np.max(np.abs(out.values - ref)) <= 1e-12


class TestShrinkage:
    def test_identity_limits(self, noisy_estimate):
        same = cleaning.shrink_identity(noisy_estimate, 0.0)
        assert np.allclose(same.values, noisy_estimate.values)
        iden = cleaning.shrink_identity(noisy_estimate, 1.0)
        assert np.allclose(iden.values, np.eye(100))

    def test_const_corr_target(self, noisy_estimate):
        out = cleaning.shrink_const_corr(noisy_estimate, 1.0)
        rho = noisy_estimate.values[~np.eye(100, dtype=bool)].mean()
        off = out.values[~np.eye(100, dtype=bool)]
        assert np.allclose(off, rho, atol=1e-12)
        assert np.allclose(np.diag(out.values), 1.0)


@pytest.mark.parametrize("kind", cleaning.SCHEME_KINDS)
def test_written_header_is_the_input_tickers(kind, tmp_path):
    tickers = ("AAPL", "MSFT", "XOM", "JPM", "KO", "PG")
    rng = np.random.default_rng(9)
    E = pearson(standardize(ReturnPanel(rng.standard_normal((80, 6)),
                                        tickers)))
    out = cleaning.apply_scheme(E, CleaningScheme(kind, 0.5))
    path = tmp_path / "clean.csv"
    fileio.write_matrix_csv(path, out)
    with open(path, newline="") as fh:
        assert tuple(next(csv.reader(fh))) == tickers


class TestApplyScheme:
    @pytest.mark.parametrize("kind", cleaning.SCHEME_KINDS)
    def test_dispatch_produces_invertible_psd(self, noisy_estimate, kind):
        out = cleaning.apply_scheme(noisy_estimate, CleaningScheme(kind, 0.5))
        assert out.eigenvalues[-1] > 0
        assert np.allclose(out.inverse() @ out.values, np.eye(100), atol=1e-6)

    def test_cleaning_helps_out_of_sample_risk(self):
        # cleaned minimum-variance portfolios carry less true risk than raw
        from rmtkit import portfolio
        C = synth.powerlaw_correlation(100, 0.35, 1)
        rng = np.random.default_rng(2)
        g = rng.standard_normal(100)
        raw_out, clean_out = [], []
        for seed in range(5):
            panel = standardize(synth.gaussian_panel(C, 200, seed))
            E = pearson(panel)
            cleaned = cleaning.clip(E, 0.5)
            raw_out.append(portfolio.risk_triple(E, C, g).out_of_sample)
            clean_out.append(portfolio.risk_triple(cleaned, C, g).out_of_sample)
        assert np.mean(clean_out) < np.mean(raw_out)
