import numpy as np
import pytest

from rmtkit import crosscorr, spectra
from rmtkit.estimators import EstimatorError, ReturnPanel, standardize


def planted_factor_panels(N: int, M: int, T: int, strength: float, seed):
    """Pair of panels sharing one common factor.

    X is IID Gaussian; Y mixes the factor (a fixed combination of X columns)
    at the given strength with fresh noise, then both are standardized.
    """
    if not 0.0 <= strength <= 1.0:
        raise ValueError("strength must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((T, N))
    loadings = rng.standard_normal(N)
    loadings /= np.linalg.norm(loadings)
    factor = X @ loadings
    exposure = rng.standard_normal(M)
    exposure /= np.linalg.norm(exposure)
    noise = rng.standard_normal((T, M))
    Y = strength * np.outer(factor, exposure) + np.sqrt(1 - strength ** 2) * noise
    return standardize(ReturnPanel(X)), standardize(ReturnPanel(Y))


class TestWhitening:
    def test_singulars_are_qr_canonical_correlations(self):
        X, Y = planted_factor_panels(150, 100, 1500, 0.5, seed=9)
        res = crosscorr.cross_singulars(X, Y)
        # the canonical correlations of the two column spaces, from
        # orthonormal bases by QR (Bjorck & Golub 1973)
        qx, qy = np.linalg.qr(X.values)[0], np.linalg.qr(Y.values)[0]
        ref = np.linalg.svd(qy.T @ qx, compute_uv=False)
        assert np.max(np.abs(res.singular_values - ref)) <= 1e-12

    def test_rank_deficit_dropped_with_warning(self):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal((200, 30))
        vals[:, -1] = vals[:, 0] + vals[:, 1]  # exactly dependent column
        X = standardize(ReturnPanel(vals))
        Y = standardize(ReturnPanel(rng.standard_normal((200, 10))))
        with pytest.warns(UserWarning, match="null principal directions"):
            res = crosscorr.cross_singulars(X, Y)
        assert res.singular_values.shape == (10,)
        assert res.null_band == spectra.rsvd_band(29 / 200, 10 / 200)

    def test_raw_panel_is_standardized_first(self):
        rng = np.random.default_rng(7)
        T, N = 400, 20
        raw = 5.0 + rng.standard_normal((T, N)) @ rng.uniform(0, 2, (N, N))
        other = standardize(ReturnPanel(rng.standard_normal((T, 15))))
        # the raw panel as X, then as Y
        for pair in (lambda p: (p, other), lambda p: (other, p)):
            res = crosscorr.cross_singulars(*pair(ReturnPanel(raw)))
            ref = crosscorr.cross_singulars(
                *pair(standardize(ReturnPanel(raw))))
            assert np.array_equal(res.singular_values, ref.singular_values)


class TestCrossSingulars:
    def test_null_panels_inside_band(self):
        rng = np.random.default_rng(2)
        T, N, M = 1500, 180, 120
        X = standardize(ReturnPanel(rng.standard_normal((T, N))))
        Y = standardize(ReturnPanel(rng.standard_normal((T, M))))
        res = crosscorr.cross_singulars(X, Y)
        assert res.significant_count == 0
        assert res.singular_values.max() <= res.threshold
        assert res.singular_values.max() <= 1.0 + 1e-8

    def test_planted_factor_detected(self):
        X, Y = planted_factor_panels(150, 100, 1500, 0.8, seed=3)
        res = crosscorr.cross_singulars(X, Y)
        assert res.significant_count == 1
        assert res.singular_values[0] > res.threshold

    def test_weak_factor_hidden(self):
        X, Y = planted_factor_panels(150, 100, 1500, 0.05, seed=4)
        res = crosscorr.cross_singulars(X, Y)
        assert res.significant_count == 0

    def test_mismatched_dates_rejected(self):
        rng = np.random.default_rng(5)
        X = standardize(ReturnPanel(rng.standard_normal((100, 10))))
        Y = standardize(ReturnPanel(rng.standard_normal((120, 10))))
        with pytest.raises(EstimatorError, match="dates"):
            crosscorr.cross_singulars(X, Y)


class TestPlantedFactorPanels:
    def test_standardized_outputs(self):
        X, Y = planted_factor_panels(20, 15, 300, 0.5, seed=6)
        for panel in (X, Y):
            np.testing.assert_allclose(panel.values.mean(axis=0), 0.0,
                                       rtol=0, atol=1e-8)
            np.testing.assert_allclose(panel.values.var(axis=0), 1.0,
                                       rtol=0, atol=1e-8)

    def test_strength_validation(self):
        with pytest.raises(ValueError):
            planted_factor_panels(10, 10, 100, 1.5, seed=0)
