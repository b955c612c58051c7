import numpy as np
import pytest

from rmtkit import crosscorr
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
    def test_exact_unit_covariance(self):
        rng = np.random.default_rng(0)
        panel = standardize(ReturnPanel(rng.standard_normal((500, 60))))
        white = crosscorr.normalize_principal_components(panel)
        E = white.values.T @ white.values / white.T
        assert np.allclose(E, np.eye(white.N), atol=1e-10)

    def test_raw_panel_is_standardized_first(self):
        rng = np.random.default_rng(7)
        T, N = 400, 20
        raw = 5.0 + rng.standard_normal((T, N)) @ rng.uniform(0, 2, (N, N))
        white = crosscorr.normalize_principal_components(ReturnPanel(raw))
        # reference: sqrt(T) times the left singular vectors of the
        # standardized panel, by SVD, up to each column's sign
        U = np.linalg.svd((raw - raw.mean(axis=0)) / raw.std(axis=0),
                          full_matrices=False)[0]
        ref = np.sqrt(T) * U
        ref *= np.sign(np.sum(white.values * ref, axis=0))
        assert np.max(np.abs(white.values - ref)) <= 1e-9

    def test_component_signs_follow_the_sign_rule(self):
        rng = np.random.default_rng(8)
        panel = standardize(ReturnPanel(rng.standard_normal((300, 40))))
        white = crosscorr.normalize_principal_components(panel)
        # column k of X^T C / T is sqrt(lambda_k) v_k, so its largest-
        # magnitude entry carries v_k's sign, which the rule makes positive
        loadings = panel.values.T @ white.values / panel.T
        top = np.argmax(np.abs(loadings), axis=0)
        assert np.all(loadings[top, np.arange(white.N)] > 0)

    def test_rank_deficit_dropped_with_warning(self):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal((200, 30))
        vals[:, -1] = vals[:, 0] + vals[:, 1]  # exactly dependent column
        panel = standardize(ReturnPanel(vals))
        with pytest.warns(UserWarning, match="null principal directions"):
            white = crosscorr.normalize_principal_components(panel)
        assert white.N == 29


class TestCrossSingulars:
    def test_null_panels_inside_band(self):
        rng = np.random.default_rng(2)
        T, N, M = 1500, 180, 120
        X = standardize(ReturnPanel(rng.standard_normal((T, N))))
        Y = standardize(ReturnPanel(rng.standard_normal((T, M))))
        res = crosscorr.cross_singulars(
            crosscorr.normalize_principal_components(X),
            crosscorr.normalize_principal_components(Y))
        assert res.significant_count == 0
        assert res.singular_values.max() <= res.threshold
        assert res.singular_values.max() <= 1.0 + 1e-8

    def test_planted_factor_detected(self):
        X, Y = planted_factor_panels(150, 100, 1500, 0.8, seed=3)
        res = crosscorr.cross_singulars(
            crosscorr.normalize_principal_components(X),
            crosscorr.normalize_principal_components(Y))
        assert res.significant_count == 1
        assert res.singular_values[0] > res.threshold

    def test_weak_factor_hidden(self):
        X, Y = planted_factor_panels(150, 100, 1500, 0.05, seed=4)
        res = crosscorr.cross_singulars(
            crosscorr.normalize_principal_components(X),
            crosscorr.normalize_principal_components(Y))
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
