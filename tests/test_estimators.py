import logging

import numpy as np
import pytest

from rmtkit import cleaning, estimators
from rmtkit.estimators import (CorrelationMatrix, EstimatorError, ReturnPanel,
                               ewma_estimator, pearson, standardize)


@pytest.fixture(scope="module")
def gauss_panel():
    rng = np.random.default_rng(5)
    return standardize(ReturnPanel(rng.standard_normal((600, 50))))


class TestReturnPanel:
    def test_shape_and_labels(self):
        p = ReturnPanel(np.zeros((4, 3)))
        assert (p.T, p.N) == (4, 3)
        assert len(p.asset_ids) == 3 and len(p.time_ids) == 4

    def test_rejects_non_finite(self):
        vals = np.zeros((3, 2))
        vals[1, 1] = np.nan
        with pytest.raises(EstimatorError):
            ReturnPanel(vals)

    def test_window_slices_time(self):
        p = ReturnPanel(np.arange(12.0).reshape(6, 2))
        w = p.window(1, 4)
        assert w.T == 3
        assert w.time_ids == (1, 2, 3)


class TestStandardize:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        p = standardize(ReturnPanel(3.0 + 2.0 * rng.standard_normal((200, 5))))
        assert p.is_standardized(tol=1e-10)

    def test_constant_column_named_in_error(self):
        vals = np.random.default_rng(0).standard_normal((50, 3))
        vals[:, 1] = 7.0
        with pytest.raises(EstimatorError, match="A0001"):
            standardize(ReturnPanel(vals))

    def test_matches_out_of_place_formula_bitwise(self):
        vals = 3.0 + 2.0 * np.random.default_rng(1).standard_normal((300, 7))
        expected = (vals - vals.mean(axis=0)) / vals.std(axis=0)
        assert np.array_equal(standardize(ReturnPanel(vals)).values, expected)


class TestCorrelationMatrix:
    def test_requires_symmetry(self):
        with pytest.raises(EstimatorError, match="symmetric"):
            CorrelationMatrix(np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_rejects_indefinite(self):
        M = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(EstimatorError, match="PSD"):
            CorrelationMatrix(M).eigenvalues

    def test_eigenvalues_descending(self, gauss_panel):
        E = pearson(gauss_panel)
        assert np.all(np.diff(E.eigenvalues) <= 0)

    def test_inverse_and_sqrt_consistency(self, gauss_panel):
        E = pearson(gauss_panel)
        assert np.allclose(E.inverse() @ E.values, np.eye(E.N), atol=1e-8)
        S = E.sqrt()
        assert np.allclose(S @ S, E.values, atol=1e-10)

    def test_singular_inverse_message(self):
        E = CorrelationMatrix(np.ones((3, 3)))
        with pytest.raises(EstimatorError, match="clean it"):
            E.inverse()

    def test_with_spectrum_roundtrip(self, gauss_panel):
        E = pearson(gauss_panel)
        again = E.with_spectrum(E.eigenvalues)
        assert np.allclose(again.values, E.values, atol=1e-12)

    def test_sign_convention_matches_per_column_rule(self, gauss_panel):
        E = pearson(gauss_panel)
        vals, vecs = np.linalg.eigh(E.values)
        vecs = vecs[:, np.argsort(vals)[::-1]]
        for k in range(vecs.shape[1]):
            j = np.argmax(np.abs(vecs[:, k]))
            if vecs[j, k] < 0:
                vecs[:, k] = -vecs[:, k]
        assert np.array_equal(E.eigenvectors, vecs)

    @pytest.mark.parametrize("clean", [
        lambda E: cleaning.clip(E, 0.5),  # a degenerate bulk
        lambda E: cleaning.powerlaw_clean(E, 0.35),  # an unsorted spectrum
    ])
    def test_with_spectrum_hands_over_eigenpairs(self, gauss_panel, clean):
        cleaned = clean(pearson(gauss_panel))
        fresh = CorrelationMatrix(cleaned.values.copy())
        vals, vecs = cleaned.eigenvalues, cleaned.eigenvectors
        assert np.all(np.diff(vals) <= 0)
        assert np.allclose(vals, fresh.eigenvalues, rtol=1e-12, atol=0)
        # compare the projector onto each distinct eigenvalue: within a
        # degenerate eigenspace any orthonormal basis is valid
        starts = np.flatnonzero(np.r_[True, np.diff(vals) != 0])
        for a, b in zip(starts, np.r_[starts[1:], len(vals)]):
            P = vecs[:, a:b] @ vecs[:, a:b].T
            Q = fresh.eigenvectors[:, a:b] @ fresh.eigenvectors[:, a:b].T
            assert np.max(np.abs(P - Q)) <= 1e-10
        j = np.argmax(np.abs(vecs), axis=0)
        assert np.all(vecs[j, np.arange(vecs.shape[1])] > 0)

    def test_unsorted_spectrum_comes_back_descending(self, gauss_panel):
        E = pearson(gauss_panel)
        # the power-law ladder sets eigenvalue 2 above the kept market one
        out = cleaning.powerlaw_clean(E, 0.35)
        assert out.eigenvalues[0] > E.eigenvalues[0]
        assert np.all(np.diff(out.eigenvalues) <= 0)
        # each eigenvalue keeps its own vector through the sort
        out = E.with_spectrum(E.eigenvalues[::-1])
        assert np.array_equal(out.eigenvalues, E.eigenvalues)
        assert np.array_equal(out.eigenvectors, E.eigenvectors[:, ::-1])

    def test_handed_negative_eigenvalue_raises(self, gauss_panel):
        E = pearson(gauss_panel)
        vals = E.eigenvalues.copy()
        vals[3] = -0.5
        bad = E.with_spectrum(vals)
        with pytest.raises(EstimatorError, match="PSD"):
            bad.eigenvalues

    def test_held_values_are_the_symmetrised_product(self, gauss_panel):
        E = pearson(gauss_panel)
        lam = np.linspace(3.0, 0.5, E.N)[::-1]  # unsorted, as handed
        V = E.eigenvectors
        m = (V * lam) @ V.T
        expected = (0.5 * (m + m.T)).tobytes()
        assert E.with_spectrum(lam).values.tobytes() == expected
        # formed from the pairs as handed, not as sorted, whatever is read
        # first
        out = E.with_spectrum(lam)
        out.eigenvectors
        assert out.values.tobytes() == expected

    def test_held_pairs_form_values_only_when_read(self, gauss_panel):
        E = pearson(gauss_panel)
        cleaned = cleaning.clip(E, 0.5)
        assert cleaned.N == E.N
        cleaned.solve(np.ones(E.N))
        assert cleaned.__dict__["_values"] is None
        cleaned.values
        assert cleaned.__dict__["_values"] is not None

    def test_exactly_symmetric_input_kept_bitwise(self):
        B = np.random.default_rng(8).standard_normal((6, 6))
        A = B + B.T
        A[0, 1] = A[1, 0] = -0.0
        assert CorrelationMatrix(A).values.tobytes() == A.tobytes()
        # a gap within the tolerance is still averaged away
        A[2, 3] += 1e-13
        assert np.array_equal(CorrelationMatrix(A).values, 0.5 * (A + A.T))

    def test_spectrum_skips_the_eigenvectors(self, gauss_panel):
        E = pearson(gauss_panel)
        vals = E.spectrum()
        assert "_eig" not in E.__dict__
        assert np.all(np.diff(vals) <= 0)
        assert np.allclose(vals, E.eigenvalues, rtol=0, atol=1e-13)
        held = E.with_spectrum(E.eigenvalues)
        assert np.array_equal(held.spectrum(), E.eigenvalues)
        M = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(EstimatorError, match="PSD"):
            CorrelationMatrix(M).spectrum()

    def test_solve_matches_inverse(self, gauss_panel):
        E = pearson(gauss_panel)
        g = np.random.default_rng(3).standard_normal(E.N)
        ref = E.inverse() @ g
        assert np.max(np.abs(E.solve(g) - ref)) <= 1e-12 * np.max(np.abs(ref))
        cleaned = cleaning.clip(E, 0.5)
        ref = cleaned.inverse() @ g
        assert (np.max(np.abs(cleaned.solve(g) - ref))
                <= 1e-12 * np.max(np.abs(ref)))

    def test_singular_solve_message(self):
        E = CorrelationMatrix(np.ones((3, 3)))
        with pytest.raises(EstimatorError, match="clean it"):
            E.solve(np.ones(3))


class TestPearson:
    def test_unit_diagonal(self, gauss_panel):
        E = pearson(gauss_panel)
        assert np.allclose(np.diag(E.values), 1.0)

    def test_requires_standardized(self):
        p = ReturnPanel(5.0 * np.random.default_rng(0).standard_normal((50, 4)))
        with pytest.raises(EstimatorError, match="standardized"):
            pearson(p)


class TestEwmaEstimator:
    def test_weights_sum_to_one(self, gauss_panel):
        E = ewma_estimator(gauss_panel, 0.01)
        # trace = N exactly when the finite-window weights are renormalized
        assert np.trace(E.values) == pytest.approx(gauss_panel.N, rel=0.05)

    def test_recent_data_dominates(self):
        vals = np.random.default_rng(2).standard_normal((400, 2))
        vals[-50:, 1] = vals[-50:, 0]  # perfectly correlated recently
        p = standardize(ReturnPanel(vals))
        fast = ewma_estimator(p, 0.1).values[0, 1]
        slow = ewma_estimator(p, 0.005).values[0, 1]
        assert fast > slow

    def test_epsilon_validation(self, gauss_panel):
        with pytest.raises(EstimatorError):
            ewma_estimator(gauss_panel, 1.5)


class TestStudentML:
    def test_recovers_structure_on_student_data(self):
        from rmtkit import synth
        C = synth.build_true_correlation(
            synth.TrueCorrelationSpec("single_spike", 20, rho_bar=0.4))
        panel = synth.student_panel(C, 5.0, 4000, seed=8)
        ml = estimators.student_ml(panel, 5.0)
        off = ml.values[np.triu_indices(20, 1)]
        # student_ml output is trace-normalized up to the ML scale; compare shape
        scale = np.trace(ml.values) / 20.0
        assert np.mean(off) / scale == pytest.approx(0.4, abs=0.05)

    def test_mu_validation(self, gauss_panel):
        with pytest.raises(EstimatorError):
            estimators.student_ml(gauss_panel, 2.0)

    @pytest.fixture(scope="class")
    def heavy_panel(self):
        # q = N/T = 0.5, where the plain fixed-point map contracts at ~0.98
        from rmtkit import synth
        C = synth.build_true_correlation(
            synth.TrueCorrelationSpec("identity", 100))
        return synth.student_panel(C, 5.0, 200, seed=0)

    def test_error_bounded(self, heavy_panel):
        # tol bounds the distance to the fixed point, not the last step
        ref = estimators.student_ml(heavy_panel, 5.0, tol=1e-12,
                                    max_iter=2000)
        ml = estimators.student_ml(heavy_panel, 5.0, tol=3e-5, max_iter=2000)
        assert np.max(np.abs(ml.values - ref.values)) <= 3e-5

    def test_max_iter_names_last_residual(self, heavy_panel):
        with pytest.raises(EstimatorError, match=r"last residual \d"):
            estimators.student_ml(heavy_panel, 5.0, tol=3e-5, max_iter=2)

    def test_fewer_observations_than_assets_is_singular(self):
        rng = np.random.default_rng(3)
        panel = standardize(ReturnPanel(rng.standard_normal((40, 60))))
        with pytest.raises(EstimatorError, match="singular"):
            estimators.student_ml(panel, 5.0)

    def test_logs_iterations_and_bound(self, heavy_panel, caplog):
        with caplog.at_level(logging.DEBUG, logger="rmtkit.estimators"):
            estimators.student_ml(heavy_panel, 5.0, tol=3e-5, max_iter=2000)
        (record,) = [r for r in caplog.records
                     if r.getMessage().startswith("student_ml:")]
        assert record.args["iterations"] >= 1
        assert record.args["bound"] <= 3e-5


class TestDiagnostics:
    def test_dual_spectrum_agrees(self):
        rng = np.random.default_rng(9)
        p = ReturnPanel(rng.standard_normal((80, 120)))
        _, _, gap = estimators.dual_spectrum_check(p)
        assert gap < 1e-8

    def test_eigenportfolios_realize_their_eigenvalues(self, gauss_panel):
        E = pearson(gauss_panel)
        rows = estimators.eigenportfolio_report(E, gauss_panel)
        for row in rows[:5]:
            assert row.realized_variance == pytest.approx(row.eigenvalue,
                                                          rel=1e-6)
            assert row.max_abs_cross_covariance < 1e-8

    def test_eigenvector_kurtosis_small_for_rotation_invariant(self, gauss_panel):
        E = pearson(gauss_panel)
        k = estimators.eigenvector_kurtosis(E)
        assert np.mean(np.abs(k)) < 2.0
