import logging
from types import SimpleNamespace

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

    @pytest.mark.parametrize("kwargs, match", [
        (dict(values=np.zeros(6)), "T x N matrix"),
        (dict(values=np.zeros((2, 3, 1))), "T x N matrix"),
        (dict(values=np.zeros((4, 3)), asset_ids=("A", "B")), "asset_ids"),
        (dict(values=np.zeros((4, 3)), time_ids=(0, 1, 2, 3, 4)),
         "time_ids"),
    ], ids=["1-d", "3-d", "asset-ids", "time-ids"])
    def test_rejects_bad_shape_or_labels(self, kwargs, match):
        with pytest.raises(EstimatorError, match=match):
            ReturnPanel(**kwargs)


class TestStandardize:
    def test_needs_two_observations(self):
        with pytest.raises(EstimatorError, match="at least two"):
            standardize(ReturnPanel(np.ones((1, 3))))

    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        p = standardize(ReturnPanel(3.0 + 2.0 * rng.standard_normal((200, 5))))
        np.testing.assert_allclose(p.values.mean(axis=0), 0.0, rtol=0,
                                   atol=1e-10)
        np.testing.assert_allclose(p.values.var(axis=0), 1.0, rtol=0,
                                   atol=1e-10)

    def test_is_standardized_reads_one_tolerance(self):
        rng = np.random.default_rng(1)
        p = standardize(ReturnPanel(rng.standard_normal((200, 5))))
        assert p.is_standardized()
        # a shift moves the means only
        tol = estimators.STANDARDIZED_TOL
        assert ReturnPanel(p.values + 0.5 * tol).is_standardized()
        assert not ReturnPanel(p.values + 2.0 * tol).is_standardized()

    def test_constant_column_named_in_error(self):
        vals = np.random.default_rng(0).standard_normal((50, 3))
        vals[:, 1] = 7.0
        with pytest.raises(EstimatorError, match="A0001"):
            standardize(ReturnPanel(vals))

    # a column held at a level a reads a std of up to n * eps * |a|, the
    # rounding of its mean: at 0.3 over 5000 rows it read 2.7e-14, passed an
    # absolute 1e-15 bound and came out as a column of ones
    @pytest.mark.parametrize("level", [0.0, 0.3, 1.0, -7.5])
    def test_constant_column_at_any_level_raises(self, level):
        vals = np.random.default_rng(0).standard_normal((5000, 3))
        vals[:, 1] = level
        with pytest.raises(EstimatorError, match="constant column .* A0001"):
            standardize(ReturnPanel(vals))

    def test_small_spread_about_a_level_is_not_constant(self):
        vals = np.random.default_rng(0).standard_normal((5000, 3))
        vals[:, 1] = -7.5 + 7.5e-9 * vals[:, 1] / vals[:, 1].std()
        out = standardize(ReturnPanel(vals)).values
        assert out[:, 1].var() == pytest.approx(1.0, rel=1e-6)

    # the rounding of the mean leaves a residual of up to about
    # n * eps * |mean| / std in the output: one pass left this column with
    # mean 1.3e-5 (7.5e-10) and pearson then refused it
    @pytest.mark.parametrize("spread", [7.5e-10, 7.5e-9])
    def test_small_spread_about_a_level_is_standardized(self, spread):
        for seed in range(8):
            vals = np.random.default_rng(seed).standard_normal((5000, 3))
            vals[:, 1] = -7.5 + spread * vals[:, 1]
            p = standardize(ReturnPanel(vals))
            assert p.is_standardized()
            assert pearson(p).N == 3

    def test_matches_out_of_place_formula_bitwise(self):
        vals = 3.0 + 2.0 * np.random.default_rng(1).standard_normal((300, 7))
        expected = (vals - vals.mean(axis=0)) / vals.std(axis=0)
        assert np.array_equal(standardize(ReturnPanel(vals)).values, expected)


class TestCorrelationMatrix:
    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)])
    def test_requires_a_square_matrix(self, shape):
        with pytest.raises(EstimatorError, match="must be square"):
            CorrelationMatrix(np.zeros(shape))

    def test_every_estimator_carries_the_panels_asset_ids(self, gauss_panel):
        ids = gauss_panel.asset_ids
        for E in (pearson(gauss_panel),
                  ewma_estimator(gauss_panel, 0.05),
                  estimators.student_ml(gauss_panel, 5.0)):
            assert E.asset_ids == ids
            assert E.with_spectrum(E.eigenvalues).asset_ids == ids
        assert CorrelationMatrix(np.eye(2)).asset_ids == ()

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

    def test_clip_keeps_the_parents_eigenvectors(self, gauss_panel):
        E = pearson(gauss_panel)
        cleaned = cleaning.clip(E, 0.5)
        # clip's spectrum is already descending: the vectors are handed on
        # as they are, neither copied nor sign-fixed again
        assert cleaned.eigenvectors.tobytes() == E.eigenvectors.tobytes()
        assert np.shares_memory(cleaned.eigenvectors, E.eigenvectors)

    def test_reordered_ladder_permutes_the_parents_columns(self, gauss_panel):
        E = pearson(gauss_panel)
        out = cleaning.powerlaw_clean(E, 0.35)
        vals, V = out.eigenvalues, E.eigenvectors
        assert np.all(np.diff(vals) <= 0)
        # the kept market eigenvalue sinks below the ladder's top rungs and
        # takes its vector along; every other column keeps its order
        j = int(np.flatnonzero(vals == E.eigenvalues[0])[0])
        assert j > 0
        order = np.r_[1:j + 1, 0, j + 1:E.N]
        assert out.eigenvectors.tobytes() == V[:, order].tobytes()

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
        vals = E.eigenvalues
        assert "_eig" not in E.__dict__
        assert "vectors" not in E._tri.__dict__  # no dense Q Z formed
        assert np.all(np.diff(vals) <= 0)
        M = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(EstimatorError, match="PSD"):
            CorrelationMatrix(M).eigenvalues

    def test_values_on_a_resorted_parent_match_dense_rebuild(self,
                                                             gauss_panel):
        E = pearson(gauss_panel)
        # the ladder re-sorts the parent's columns, so clip's child reads
        # its vectors through a column permutation
        mid = cleaning.powerlaw_clean(E, 0.35)
        out = cleaning.clip(mid, 0.5)
        assert out._cols is not None
        # reference: clip by hand on eigh's pairs of the dense middle matrix
        vals, vecs = np.linalg.eigh(mid.values)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        k = -(-E.N // 2)  # alpha = 0.5 keeps ceil(N / 2)
        vals[k:] = (E.N - vals[:k].sum()) / (E.N - k)
        ref = (vecs * vals) @ vecs.T
        assert np.max(np.abs(out.values - ref)) <= 1e-12 * np.max(np.abs(ref))

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

    # N = 1 is special-cased (dstevd's wrapper rejects it); with dsyevd's
    # workspace, dormqr runs unblocked below N = 64, in reduced blocks of
    # (N^2 + 4N + 1 - 4160) // N reflectors up to 79, and in its optimal
    # blocks of 32 from 80
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 64, 65, 66, 80, 81, 128, 500])
    def test_eigenpairs_match_eigh_bitwise(self, n):
        X = np.random.default_rng(n).standard_normal((2 * n + 3, n))
        A = X.T @ X / X.shape[0]
        vals, vecs = np.linalg.eigh(A)
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
        j = np.argmax(np.abs(vecs), axis=0)
        vecs[:, vecs[j, np.arange(n)] < 0] *= -1.0
        E = CorrelationMatrix(A)
        assert E.eigenvalues.tobytes() == vals.tobytes()
        assert E.eigenvectors.tobytes() == vecs.tobytes()

    @pytest.mark.parametrize("clean", [
        lambda E: E,
        lambda E: cleaning.clip(E, 0.5),
        lambda E: cleaning.powerlaw_clean(E, 0.35),  # an unsorted spectrum
    ])
    @pytest.mark.parametrize("shape", [(), (1,), (3,), (50,)])
    def test_solve_takes_vectors_and_matrices(self, gauss_panel, clean,
                                              shape):
        E = clean(pearson(gauss_panel))
        B = np.random.default_rng(4).standard_normal((E.N, *shape))
        x = E.solve(B)
        ref = E.inverse() @ B
        assert x.shape == B.shape
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_solve_forms_no_eigenvectors(self, gauss_panel):
        E = pearson(gauss_panel)
        cleaned = cleaning.clip(E, 0.5)
        E.solve(np.ones(E.N))
        cleaned.solve(np.ones(E.N))
        # one factored basis, shared, and never made dense
        assert cleaned._tri is E._tri
        assert "vectors" not in vars(E._tri)
        assert "_eig" not in vars(E) and "_eig" not in vars(cleaned)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        M = np.eye(3)
        M[0, 2] = M[2, 0] = bad
        with pytest.raises(EstimatorError, match="non-finite"):
            CorrelationMatrix(M)
        M = np.eye(3)
        M[1, 1] = bad  # the diagonal too
        with pytest.raises(EstimatorError, match="non-finite"):
            CorrelationMatrix(M)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_handed_non_finite_eigenvalue_raises(self, gauss_panel, bad):
        E = pearson(gauss_panel)
        vals = E.eigenvalues.copy()
        vals[3] = bad
        with pytest.raises(EstimatorError, match="non-finite"):
            E.with_spectrum(vals).eigenvalues
        with pytest.raises(EstimatorError, match="non-finite"):
            E.with_spectrum(vals).solve(np.ones(E.N))


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
        C = synth.constant_correlation(20, 0.4)
        panel = synth.student_panel(C, 5.0, 4000, seed=8)
        ml = estimators.student_ml(panel, 5.0)
        off = ml.values[np.triu_indices(20, 1)]
        # student_ml output is trace-normalized up to the ML scale; compare shape
        scale = np.trace(ml.values) / 20.0
        assert np.mean(off) / scale == pytest.approx(0.4, abs=0.05)

    def test_mu_validation(self, gauss_panel):
        for mu in (2.0, np.nan, np.inf):
            with pytest.raises(EstimatorError, match="mu must"):
                estimators.student_ml(gauss_panel, mu)

    def test_requires_standardized(self):
        p = ReturnPanel(5.0 * np.random.default_rng(0).standard_normal((50, 4)))
        with pytest.raises(EstimatorError, match="standardized panel"):
            estimators.student_ml(p, 5.0)

    @pytest.fixture(scope="class")
    def heavy_panel(self):
        # q = N/T = 0.5, where the plain normalised map contracts at ~0.58
        # (~0.95 without the normalisation)
        from rmtkit import synth
        C = synth.constant_correlation(100, 0.0)
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

    @staticmethod
    def student_input(seed, N=300, T=600, mu=5.0):
        # the Student panel of the `solvers` benchmark (seed 0 there)
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal((T, N))
        X = np.sqrt(mu / rng.chisquare(mu, size=T))[:, None] * xi
        return ReturnPanel((X - X.mean(axis=0)) / X.std(axis=0))

    def test_normalised_map_iterations_pinned(self, caplog):
        # the unnormalised weight map took 13 iterations here
        with caplog.at_level(logging.DEBUG, logger="rmtkit.estimators"):
            estimators.student_ml(self.student_input(0), 5.0, tol=3e-5)
        (record,) = [r for r in caplog.records
                     if r.getMessage().startswith("student_ml:")]
        assert record.args["iterations"] <= 6

    @pytest.mark.parametrize("seed", range(6))
    def test_error_bounded_on_benchmark_inputs(self, seed):
        panel = self.student_input(seed)
        ref = estimators.student_ml(panel, 5.0, tol=1e-12)
        ml = estimators.student_ml(panel, 5.0, tol=3e-5)
        assert np.max(np.abs(ml.values - ref.values)) <= 0.5 * 3e-5

    @pytest.mark.parametrize("mu", [3.0, 10.0])
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.67])
    @pytest.mark.parametrize("N", [50, 100])
    def test_error_bounded_across_shapes(self, N, q, mu):
        from rmtkit import synth
        C = synth.constant_correlation(N, 0.0)
        T = round(N / q)
        panel = synth.student_panel(C, mu, T, seed=N + T + int(mu))
        ref = estimators.student_ml(panel, mu, tol=1e-12, max_iter=2000)
        ml = estimators.student_ml(panel, mu, tol=3e-5, max_iter=2000)
        assert np.max(np.abs(ml.values - ref.values)) <= 3e-5

    def test_plain_step_reuses_gram(self, monkeypatch, caplog):
        # the start costs two Gram matrices, each plain step one (its C is
        # the last image's), each secant step two, the returning iteration
        # none; the benchmark input takes no fallback
        calls = []
        real = estimators.blas.dsyrk

        def dsyrk(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(estimators, "blas", SimpleNamespace(dsyrk=dsyrk))
        with caplog.at_level(logging.DEBUG, logger="rmtkit.estimators"):
            estimators.student_ml(self.student_input(0), 5.0, tol=3e-5)
        (record,) = [r for r in caplog.records
                     if r.getMessage().startswith("student_ml:")]
        assert record.args["fallbacks"] == 0
        assert len(calls) == (record.args["iterations"] + 1
                              + record.args["secant_steps"])
