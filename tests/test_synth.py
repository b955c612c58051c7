import numpy as np
import pytest

from rmtkit import synth


class TestSeeding:
    def test_same_seed_same_panel(self):
        C = synth.constant_correlation(10, 0.0)
        a = synth.gaussian_panel(C, 20, seed=42)
        b = synth.gaussian_panel(C, 20, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        C = synth.constant_correlation(10, 0.0)
        a = synth.gaussian_panel(C, 20, seed=1)
        b = synth.gaussian_panel(C, 20, seed=2)
        assert not np.array_equal(a.values, b.values)


class TestHaarRotation:
    def test_orthogonal(self):
        O = synth.haar_rotation(30, seed=0)
        assert np.allclose(O @ O.T, np.eye(30), atol=1e-12)

    def test_column_sign_convention_removes_qr_bias(self):
        # the mean diagonal of a sign-fixed QR rotation is near zero
        diags = [np.mean(np.diag(synth.haar_rotation(20, s)))
                 for s in range(50)]
        assert abs(np.mean(diags)) < 0.1


class TestTrueCorrelation:
    def test_identity(self):
        # rho = 0 gives np.eye's bits, so the identity needs no builder
        for N in (1, 5, 64):
            C = synth.constant_correlation(N, 0.0)
            assert C.values.tobytes() == np.eye(N).tobytes()

    def test_market_mode_top_eigenvalue(self):
        C = synth.constant_correlation(100, 0.3)
        assert C.eigenvalues[0] == pytest.approx(1 + 99 * 0.3)
        assert np.allclose(np.diag(C.values), 1.0)

    def test_powerlaw_unit_trace_density(self):
        C = synth.powerlaw_correlation(200, 0.35, 2)
        assert np.trace(C.values) / 200 == pytest.approx(1.0, abs=0.1)
        assert C.eigenvalues[-1] >= 0.0

    # a dict with alpha holds powerlaw_correlation's arguments, any other
    # constant_correlation's
    @pytest.mark.parametrize("kwargs, match", [
        (dict(N=0, rho=0.0), "N must be positive"),
        (dict(N=5, rho=1.0), "rho"),
        (dict(N=5, rho=-0.1), "rho"),
        (dict(N=5, alpha=0.0, seed=0), "alpha"),
        (dict(N=5, alpha=1.5, seed=0), "alpha"),
        (dict(N=-1, rho=0.3), "N must be positive"),
        (dict(N=5, rho=np.nan), "rho"),
        (dict(N=0, alpha=0.35, seed=0), "N must be positive"),
    ])
    def test_spec_validation(self, kwargs, match):
        build = (synth.powerlaw_correlation if "alpha" in kwargs
                 else synth.constant_correlation)
        with pytest.raises(ValueError, match=match):
            build(**kwargs)

    def test_haar_rotation_needs_a_positive_size(self):
        with pytest.raises(ValueError, match="N must be positive"):
            synth.haar_rotation(0, seed=0)


class TestPanels:
    def test_gaussian_panel_covariance(self):
        C = synth.constant_correlation(30, 0.4)
        panel = synth.gaussian_panel(C, 20000, seed=3)
        emp = panel.values.T @ panel.values / panel.T
        assert np.max(np.abs(emp - C.values)) < 0.05

    def test_gaussian_panel_needs_two_rows(self):
        C = synth.constant_correlation(5, 0.0)
        with pytest.raises(ValueError, match="at least 2"):
            synth.gaussian_panel(C, 1, seed=0)
        assert synth.gaussian_panel(C, 2, seed=0).T == 2

    def test_student_panel_standardized(self):
        C = synth.constant_correlation(20, 0.0)
        panel = synth.student_panel(C, 5.0, 500, seed=4)
        np.testing.assert_allclose(panel.values.mean(axis=0), 0.0, rtol=0,
                                   atol=1e-10)
        np.testing.assert_allclose(panel.values.var(axis=0), 1.0, rtol=0,
                                   atol=1e-10)

    def test_student_panel_heavy_tails(self):
        C = synth.constant_correlation(10, 0.0)
        student = synth.student_panel(C, 3.0, 20000, seed=5)
        gauss = synth.gaussian_panel(C, 20000, seed=5)
        k_student = np.mean(student.values ** 4)
        k_gauss = np.mean(gauss.values ** 4)
        assert k_student > 2.0 * k_gauss

    def test_student_mu_validation(self):
        C = synth.constant_correlation(5, 0.0)
        with pytest.raises(ValueError):
            synth.student_panel(C, 2.0, 100, seed=0)
        for mu in (np.nan, np.inf):
            with pytest.raises(ValueError, match="mu must be finite"):
                synth.student_panel(C, mu, 100, seed=0)

    def test_student_panel_needs_two_rows(self):
        C = synth.constant_correlation(5, 0.0)
        with pytest.raises(ValueError, match="at least 2"):
            synth.student_panel(C, 5.0, 1, seed=0)


class TestWickCheck:
    # the diagonal of the elliptic Wick relation: a standardized column has
    # E r^4 = 3 (mu-2)/(mu-4), which is 4 at mu = 10; there the eighth
    # moment is finite, so the pooled estimate converges at the 1/sqrt(T)
    # rate (sd 0.048 over seeds 0-99 at this size, largest deviation 0.123)
    def test_student_needs_elliptic_prefactor(self):
        C = synth.constant_correlation(20, 0.0)
        panel = synth.student_panel(C, 10.0, 20000, seed=7)
        assert np.mean(panel.values ** 4) == pytest.approx(4.0, abs=0.25)


class TestRowBlocks:
    # the panels are drawn and multiplied by C^{1/2} BLOCK_ROWS rows at a
    # time; the stream is read as by one (T, N) draw.  At N = 300 OpenBLAS
    # rounds some rows of a product differently with its number of rows
    C = synth.constant_correlation(300, 0.3)
    B = synth.BLOCK_ROWS

    @staticmethod
    def _one_shot(C, T, seed):
        X = np.random.default_rng(seed).standard_normal((T, C.N))
        return X, X @ C.sqrt()

    @staticmethod
    def _rounding_bound(C, X):
        # the rounding of an N-term dot product: N eps (|X| @ |C^{1/2}|)
        return C.N * np.finfo(float).eps * (np.abs(X) @ np.abs(C.sqrt()))

    @pytest.mark.parametrize("T", [2, 37, B])
    def test_one_block_is_the_one_shot_product(self, T):
        _, ref = self._one_shot(self.C, T, 11)
        got = synth.gaussian_panel(self.C, T, 11).values
        assert got.tobytes() == ref.tobytes()

    def test_blocks_within_rounding_of_one_shot(self):
        T = 3 * self.B + 77
        X, ref = self._one_shot(self.C, T, 12)
        got = synth.gaussian_panel(self.C, T, 12).values
        assert np.all(np.abs(got - ref) <= self._rounding_bound(self.C, X))

    @pytest.mark.parametrize("k", [B, 2 * B, 3 * B])
    def test_leading_blocks_are_the_shorter_panel(self, k):
        full = synth.gaussian_panel(self.C, 3 * self.B + 77, 13).values
        assert (full[:k].tobytes()
                == synth.gaussian_panel(self.C, k, 13).values.tobytes())

    def test_student_reads_normals_then_chi_squares(self):
        mu, T = 5.0, 2 * self.B + 31
        rng = np.random.default_rng(14)
        X = rng.standard_normal((T, self.C.N))
        scale = np.sqrt(mu / rng.chisquare(mu, size=T))[:, None]
        r = (X @ self.C.sqrt()) * scale
        ref = (r - r.mean(axis=0)) / r.std(axis=0)
        got = synth.student_panel(self.C, mu, T, 14).values
        # the products' rounding, carried through the scaling and the
        # standardization (a shift of each column's mean and spread), plus
        # a few eps of the standardization's own rounding
        d = self._rounding_bound(self.C, X) * scale
        bound = ((d + d.mean(axis=0) + 2 * np.abs(ref) * d.max(axis=0))
                 / r.std(axis=0) + 8 * np.finfo(float).eps * (1 + np.abs(ref)))
        assert np.all(np.abs(got - ref) <= bound)
