import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln, lambertw

from rmtkit import spectra, transforms
from rmtkit.density import SpectralDensity
from rmtkit.transforms import ConvergenceError


class TestMarchenkoPastur:
    def test_edges_analytic(self):
        lo, hi = spectra.mp_edges(0.25)
        assert lo == pytest.approx(0.25)
        assert hi == pytest.approx(2.25)

    def test_density_value_at_one(self):
        # rho(1) = sqrt((hi-1)(1-lo)) / (2 pi q) at q = 0.25
        d = spectra.mp_density(0.25)
        assert d.interpolate(1.0) == pytest.approx(0.6164047, abs=1e-4)

    def test_moments(self):
        d = spectra.mp_density(0.25)
        assert d.mass() == pytest.approx(1.0, abs=1e-6)
        assert d.mean() == pytest.approx(1.0, abs=1e-4)
        assert d.variance() == pytest.approx(0.25, abs=1e-3)

    def test_singular_regime_atom(self):
        # q > 1: rank deficit puts mass 1 - 1/q at zero
        d = spectra.mp_density(2.0)
        assert d.atoms == ((0.0, pytest.approx(0.5)),)
        assert d.continuous_mass() == pytest.approx(0.5, abs=1e-6)
        assert d.mean() == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("q", [1e6, 1e12, 1e20])
    def test_large_q_keeps_unit_mean(self, q):
        # the bulk holds mass 1/q; formed as 1 - (1 - 1/q) it rounds away,
        # and the mean reads 0.99997788 at q = 1e12 and 0 at q = 1e20
        assert spectra.mp_density(q).mean() == pytest.approx(1.0, abs=1e-9)

    def test_unbuildable_grid_raises(self):
        # from about q = 1e22 the bulk's grid cannot ascend in floating point
        with pytest.raises(ValueError, match=r"q = 1e\+22"):
            spectra.mp_density(1e22)

    def test_tiny_q_collapses_to_atom(self):
        d = spectra.mp_density(1e-12)
        assert d.is_atomic
        assert d.atoms[0][0] == pytest.approx(1.0)

    def test_matches_sample_eigenvalues(self):
        rng = np.random.default_rng(3)
        N, T = 400, 1600
        X = rng.standard_normal((T, N))
        eigs = np.linalg.eigvalsh(X.T @ X / T)
        emp = SpectralDensity.from_samples(eigs, nbins=40)
        assert spectra.mp_density(0.25).l1_distance(emp) < 0.1


class TestWigner:
    def test_support_and_variance(self):
        d = spectra.wigner_semicircle(1.0)
        lo, hi = d.support()
        assert lo == pytest.approx(-2.0, abs=1e-3)
        assert hi == pytest.approx(2.0, abs=1e-3)
        assert d.variance() == pytest.approx(1.0, abs=1e-3)

    def test_center_value(self):
        d = spectra.wigner_semicircle(1.0)
        assert d.interpolate(0.0) == pytest.approx(1.0 / np.pi, abs=1e-4)


class TestEwma:
    @pytest.mark.parametrize("q", [0.5, 15.0, 20.0])
    def test_edges_solve_defining_equation(self, q):
        lo, hi = spectra.ewma_edges(q)
        assert 0.0 < lo < 1.0 < hi
        if q == 0.5:
            assert lo == pytest.approx(0.301709562684336, abs=1e-12)
            assert hi == pytest.approx(2.357676673945899, abs=1e-12)
        else:
            # lo is about exp(-(q + 1)), so the residual, about the relative
            # error of lo, is small only if lo is found to relative accuracy
            for lam in (lo, hi):
                assert abs(lam - np.log(lam) - q - 1.0) <= 1e-12

    def test_density_moments(self):
        d = spectra.ewma_density(0.5)
        assert d.mass() == pytest.approx(1.0, abs=1e-6)
        assert d.mean() == pytest.approx(1.0, abs=5e-3)

    def test_narrower_than_mp_at_same_q(self):
        # the exponential window loses less than a flat window of the same
        # effective length: support is strictly inside the MP band edges
        elo, ehi = spectra.ewma_edges(0.5)
        mlo, mhi = spectra.mp_edges(0.5)
        assert elo > mlo
        assert ehi < mhi

    def test_tiny_q_atom(self):
        assert spectra.ewma_density(1e-12).is_atomic

    def test_density_positive_in_band(self):
        d = spectra.ewma_density(0.5)
        assert np.all(d.density[1:-1] > 0)

    @pytest.mark.parametrize("q", [0.01, 0.5, 3.0, 8.0])
    def test_closed_form_moments(self, q):
        # the law has mean 1 and variance q/2; the former Newton solve at
        # eps = 1e-6 span read the mean 2.9e-3 off at q = 8
        d = spectra.ewma_density(q)
        assert abs(d.mean() - 1.0) <= 1e-10
        assert abs(d.variance() / (q / 2) - 1.0) <= 1e-10

    @pytest.mark.parametrize("z", [0.1, 0.2, 3.0, 5.0])
    def test_resolvent_matches_lambert_w(self, z):
        # G(z) = (z + W_k(-z e^(q - z)))/(q z) off the support, on the
        # branch k = 0 below it and k = -1 above it
        q = 0.5
        lo, hi = spectra.ewma_edges(q)
        k = 0 if z < lo else -1
        exact = (z + lambertw(-z * np.exp(q - z), k).real) / (q * z)
        got = transforms.resolvent(spectra.ewma_density(q), z)
        assert abs(got - exact) <= 1e-12 * abs(exact)

    @pytest.mark.parametrize("q", [9.0, 11.0])
    def test_large_q_returns(self, q):
        # the Newton solve raised at both: its mean was 1.00633 at q = 9
        d = spectra.ewma_density(q)
        assert abs(d.mean() - 1.0) <= spectra.EWMA_MEAN_TOL

    def test_unresolved_lower_edge_raises(self):
        # at q = 20 the grid's first step (1.5e-5) is far wider than the
        # lower edge (7.6e-10), and it cannot resolve the 1/lambda pile-up
        # of mass above that edge
        with pytest.raises(ConvergenceError):
            spectra.ewma_density(20.0)
        assert spectra.ewma_density(5.0).mean() == pytest.approx(1.0, abs=5e-3)


class TestDressedSpectrum:
    def test_atom_prior_recovers_mp(self):
        out = spectra.dressed_spectrum(SpectralDensity.atom(1.0), 0.25)
        assert out.l1_distance(spectra.mp_density(0.25)) < 0.02

    def test_powerlaw_prior_keeps_unit_mean(self):
        prior = spectra.powerlaw_prior_density(spectra.PowerLawPrior(0.35))
        out = spectra.dressed_spectrum(prior, 0.25)
        assert out.mass() == pytest.approx(1.0, abs=1e-6)
        assert out.mean() == pytest.approx(prior.mean(), abs=0.02)

    def test_sampling_broadens_the_prior(self):
        prior = spectra.powerlaw_prior_density(spectra.PowerLawPrior(0.35))
        out = spectra.dressed_spectrum(prior, 0.5)
        assert out.variance() > prior.variance()

    def test_q_above_one(self):
        # rank deficit: mass 1 - 1/q sits at zero, and the mean is kept
        prior = spectra.powerlaw_prior_density(spectra.PowerLawPrior(0.35))
        out = spectra.dressed_spectrum(prior, 2.0)
        assert out.atoms == ((0.0, pytest.approx(0.5)),)
        assert out.mean() == pytest.approx(prior.mean(), abs=0.005)

    def test_unconverged_points_raise(self, monkeypatch):
        monkeypatch.setattr(transforms, "MAX_SWEEPS", 2)
        prior = spectra.powerlaw_prior_density(spectra.PowerLawPrior(0.35))
        with pytest.raises(ConvergenceError, match=r"\d+ grid points"):
            spectra.dressed_spectrum(prior, 0.5)


class TestPowerLawPrior:
    def test_mu2_closed_forms(self):
        p = spectra.PowerLawPrior(0.5, mu=2.0)
        assert p.amplitude == pytest.approx(0.25)
        assert p.lambda0 == pytest.approx(0.0)

    def test_ladder_descends(self):
        p = spectra.PowerLawPrior(0.35)
        lam = p.eigenvalue_ladder(500, np.arange(1, 501))
        assert np.all(np.diff(lam) < 0)
        assert lam[-1] >= p.alpha - 1e-9

    def test_density_normalized_near_unit_mean(self):
        d = spectra.powerlaw_prior_density(spectra.PowerLawPrior(0.5))
        assert d.mass() == pytest.approx(1.0, abs=1e-6)
        # the truncated tail carries ~1% of the mean at the default cut
        assert d.mean() == pytest.approx(1.0, abs=0.02)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            spectra.PowerLawPrior(0.0)
        with pytest.raises(ValueError):
            spectra.PowerLawPrior(0.5, mu=1.0)

    def test_alpha_one_degenerates_to_atom(self):
        d = spectra.powerlaw_prior_density(spectra.PowerLawPrior(1.0))
        assert d.is_atomic


# a range check written as x <= c lets NaN through, and one with no upper
# end lets infinity through where no law exists; either failed later, as a
# non-finite density or not at all
@pytest.mark.parametrize("build, message", [
    (lambda: spectra.mp_density(np.nan), "q must be positive"),
    (lambda: spectra.mp_density(np.inf), "q must be positive"),
    (lambda: spectra.ewma_edges(np.nan), "q must be positive"),
    (lambda: spectra.ewma_density(np.nan), "q must be positive"),
    (lambda: spectra.ewma_density(np.inf), "q must be positive"),
    (lambda: spectra.elliptic_student_density(np.nan, 4.0),
     "q must be positive"),
    (lambda: spectra.elliptic_student_density(np.inf, 4.0),
     "q must be positive"),
    (lambda: spectra.elliptic_student_density(0.5, np.nan),
     "mu must exceed 2"),
    (lambda: spectra.PowerLawPrior(0.35, np.nan), "mu must be finite"),
    (lambda: spectra.PowerLawPrior(0.35, np.inf), "mu must be finite"),
], ids=["mp-nan", "mp-inf", "ewma_edges-nan", "ewma-nan", "ewma-inf",
        "elliptic-q-nan", "elliptic-q-inf", "elliptic-mu-nan",
        "prior-mu-nan", "prior-mu-inf"])
def test_non_finite_parameter_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestEllipticStudent:
    def test_mean_matches_volatility_mixture(self):
        # E[sigma^2] = mu/(mu-2) for the inverse-chi-squared volatility
        for mu in (3.0, 6.0):
            d = spectra.elliptic_student_density(0.25, mu)
            assert d.mean() == pytest.approx(mu / (mu - 2.0), rel=0.03)

    def test_large_mu_approaches_mp(self):
        d = spectra.elliptic_student_density(0.25, 1e6)
        assert d.l1_distance(spectra.mp_density(0.25)) < 0.02

    def test_tail_exponent(self):
        d = spectra.elliptic_student_density(0.5, 4.0)
        mask = (d.grid > 30.0) & (d.grid < 300.0) & (d.density > 0)
        slope = np.polyfit(np.log(d.grid[mask]), np.log(d.density[mask]), 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.15)

    def test_parameter_validation(self):
        # q = N/T in (0, 1): at q >= 1 the spectrum has an atom at zero
        for q in (0.0, 1.0, 1.5, np.nan):
            with pytest.raises(ValueError, match="q must be positive"):
                spectra.elliptic_student_density(q, 4.0)
        for mu in (2.0, np.nan):
            with pytest.raises(ValueError, match="mu must exceed 2"):
                spectra.elliptic_student_density(0.5, mu)

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9])
    @pytest.mark.parametrize("mu", [4.0, 10.0])
    def test_mean_is_exact(self, q, mu):
        # the part of the mean beyond lam_max = 1000 is below 0.2% of it here
        d = spectra.elliptic_student_density(q, mu)
        assert d.mean() == pytest.approx(mu / (mu - 2.0), rel=1e-2)

    @pytest.mark.parametrize("q, mu", [(0.25, 2.5), (0.75, 3.0)])
    def test_heaviest_tails_return(self, q, mu):
        d = spectra.elliptic_student_density(q, mu)
        assert np.all(np.isfinite(d.density))
        assert d.mass() == pytest.approx(1.0, abs=1e-6)

    def test_bulk_matches_monte_carlo(self):
        # E = (1/T) sum_t d_t xi_t xi_t^T, d_t = mu/s_t, s_t ~ chi2(mu); over
        # six seeds the mass of every bin lies within 1.6e-3 of the density's
        q, mu, N, T, draws = 0.5, 4.0, 400, 800, 50
        rng = np.random.default_rng(0)
        eigs = []
        for _ in range(draws):
            X = rng.standard_normal((T, N))
            d = mu / rng.chisquare(mu, size=T)
            eigs.append(np.linalg.eigvalsh((X.T * d) @ X / T))
        edges = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0])
        sample = np.histogram(np.concatenate(eigs), edges)[0] / (N * draws)
        dens = spectra.elliptic_student_density(q, mu)
        mass = np.diff([dens.cdf(e) for e in edges])
        assert np.abs(mass - sample).max() < 2.5e-3

    @pytest.mark.parametrize("q, mu, lam", [
        (0.5, 4.0, 20.0), (0.5, 4.0, 50.0), (0.5, 4.0, 200.0),
        (0.25, 2.5, 50.0), (0.25, 2.5, 200.0)])
    def test_tail_matches_adaptive_quadrature(self, q, mu, lam):
        # the tail's fixed pole-subtracted quadrature against adaptive quad:
        # PV R(g) = mu int P(s)/(s - x) ds with x = q mu g, R' by central
        # differences, g from lambda = 1/g + PV R(g) by brentq
        k = mu / 2.0

        def P(s):
            return np.exp((k - 1.0) * np.log(s) - 0.5 * s - gammaln(k)
                          - k * np.log(2.0))

        def pv_r(g):
            x = q * mu * g
            inner = quad(lambda s: (P(s) - P(x)) / (s - x), 0.0, 2.0 * x,
                         points=[x], limit=200)[0]
            outer = quad(lambda s: P(s) / (s - x), 2.0 * x, np.inf,
                         limit=200)[0]
            return mu * (inner + outer)

        g = brentq(lambda g: 1.0 / g + pv_r(g) - lam, 0.5 / lam, 2.0 / lam,
                   xtol=1e-15)
        h = 1e-4 * g
        rp = (pv_r(g + h) - pv_r(g - h)) / (2.0 * h)
        rho = mu * P(q * mu * g) * g * g / (1.0 - g * g * rp)
        d = spectra.elliptic_student_density(q, mu)
        assert d.interpolate(lam) == pytest.approx(rho, rel=1e-3)

    def test_splice_is_continuous(self):
        # the bulk's grid is finer than the tail's, so the splice is where
        # the step grows most; the tail, extrapolated back along its own
        # log-log slope to the last bulk point, must meet the bulk there
        d = spectra.elliptic_student_density(0.5, 4.0)
        x, r = d.grid, d.density
        step = np.diff(x)
        i = int(np.argmax(step[1:] / step[:-1])) + 1
        slope = np.log(r[i + 2] / r[i + 1]) / np.log(x[i + 2] / x[i + 1])
        tail = r[i + 1] * (x[i] / x[i + 1]) ** slope
        assert tail == pytest.approx(r[i], rel=0.02)


class TestRsvdBenchmark:
    def test_symmetric_band(self):
        # n = m: gamma- = 0, gamma+ = 4 n (1 - n)
        lo, hi = spectra.rsvd_band(0.25, 0.25)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(2.0 * np.sqrt(0.25 * 0.75))

    @pytest.mark.parametrize("n, m", [(0.0, 0.1), (0.1, 1.0), (1.2, 0.1)])
    def test_ratios_must_lie_in_the_unit_interval(self, n, m):
        with pytest.raises(ValueError, match="must lie in"):
            spectra.rsvd_benchmark(n, m)

    def test_density_masses(self):
        n, m = 0.125, 0.085
        d = spectra.rsvd_benchmark(n, m)
        assert d.mass() == pytest.approx(1.0, abs=1e-6)
        assert d.atom_mass() == pytest.approx(1.0 - min(n, m), abs=1e-6)
        assert d.continuous_mass() == pytest.approx(min(n, m), abs=1e-6)

    def test_unit_atom_counts_shared_directions(self):
        # two demeaned panels span N and M directions of the T - 1 left
        # orthogonal to the constant, so they share N + M - T + 1: each is
        # a unit singular value of the whitened cross matrix (the cosine of
        # a zero principal angle).  The atom at 1 carries (N + M - T) / T,
        # one direction fewer: the demeaning's.
        rng = np.random.default_rng(12)
        T, N, M = 200, 130, 110
        X, Y = rng.standard_normal((T, N)), rng.standard_normal((T, M))
        qx = np.linalg.qr(X - X.mean(axis=0))[0]
        qy = np.linalg.qr(Y - Y.mean(axis=0))[0]
        cosines = np.linalg.svd(qy.T @ qx, compute_uv=False)
        shared = int(np.sum(cosines > 1.0 - 1e-10))
        assert shared == N + M - T + 1
        atoms = dict(spectra.rsvd_benchmark(N / T, M / T).atoms)
        assert atoms[1.0] * T == pytest.approx(shared - 1, rel=1e-12)

    def test_matches_sampled_singular_values(self):
        rng = np.random.default_rng(11)
        T, N, M = 2000, 250, 170
        X, Y = rng.standard_normal((T, N)), rng.standard_normal((T, M))

        def whiten(A):
            E = A.T @ A / T
            vals, vecs = np.linalg.eigh(E)
            return A @ vecs / np.sqrt(vals)

        s = np.linalg.svd(whiten(Y).T @ whiten(X) / T, compute_uv=False)
        lo, hi = spectra.rsvd_band(N / T, M / T)
        assert s.max() < hi + 5 * min(N, M) ** (-2.0 / 3.0)
        assert s.min() > lo - 0.02
