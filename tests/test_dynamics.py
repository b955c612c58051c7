import numpy as np
import pytest

from conftest import spiked_correlation

from rmtkit import dynamics, fileio, synth
from rmtkit.estimators import ReturnPanel


@pytest.fixture(scope="module")
def spiked_track():
    C = spiked_correlation(50, (10.0,), seed=0)
    panel = synth.gaussian_panel(C, 3000, seed=1)
    v_ref = C.eigenvectors[:, 0]
    return dynamics.track_top(panel, 0.02, v_ref), C


@pytest.fixture(scope="module")
def two_level_track():
    # population covariance diag(10, 1): the exact setting of the stationary
    # angle/variogram formulas (one spike, one transverse mode)
    rng = np.random.default_rng(7)
    returns = rng.standard_normal((60000, 2)) * np.sqrt([10.0, 1.0])
    panel = ReturnPanel(returns)
    track = dynamics.track_top(panel, 0.02, np.array([1.0, 0.0]),
                               e_init=np.diag([10.0, 1.0]))
    return track


class TestTrackTop:
    def test_shapes_and_alignment(self, spiked_track):
        track, C = spiked_track
        assert track.lambda1.shape == (3000,)
        assert track.v1.shape == (3000, 50)
        # consecutive eigenvectors are sign-aligned: no jumps near pi
        flips = np.sum(np.einsum("ij,ij->i", track.v1[1:], track.v1[:-1]) < 0)
        assert flips == 0

    def test_tracks_the_spike(self, spiked_track):
        track, C = spiked_track
        settled = track.lambda1[500:]
        assert np.mean(settled) == pytest.approx(10.0, rel=0.15)
        # the tracked direction is defined up to sign, so fold the angle
        folded = np.minimum(track.theta[500:], np.pi - track.theta[500:])
        assert np.mean(folded) < 0.5

    def test_theta_none_without_v_ref(self, spiked_track):
        track, C = spiked_track
        bare = dynamics.track_top(synth.gaussian_panel(C, 3000, seed=1), 0.02)
        assert bare.theta is None
        np.testing.assert_array_equal(bare.lambda1, track.lambda1)
        np.testing.assert_array_equal(bare.v1, track.v1)

    @pytest.mark.parametrize("N", [2, 20], ids=["stacked", "per-step"])
    def test_theta_is_the_angle_to_v_ref(self, N):
        # v_ref need not be a unit vector: cos theta = v . v_ref / |v_ref|
        p = ReturnPanel(np.random.default_rng(3).standard_normal((500, N)))
        v_ref = np.arange(1.0, N + 1)
        track = dynamics.track_top(p, 0.02, v_ref)
        np.testing.assert_allclose(np.cos(track.theta),
                                   track.v1 @ v_ref / np.linalg.norm(v_ref),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("epsilon, v_ref, e_init", [
        (1.5, np.ones(4), None),
        (0.02, np.ones(3), None),
        (0.02, np.zeros(4), None),
        (0.02, np.array([1.0, np.nan, 0.0, 0.0]), None),
        (0.02, np.ones(4), np.eye(3)),
        (0.02, np.ones(4), np.diag([1.0, np.inf, 1.0, 1.0])),
        (0.02, np.ones(4), np.triu(np.ones((4, 4)))),
    ], ids=["epsilon", "v_ref-length", "v_ref-zero", "v_ref-nan",
            "e_init-shape", "e_init-inf", "e_init-asymmetric"])
    def test_epsilon_validation(self, epsilon, v_ref, e_init):
        p = ReturnPanel(np.random.default_rng(0).standard_normal((10, 4)))
        with pytest.raises(ValueError):
            dynamics.track_top(p, epsilon, v_ref, e_init=e_init)


class TestStationaryAngleDensity:
    def test_normalized(self):
        th = np.linspace(0, np.pi, 4001)
        p = dynamics.stationary_angle_density(10.0, 1.0, 0.02, th)
        assert np.trapezoid(p, th) == pytest.approx(1.0, abs=1e-3)

    def test_concentrates_for_strong_spike(self):
        th = np.linspace(0, np.pi, 4001)
        strong = dynamics.stationary_angle_density(50.0, 1.0, 0.01, th)
        weak = dynamics.stationary_angle_density(2.0, 1.0, 0.01, th)
        # stronger separation pulls the mass towards theta = 0 (and pi)
        near0 = th < 0.3
        assert np.trapezoid(strong[near0], th[near0]) > np.trapezoid(
            weak[near0], th[near0])

    def test_parameter_validation(self):
        th = np.linspace(0, np.pi, 101)
        with pytest.raises(ValueError):
            dynamics.stationary_angle_density(1.0, 2.0, 0.02, th)
        for eps in (0.0, 1.0, np.nan):
            with pytest.raises(ValueError, match="epsilon must lie"):
                dynamics.stationary_angle_density(10.0, 1.0, eps, th)

    def test_symmetric_under_theta_to_pi_minus_theta(self):
        th = np.linspace(0, np.pi, 4001)
        p = dynamics.stationary_angle_density(10.0, 1.0, 0.02, th)
        assert np.allclose(p, p[::-1], rtol=1e-10, atol=1e-12)

    def test_default_width_matches_tracker_statistics(self):
        # the default parameterization matches the density's log-curvature
        # at theta = 0 to the stationary angle variance of the tracker,
        # eps L1 Lb / (2 (L1 - Lb)^2)
        L1, Lb, eps = 10.0, 1.0, 0.02
        h = 1e-3
        th = np.array([0.0, h, 2 * h])
        lp = np.log(dynamics.stationary_angle_density(L1, Lb, eps, th))
        curvature = (lp[0] - 2 * lp[1] + lp[2]) / h ** 2
        var = eps * L1 * Lb / (2 * (L1 - Lb) ** 2)
        assert curvature == pytest.approx(-1.0 / var, rel=1e-3)

    # the angle's spread, about sqrt(eps Lb / (2 L1)), is 1e-5 rad at
    # L1 = 1e8: a fixed grid over [0, pi] took 0.16 of the mass for 1
    @pytest.mark.parametrize("L1", [1e1, 1e2, 1e4, 1e6, 1e8])
    def test_normalized_at_any_separation(self, L1):
        half = np.concatenate([[0.0], np.geomspace(1e-13, np.pi / 2, 100001)])
        th = np.concatenate([half, np.pi - half[-2::-1]])
        p = dynamics.stationary_angle_density(L1, 1.0, 0.02, th)
        assert np.trapezoid(p, th) == pytest.approx(1.0, abs=1e-6)

    @staticmethod
    def half_grid(n, lo):
        """[0, pi/2], geometric from ``lo`` toward 0 and from 1e-15 toward
        pi/2, n points each."""
        a = np.geomspace(lo, np.pi / 4, n)
        b = np.geomspace(1e-15, np.pi / 4, n)
        return np.concatenate([[0.0], a, (np.pi / 2 - b)[-2::-1],
                               [np.pi / 2]])

    # the density dips at pi/2 with a width of about sqrt(Lb / (2 L1)),
    # 7e-5 rad at L1 = 1e8; a normalization grid geometric toward 0 alone
    # took 1 + 2.6e-6 there at eps = 0.99
    @pytest.mark.parametrize("eps", [0.02, 0.99])
    @pytest.mark.parametrize("L1", [1e1, 1e4, 1e8])
    def test_normalized_with_the_dip_resolved(self, eps, L1):
        half = self.half_grid(100001, 1e-13)
        th = np.concatenate([half, np.pi - half[-2::-1]])
        p = dynamics.stationary_angle_density(L1, 1.0, eps, th)
        assert np.trapezoid(p, th) == pytest.approx(1.0, abs=1e-6)

    # (L1 - Lb)^2 overflowed at 1e300.  The peak at pi is 1e-151 rad wide,
    # below the float spacing there, so the mass is read on [0, pi/2], about
    # which the density is symmetric
    @pytest.mark.parametrize("eps", [0.02, 0.99])
    def test_finite_and_normalized_at_1e300(self, eps):
        half = self.half_grid(400001, 1e-160)
        p = dynamics.stationary_angle_density(1e300, 1.0, eps, half)
        assert np.all(np.isfinite(p))
        assert 2 * np.trapezoid(p, half) == pytest.approx(1.0, abs=1e-6)

    # where 2 L1/Lb overflows, the density at 0 took log(0); each pair's
    # neighbour below the overflow still has a finite density
    @pytest.mark.parametrize("over, under", [
        ((9e307, 1.0), (8.9e307, 1.0)), ((1e300, 1e-8), (1e300, 1e-7))])
    def test_overflowing_ratio_raises(self, over, under):
        th = np.linspace(0, np.pi, 101)
        with pytest.raises(ValueError, match="Lambda1/Lambda_b"):
            dynamics.stationary_angle_density(*over, 0.02, th)
        p = dynamics.stationary_angle_density(*under, 0.02, th)
        assert np.all(np.isfinite(p))

    def test_finite_where_the_ratio_rounds_off(self):
        # 1 - Lb/L1 rounds to 1 at L1 = 1e17, which made a numerator of 0
        th = np.linspace(0, np.pi, 101)
        p = dynamics.stationary_angle_density(1e17, 1.0, 0.02, th)
        assert np.all(np.isfinite(p)) and np.all(p >= 0) and p[0] > 0


class TestVariograms:
    def test_theoretical_limits(self):
        tau = np.array([1.0, 10.0, 1e9])
        val, vec = dynamics.theoretical_variograms(10.0, 1.0, 0.02, tau)
        # saturation levels 2 eps Lambda1^2 and
        # eps Lambda1 Lambda_b / (Lambda1 - Lambda_b)^2
        assert val[-1] == pytest.approx(2 * 0.02 * 100.0)
        assert vec[-1] == pytest.approx(0.02 * 10.0 * 1.0 / 81.0)
        assert np.all(np.diff(val) > 0)
        with pytest.raises(ValueError):
            dynamics.theoretical_variograms(1.0, 1.0, 0.02, tau)

    def test_empirical_matches_theory(self, two_level_track):
        track = two_level_track
        tau = np.array([1, 2, 5, 10, 20, 50])
        val, vec = dynamics.empirical_variogram(track, tau)
        tval, tvec = dynamics.theoretical_variograms(10.0, 1.0, 0.02, tau)
        # both variograms follow theory closely, in relaxation rate and level
        assert np.all(np.abs(np.log(val / tval)) < np.log(1.5))
        assert np.all(np.abs(np.log(vec / tvec)) < np.log(1.5))

    def test_vector_asymptote_matches_angle_variance(self, two_level_track):
        # saturation level of the eigenvector variogram is twice the
        # stationary angle variance: 2 * eps L1 Lb / (2 (L1 - Lb)^2)
        track = two_level_track
        val, vec = dynamics.empirical_variogram(track, [300])
        L1, Lb, eps = 10.0, 1.0, 0.02
        expected = eps * L1 * Lb / (L1 - Lb) ** 2
        assert vec[0] == pytest.approx(expected, rel=0.15)
        assert val[0] == pytest.approx(2 * eps * L1 ** 2, rel=0.15)

    def test_empirical_uses_all_pairs(self):
        # lags beyond the correlation time 1/eps = 50 average over every
        # one of the T - tau pairs, like the short lags
        rng = np.random.default_rng(3)
        T = 400
        phi = rng.uniform(0.0, np.pi, T)
        v1 = np.column_stack([np.cos(phi), np.sin(phi)])
        lam = rng.standard_normal(T)
        track = dynamics.EigenTrack(lam, v1, phi)
        tau = [1, 120, 399]
        val, vec = dynamics.empirical_variogram(track, tau)
        for i, t in enumerate(tau):
            pairs = [(s, s + t) for s in range(T - t)]
            assert val[i] == pytest.approx(
                np.mean([(lam[b] - lam[a]) ** 2 for a, b in pairs]))
            assert vec[i] == pytest.approx(np.mean(
                [2 - 2 * abs(np.cos(phi[b] - phi[a])) for a, b in pairs]))

    @pytest.mark.parametrize("epsilon", [0.0, np.nan])
    def test_theoretical_parameter_validation(self, epsilon):
        with pytest.raises(ValueError, match="epsilon > 0"):
            dynamics.theoretical_variograms(4.0, 1.0, epsilon, [1, 10])

    def test_non_positive_lag_left_zero(self, spiked_track):
        track, _ = spiked_track
        val, vec = dynamics.empirical_variogram(track, [0, -3, 5])
        assert val[0] == val[1] == vec[0] == vec[1] == 0.0
        assert val[2] > 0 and vec[2] > 0

    def test_lag_validation(self, spiked_track):
        track, _ = spiked_track
        with pytest.raises(ValueError, match="exceeds"):
            dynamics.empirical_variogram(track, [5000])

    def test_csv_output(self, tmp_path):
        path = tmp_path / "v.csv"
        fileio.write_table(path, ["tau", "value", "vector"],
                           [np.column_stack([[1, 2], [0.1, 0.2], [0.3, 0.4]])],
                           ["epsilon=0.02"])
        text = path.read_text()
        assert text.startswith("# epsilon=0.02\n")
        assert "tau,value,vector" in text
        assert "2,0.2,0.4" in text
