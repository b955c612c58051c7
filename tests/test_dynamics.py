import numpy as np
import pytest

from rmtkit import dynamics, fileio, synth
from rmtkit.estimators import ReturnPanel


@pytest.fixture(scope="module")
def spiked_track():
    C = synth.build_true_correlation(
        synth.TrueCorrelationSpec("multi_spike", 50, spikes=(10.0,)), seed=0)
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

    def test_explicit_lambda0_can_be_non_integrable(self):
        th = np.linspace(0, np.pi, 101)
        with pytest.raises(ValueError, match="non-integrable"):
            dynamics.stationary_angle_density(10.0, 1.0, 0.02, th,
                                              Lambda0=1.0)


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
        track = dynamics.EigenTrack(np.arange(T), lam, v1, phi, 0.02)
        tau = [1, 120, 399]
        val, vec = dynamics.empirical_variogram(track, tau)
        for i, t in enumerate(tau):
            pairs = [(s, s + t) for s in range(T - t)]
            assert val[i] == pytest.approx(
                np.mean([(lam[b] - lam[a]) ** 2 for a, b in pairs]))
            assert vec[i] == pytest.approx(np.mean(
                [2 - 2 * abs(np.cos(phi[b] - phi[a])) for a, b in pairs]))

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
