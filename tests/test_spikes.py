import numpy as np
import pytest

from conftest import spiked_correlation

from rmtkit import spikes, synth
from rmtkit.estimators import CorrelationMatrix, pearson, standardize


class TestEdgeScaling:
    def test_mp_edge_values(self):
        e = spikes.edge_scaling_mp(0.25, 500)
        assert e.lambda_plus == pytest.approx(2.25)
        assert e.gamma == pytest.approx(0.5 * 2.25 ** (2.0 / 3.0))
        assert e.scale == pytest.approx(e.gamma * 500 ** (-2.0 / 3.0))
        assert e.threshold(3.0) == pytest.approx(2.25 + 3.0 * e.scale)

    # one rule for the constructor and a direct EdgeScaling: N >= 1
    @pytest.mark.parametrize("make", [
        lambda N: spikes.edge_scaling_mp(0.25, N),
        lambda N: spikes.EdgeScaling(2.0, 1.0, N)],
        ids=["mp", "direct"])
    @pytest.mark.parametrize("N", [0, -8])
    def test_rejects_non_positive_N(self, make, N):
        with pytest.raises(ValueError, match="N must be positive"):
            make(N)


class TestBbpMap:
    def test_detached_location(self):
        # Lambda = 4, q = 0.5: lambda = 4 + 4*0.5/3
        assert spikes.bbp_map_mp(4.0, 0.5) == pytest.approx(4.0 + 2.0 / 3.0)

    def test_sticks_below_threshold(self):
        q = 0.25
        assert spikes.bbp_map_mp(1.2, q) == pytest.approx((1 + np.sqrt(q)) ** 2)

    def test_inverse_round_trip(self):
        for Lam in (2.0, 3.5, 10.0):
            lam = spikes.bbp_map_mp(Lam, 0.25)
            assert spikes.invert_spike_mp(lam, 0.25) == pytest.approx(Lam,
                                                                      rel=1e-12)

    def test_invert_rejects_bulk(self):
        with pytest.raises(ValueError, match="inside the bulk"):
            spikes.invert_spike_mp(2.0, 0.25)

    @pytest.mark.parametrize("q", [0.0, -1.0])
    def test_invert_rejects_non_positive_q(self, q):
        # as its inverse bbp_map_mp does
        with pytest.raises(ValueError, match="q must be positive"):
            spikes.invert_spike_mp(3.0, q)

    def test_matches_simulation(self):
        # sample top eigenvalue concentrates on the mapped location
        rng = np.random.default_rng(12)
        N, T, Lam = 400, 800, 4.0
        q = N / T
        C = spiked_correlation(N, (Lam,), seed=0)
        tops = []
        for seed in range(4):
            panel = standardize(synth.gaussian_panel(C, T, seed))
            tops.append(pearson(panel).eigenvalues[0])
        expected = spikes.bbp_map_mp(Lam, q)
        assert np.mean(tops) == pytest.approx(expected, rel=0.05)


# a range check written as x <= c lets NaN through
@pytest.mark.parametrize("call", [
    lambda: spikes.edge_scaling_mp(np.nan, 100),
    lambda: spikes.edge_scaling_mp(np.inf, 100),
    lambda: spikes.EdgeScaling(4.0, np.nan, 100),
    lambda: spikes.EdgeScaling(4.0, np.inf, 100),
    lambda: spikes.bbp_map_mp(np.nan, 0.5),
    lambda: spikes.bbp_map_mp(np.inf, 0.5),
    lambda: spikes.bbp_map_mp(3.0, np.nan),
    lambda: spikes.invert_spike_mp(5.0, np.nan),
    lambda: spikes.invert_spike_mp(np.nan, 0.5),
    lambda: spikes.invert_spike_mp(np.inf, 0.5),
], ids=["edge-q-nan", "edge-q-inf", "gamma-nan", "gamma-inf", "bbp-nan",
        "bbp-inf", "bbp-q-nan", "invert-q-nan", "invert-nan", "invert-inf"])
def test_non_finite_parameter_rejected(call):
    with pytest.raises(ValueError):
        call()


class TestDetector:
    def test_finds_planted_spike(self):
        N, T = 300, 900
        C = spiked_correlation(N, (8.0, 5.0), seed=3)
        panel = standardize(synth.gaussian_panel(C, T, seed=4))
        report = spikes.detect_spikes(pearson(panel), N / T)
        assert len(report.outliers) == 2
        implied = sorted(o.implied_spike for o in report.outliers)
        assert implied[0] == pytest.approx(5.0, rel=0.15)
        assert implied[1] == pytest.approx(8.0, rel=0.15)
        # the overlap is the spiked-covariance closed form, read at the
        # implied spike
        q = N / T
        for o in report.outliers:
            d = o.implied_spike - 1.0
            assert o.overlap_estimate == pytest.approx(
                (1.0 - q / d ** 2) / (1.0 + q / d), rel=1e-14)

    def test_overlap_estimate_matches_measured_overlap(self):
        # the squared overlap of the sample and true top eigenvectors,
        # averaged over four panels: the closed form reads 0.81 at
        # Lambda = 4, q = 1/2, where the Wigner formula reads 0.94
        N, T = 400, 800
        C = spiked_correlation(N, (4.0,), seed=0)
        v1 = np.linalg.eigh(C.values)[1][:, -1]
        measured, reported = [], []
        for seed in range(4):
            E = pearson(standardize(synth.gaussian_panel(C, T, seed=seed)))
            measured.append((np.linalg.eigh(E.values)[1][:, -1] @ v1) ** 2)
            [o] = spikes.detect_spikes(E, N / T).outliers
            reported.append(o.overlap_estimate)
        assert np.mean(reported) == pytest.approx(np.mean(measured), abs=0.03)

    def test_report_matches_eigh_based_one(self):
        N, T = 300, 900
        C = spiked_correlation(N, (8.0, 5.0), seed=3)
        E = pearson(standardize(synth.gaussian_panel(C, T, seed=4)))
        ours = spikes.detect_spikes(E, N / T).to_text()
        assert "_eig" not in E.__dict__  # eigenvalues only, no eigenvectors
        # a matrix held as eigenpairs reports eigh's eigenvalues
        held = E.with_spectrum(E.eigenvalues)
        assert spikes.detect_spikes(held, N / T).to_text() == ours
        assert ours.count("outlier rank=") == 2

    def test_null_matrix_clean(self):
        rng = np.random.default_rng(7)
        panel = standardize(
            synth.gaussian_panel(synth.constant_correlation(200, 0.0), 800,
                                 seed=7))
        report = spikes.detect_spikes(pearson(panel), 0.25)
        assert report.outliers == ()
        assert "no outliers" in report.to_text()

    @pytest.mark.parametrize("u", [np.nan, np.inf])
    def test_non_finite_threshold_rejected(self, u):
        # a NaN threshold flagged every eigenvalue, and the first bulk one
        # then raised "inside the bulk"
        E = CorrelationMatrix(np.eye(10))
        with pytest.raises(ValueError, match="u_threshold must be finite"):
            spikes.detect_spikes(E, 0.25, u_threshold=u)

    def test_report_text_format(self):
        C = spiked_correlation(200, (10.0,), seed=5)
        panel = standardize(synth.gaussian_panel(C, 800, seed=6))
        text = spikes.detect_spikes(pearson(panel), 0.25).to_text()
        assert "outlier rank=1" in text
        assert "spiked-covariance formula" in text
