import numpy as np
import pytest

from rmtkit import spikes, synth
from rmtkit.estimators import pearson, standardize


class TestEdgeScaling:
    def test_mp_edge_values(self):
        e = spikes.edge_scaling_mp(0.25, 500)
        assert e.lambda_plus == pytest.approx(2.25)
        assert e.gamma == pytest.approx(0.5 * 2.25 ** (2.0 / 3.0))
        assert e.scale == pytest.approx(e.gamma * 500 ** (-2.0 / 3.0))

    def test_wigner_edge(self):
        e = spikes.edge_scaling_wigner(1000)
        assert e.lambda_plus == 2.0
        assert e.threshold(3.0) == pytest.approx(2.0 + 3.0 * 1000 ** (-2 / 3))

    def test_width_exponent_tied_to_theta(self):
        e = spikes.EdgeScaling(2.0, 1.0, 1000)
        assert e.width_exponent == 2.0 / 3.0
        e = spikes.EdgeScaling(2.0, 1.0, 1000, theta=1.0)
        assert e.width_exponent == 0.5
        assert e.scale == pytest.approx(1000 ** -0.5)


class TestBbpMap:
    def test_detached_location(self):
        # Lambda = 4, q = 0.5: lambda = 4 + 4*0.5/3
        assert spikes.bbp_map_mp(4.0, 0.5) == pytest.approx(4.0 + 2.0 / 3.0)

    def test_sticks_below_threshold(self):
        q = 0.25
        assert spikes.bbp_map_mp(1.2, q) == pytest.approx((1 + np.sqrt(q)) ** 2)

    def test_wigner_map_and_overlap(self):
        lam, ov = spikes.bbp_map_wigner(2.0)
        assert lam == pytest.approx(2.5)
        assert ov == pytest.approx(0.75)
        lam, ov = spikes.bbp_map_wigner(0.8)
        assert (lam, ov) == (2.0, 0.0)

    def test_inverse_round_trip(self):
        for Lam in (2.0, 3.5, 10.0):
            lam = spikes.bbp_map_mp(Lam, 0.25)
            assert spikes.invert_spike_mp(lam, 0.25) == pytest.approx(Lam,
                                                                      rel=1e-12)

    def test_invert_rejects_bulk(self):
        with pytest.raises(ValueError, match="inside the bulk"):
            spikes.invert_spike_mp(2.0, 0.25)

    def test_matches_simulation(self):
        # sample top eigenvalue concentrates on the mapped location
        rng = np.random.default_rng(12)
        N, T, Lam = 400, 800, 4.0
        q = N / T
        C = synth.build_true_correlation(
            synth.TrueCorrelationSpec("multi_spike", N, spikes=(Lam,)), seed=0)
        tops = []
        for seed in range(4):
            panel = standardize(synth.gaussian_panel(C, T, seed))
            tops.append(pearson(panel).eigenvalues[0])
        expected = spikes.bbp_map_mp(Lam, q)
        assert np.mean(tops) == pytest.approx(expected, rel=0.05)


class TestHeavyTailRegime:
    def test_labels(self):
        assert spikes.heavy_tail_regime(6.0).label == "TracyWidom"
        assert spikes.heavy_tail_regime(4.0).label == "Marginal"
        r = spikes.heavy_tail_regime(3.0)
        assert r.label == "Frechet"
        assert r.lambda_max_exponent == pytest.approx(2.0 / 3.0 - 0.5)

    def test_infinite_variance_rejected(self):
        with pytest.raises(ValueError):
            spikes.heavy_tail_regime(2.0)


class TestDetector:
    def test_finds_planted_spike(self):
        N, T = 300, 900
        C = synth.build_true_correlation(
            synth.TrueCorrelationSpec("multi_spike", N, spikes=(8.0, 5.0)),
            seed=3)
        panel = standardize(synth.gaussian_panel(C, T, seed=4))
        report = spikes.detect_spikes(pearson(panel), N / T)
        assert len(report.outliers) == 2
        implied = sorted(o.implied_spike for o in report.outliers)
        assert implied[0] == pytest.approx(5.0, rel=0.15)
        assert implied[1] == pytest.approx(8.0, rel=0.15)

    def test_report_matches_eigh_based_one(self):
        N, T = 300, 900
        C = synth.build_true_correlation(
            synth.TrueCorrelationSpec("multi_spike", N, spikes=(8.0, 5.0)),
            seed=3)
        E = pearson(standardize(synth.gaussian_panel(C, T, seed=4)))
        ours = spikes.detect_spikes(E, N / T).to_text()
        assert "_eig" not in E.__dict__  # eigvalsh only, no eigh
        # a matrix held as eigenpairs reports eigh's eigenvalues
        held = E.with_spectrum(E.eigenvalues)
        assert spikes.detect_spikes(held, N / T).to_text() == ours
        assert ours.count("outlier rank=") == 2

    def test_null_matrix_clean(self):
        rng = np.random.default_rng(7)
        panel = standardize(
            synth.gaussian_panel(
                synth.build_true_correlation(
                    synth.TrueCorrelationSpec("identity", 200)), 800, seed=7))
        report = spikes.detect_spikes(pearson(panel), 0.25)
        assert report.outliers == ()
        assert "no outliers" in report.to_text()

    def test_report_text_format(self):
        C = synth.build_true_correlation(
            synth.TrueCorrelationSpec("multi_spike", 200, spikes=(10.0,)),
            seed=5)
        panel = standardize(synth.gaussian_panel(C, 800, seed=6))
        text = spikes.detect_spikes(pearson(panel), 0.25).to_text()
        assert "outlier rank=1" in text
        assert "heuristic" in text
