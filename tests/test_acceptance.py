"""End-to-end acceptance checks for the statistical laws implemented by the
package, run at desk scale on synthetic data.

Each test emits one machine-readable pass/fail line (shown in the terminal
summary via conftest, since capture would hide it for passing tests) and
then asserts the criterion.
"""

import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import ACCEPTANCE_LINES

from rmtkit import (cleaning, crosscorr, dynamics, fileio, portfolio, spectra,
                    spikes, synth)
from rmtkit.density import SpectralDensity
from rmtkit.estimators import (CorrelationMatrix, ReturnPanel, ewma_estimator,
                               pearson, standardize, student_ml)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)


def _binned_l1(samples, density: SpectralDensity, nbins: int,
               span=None) -> float:
    """L1 distance between the binned sample distribution and the binned
    continuous part of ``density`` (conditioned on the continuous mass),
    plus any sample mass falling outside the span."""
    samples = np.asarray(samples, dtype=float)
    if span is None:
        lo, hi = density.support()
    else:
        lo, hi = span
    hist, edges = np.histogram(samples, bins=nbins, range=(lo, hi))
    emp = hist / len(samples)
    fine = np.linspace(lo, hi, 8001)
    vals = density.interpolate(fine)
    cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(fine))])
    theo = np.diff(np.interp(edges, fine, cum))
    theo /= theo.sum()
    outside = float(np.mean((samples < lo) | (samples > hi)))
    return float(np.abs(emp - theo).sum()) + outside


def _spiked_null_top(rng, N: int, T: int, Lambda: float) -> float:
    """Top eigenvalue of a sample matrix whose population covariance is
    diag(Lambda, 1, ..., 1)."""
    X = rng.standard_normal((T, N))
    X[:, 0] *= np.sqrt(Lambda)
    return float(np.linalg.eigvalsh(X.T @ X / T)[-1])


def test_criterion_01_null_spectrum_matches_density():
    t0 = time.perf_counter()
    q, N, T, replicas = 0.5, 500, 1000, 20
    rng = np.random.default_rng(101)
    eigs = []
    for _ in range(replicas):
        panel = standardize(ReturnPanel(rng.standard_normal((T, N))))
        eigs.append(pearson(panel).eigenvalues)
    l1 = _binned_l1(np.concatenate(eigs), spectra.mp_density(q), nbins=12)
    dt = time.perf_counter() - t0
    ok = l1 < 0.03 and dt < 30.0
    _report(1, ok, f"null spectrum L1={l1:.4f} (<0.03) in {dt:.1f}s (<30s)")
    assert ok


def test_criterion_02_trace_inverse_law():
    rng = np.random.default_rng(202)
    results = []
    for q, N, T in ((0.2, 200, 1000), (0.5, 250, 500)):
        vals = []
        for _ in range(6):
            panel = standardize(ReturnPanel(rng.standard_normal((T, N))))
            E = pearson(panel)
            vals.append(np.trace(E.inverse()) / N)
        mean = float(np.mean(vals))
        target = 1.0 / (1.0 - q)
        results.append((q, mean, target, abs(mean / target - 1.0)))
    ok = all(rel < 0.02 for _, _, _, rel in results)
    detail = "; ".join(
        f"q={q}: tr(E^-1)/N={m:.4f} vs {t:.4f} ({rel * 100:.2f}%)"
        for q, m, t, rel in results)
    _report(2, ok, f"trace-inverse law within 2%: {detail}")
    assert ok


def test_criterion_03_risk_ratios():
    t0 = time.perf_counter()
    q, N, replicas = 0.5, 250, 100
    T = int(N / q)
    C = synth.constant_correlation(N, 0.0)
    rng = np.random.default_rng(303)
    r_in, r_out = [], []
    for seed in range(replicas):
        panel = standardize(synth.gaussian_panel(C, T, seed=seed))
        E = pearson(panel)
        g = rng.standard_normal(N)
        r = portfolio.risk_triple(E, C, g)
        r_in.append(r.in_sample / r.true_risk)
        r_out.append(r.out_of_sample / r.true_risk)
    t_in, t_out = portfolio.theoretical_risk_ratios(q)
    m_in, m_out = float(np.mean(r_in)), float(np.mean(r_out))
    dt = time.perf_counter() - t0
    ok = (abs(m_in / t_in - 1.0) < 0.03 and abs(m_out / t_out - 1.0) < 0.03
          and dt < 120.0)
    _report(3, ok,
            f"risk ratios in={m_in:.4f} vs {t_in:.4f}, out={m_out:.4f} vs "
            f"{t_out:.4f} (both within 3%) in {dt:.1f}s (<2min)")
    assert ok


def test_criterion_04_spike_map():
    q, N, T = 0.5, 500, 1000
    rng = np.random.default_rng(404)
    tops = [_spiked_null_top(rng, N, T, 4.0) for _ in range(50)]
    mean_top = float(np.mean(tops))
    predicted = spikes.bbp_map_mp(4.0, q)
    se = float(np.std(tops, ddof=1) / np.sqrt(len(tops)))
    ok_super = abs(mean_top - predicted) < 0.05

    sub_tops = [_spiked_null_top(rng, N, T, 1.3) for _ in range(20)]
    scaling = spikes.edge_scaling_mp(q, N)
    scaled = (np.mean(sub_tops) - scaling.lambda_plus) / scaling.scale
    ok_sub = abs(scaled) < 3.0
    ok = ok_super and ok_sub
    _report(4, ok,
            f"spike map: mean top={mean_top:.4f} vs {predicted:.4f} "
            f"(|diff|<0.05, SE={se:.4f}); sub-critical at "
            f"{scaled:+.2f} edge-scales (|.|<3)")
    assert ok


def test_criterion_05_spike_fluctuation_scaling():
    q, Lambda, trials = 0.5, 4.0, 150
    rng = np.random.default_rng(505)
    stds = {}
    for T in (400, 1600):
        N = int(q * T)
        tops = [_spiked_null_top(rng, N, T, Lambda) for _ in range(trials)]
        stds[T] = float(np.std(tops, ddof=1))
    ratio = stds[400] / stds[1600]
    ok = 1.7 <= ratio <= 2.3
    _report(5, ok,
            f"spike fluctuation scaling: std(T=400)/std(T=1600)="
            f"{ratio:.3f} in [1.7, 2.3]")
    assert ok


def test_criterion_06_edge_scaling_stability():
    q, trials = 0.5, 200
    rng = np.random.default_rng(606)
    scaled = {}
    for N in (200, 400, 800):
        T = int(N / q)
        sc = spikes.edge_scaling_mp(q, N)
        tops = np.array([
            np.linalg.eigvalsh(
                (lambda X: X.T @ X / T)(rng.standard_normal((T, N))))[-1]
            for _ in range(trials)])
        scaled[N] = (tops - sc.lambda_plus) / sc.scale
    p_ab = scipy_stats.ks_2samp(scaled[200], scaled[400]).pvalue
    p_bc = scipy_stats.ks_2samp(scaled[400], scaled[800]).pvalue
    ok = p_ab > 0.01 and p_bc > 0.01
    _report(6, ok,
            f"edge-scaled top-eigenvalue stability: KS p(200,400)={p_ab:.3f}, "
            f"p(400,800)={p_bc:.3f} (both >0.01)")
    assert ok


def test_criterion_07_ewma_spectrum():
    q, N = 0.5, 250
    eps = q / N
    T = 6000  # many multiples of the 1/eps memory
    rng = np.random.default_rng(707)
    eigs = []
    for _ in range(40):
        panel = ReturnPanel(rng.standard_normal((T, N)))
        eigs.append(ewma_estimator(panel, eps).eigenvalues)
    dens = spectra.ewma_density(q)
    l1 = _binned_l1(np.concatenate(eigs), dens, nbins=12)

    lo, hi = spectra.ewma_edges(q)
    root_residual = max(abs(lo - np.log(lo) - (1.0 + q)),
                        abs(hi - np.log(hi) - (1.0 + q)))
    ok = l1 < 0.05 and root_residual < 1e-10
    _report(7, ok,
            f"exponentially weighted spectrum L1={l1:.4f} (<0.05); edge-root "
            f"residual {root_residual:.1e} (<1e-10)")
    assert ok


def test_criterion_08_dressed_spectrum():
    alpha, q, N, replicas = 0.35, 0.5, 500, 10
    T = int(N / q)
    prior = spectra.powerlaw_prior_density(spectra.PowerLawPrior(alpha))
    dens = spectra.dressed_spectrum(prior, q)
    eigs = []
    for seed in range(replicas):
        C = synth.powerlaw_correlation(N, alpha, seed)
        panel = standardize(synth.gaussian_panel(C, T, seed=1000 + seed))
        eigs.append(pearson(panel).eigenvalues)
    l1 = _binned_l1(np.concatenate(eigs), dens, nbins=12)
    ok = l1 < 0.05
    _report(8, ok, f"power-law-prior dressed spectrum L1={l1:.4f} (<0.05)")
    assert ok


def test_criterion_09_student_ensembles():
    # (a) tail exponent of the heavy-tailed scale-mixture density
    mu, q = 4.0, 0.5
    d = spectra.elliptic_student_density(q, mu)
    mask = (d.grid > 30.0) & (d.grid < 300.0) & (d.density > 0)
    slope = float(np.polyfit(np.log(d.grid[mask]),
                             np.log(d.density[mask]), 1)[0])
    target = -(1.0 + mu / 2.0)
    ok_tail = abs(slope - target) < 0.15

    # (b) the maximum-likelihood estimator on heavy-tailed data is free of
    # the fat-tail distortion: its spectrum follows the null law again
    N, T, replicas, mu_ml = 300, 600, 8, 5.0
    C = synth.constant_correlation(N, 0.0)
    eigs = []
    for seed in range(replicas):
        panel = synth.student_panel(C, mu_ml, T, seed=seed)
        # the fixed point contracts slowly at q = 0.5; spectrum-level
        # accuracy needs far less than the default tolerance
        M = student_ml(panel, mu_ml, tol=3e-5, max_iter=2000)
        vals = M.eigenvalues * (N / np.trace(M.values))
        eigs.append(vals)
    l1 = _binned_l1(np.concatenate(eigs), spectra.mp_density(N / T), nbins=8)
    ok = ok_tail and l1 < 0.05
    _report(9, ok,
            f"student ensembles: tail slope {slope:.3f} vs {target:.1f} "
            f"(|diff|<0.15); ML-estimator spectrum L1={l1:.4f} (<0.05)")
    assert ok


def test_criterion_10_cross_correlation_null_band():
    N, M, T, trials = 50, 30, 400, 100
    rng = np.random.default_rng(1010)
    n, m = N / T, M / T
    lo, hi = spectra.rsvd_band(n, m)
    edge_scale = min(N, M) ** (-2.0 / 3.0)
    cutoff = hi + 3.0 * edge_scale
    tops, all_sv = [], []
    for _ in range(trials):
        X = standardize(ReturnPanel(rng.standard_normal((T, N))))
        Y = standardize(ReturnPanel(rng.standard_normal((T, M))))
        res = crosscorr.cross_singulars(X, Y)
        tops.append(res.singular_values[0])
        all_sv.append(res.singular_values)
    frac_below = float(np.mean(np.asarray(tops) < cutoff))
    l1 = _binned_l1(np.concatenate(all_sv), spectra.rsvd_benchmark(n, m),
                    nbins=10, span=(lo, hi))
    ok = frac_below >= 0.95 and l1 < 0.05
    _report(10, ok,
            f"cross-correlation null band: {frac_below * 100:.0f}% of top "
            f"singulars below {cutoff:.3f} (>=95%); singular density "
            f"L1={l1:.4f} (<0.05)")
    assert ok


def test_criterion_11_tracked_eigenpair_dynamics():
    L1_, Lb, eps = 10.0, 1.0, 0.02
    rng = np.random.default_rng(1111)
    returns = rng.standard_normal((60000, 2)) * np.sqrt([L1_, Lb])
    track = dynamics.track_top(ReturnPanel(returns), eps,
                               np.array([1.0, 0.0]),
                               e_init=np.diag([L1_, Lb]))
    tau = np.array([250])
    val, vec = dynamics.empirical_variogram(track, tau)
    tval, tvec = dynamics.theoretical_variograms(L1_, Lb, eps, tau)
    rel_val = abs(val[0] / tval[0] - 1.0)
    rel_vec = abs(vec[0] / tvec[0] - 1.0)

    theta = track.theta[2000:]
    folded = np.minimum(theta, np.pi - theta)
    grid = np.linspace(0.0, np.pi / 2, 20001)
    p = dynamics.stationary_angle_density(L1_, Lb, eps, grid)
    cdf = np.concatenate(
        [[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    F = np.interp(np.sort(folded), grid, cdf)
    ks = float(np.max(np.abs(F - np.arange(1, folded.size + 1) / folded.size)))

    ok = rel_val < 0.15 and rel_vec < 0.15 and ks < 0.05
    _report(11, ok,
            f"eigenpair dynamics: value asymptote off {rel_val * 100:.1f}% "
            f"(<15%), vector asymptote off {rel_vec * 100:.1f}% (<15%), "
            f"angle-histogram KS={ks:.3f} (<0.05)")
    assert ok


def test_criterion_12_cleaning_efficacy():
    t0 = time.perf_counter()
    q, N, replicas = 0.5, 120, 15
    T = int(N / q)
    alphas = (0.1, 0.25, 0.5, 0.75, 0.9)
    rng = np.random.default_rng(1212)
    out_risk = {(kind, a): [] for kind in cleaning.SCHEME_KINDS
                for a in alphas}
    raw_out, raw_ratio = [], []
    for seed in range(replicas):
        C = synth.powerlaw_correlation(N, 0.5, seed)
        panel = standardize(synth.gaussian_panel(C, T, seed=2000 + seed))
        E = pearson(panel)
        g = rng.standard_normal(N)
        r = portfolio.risk_triple(E, C, g)
        raw_out.append(r.out_of_sample)
        raw_ratio.append(r.out_of_sample / r.in_sample)
        for kind in cleaning.SCHEME_KINDS:
            for a in alphas:
                cleaned = cleaning.apply_scheme(
                    E, cleaning.CleaningScheme(kind, a))
                rc = portfolio.risk_triple(cleaned, C, g)
                out_risk[(kind, a)].append(rc.out_of_sample)
    raw_mean = float(np.mean(raw_out))
    improvements = {}
    for kind in cleaning.SCHEME_KINDS:
        best = min(float(np.mean(out_risk[(kind, a)])) for a in alphas)
        improvements[kind] = best / raw_mean
    ratio = float(np.mean(raw_ratio))
    target = 1.0 / (1.0 - q)
    dt = time.perf_counter() - t0
    ok = (all(v < 1.0 for v in improvements.values())
          and abs(ratio / target - 1.0) < 0.10 and dt < 600.0)
    detail = ", ".join(f"{k}={v:.3f}" for k, v in improvements.items())
    _report(12, ok,
            f"cleaning efficacy: best-alpha out-risk vs raw {detail} "
            f"(all <1); raw out/in={ratio:.3f} vs {target:.1f} (within 10%) "
            f"in {dt:.0f}s (<10min)")
    assert ok


def test_criterion_13_invariant_battery(tmp_path):
    violations = []

    def check(name, fn):
        try:
            if not fn():
                violations.append(name)
        except Exception as exc:  # noqa: BLE001 - any failure is a violation
            violations.append(f"{name} ({exc!r})")

    # densities: unit mass and serialization round-trip
    mp = spectra.mp_density(0.25)
    check("mp mass", lambda: abs(mp.mass() - 1.0) < 1e-6)
    check("ewma mass",
          lambda: abs(spectra.ewma_density(0.5).mass() - 1.0) < 1e-6)
    check("rsvd mass",
          lambda: abs(spectra.rsvd_benchmark(0.125, 0.075).mass() - 1.0) < 1e-6)

    def roundtrip():
        path = tmp_path / "d.csv"
        fileio.write_density_csv(path, mp)
        back = fileio.read_density_csv(path)
        return (np.allclose(back.grid, mp.grid)
                and np.allclose(back.density, mp.density, atol=1e-10))
    check("density csv round-trip", roundtrip)

    # sampling determinism
    check("correlation build determinism",
          lambda: np.array_equal(
              synth.powerlaw_correlation(40, 0.5, 5).values,
              synth.powerlaw_correlation(40, 0.5, 5).values))
    C = synth.powerlaw_correlation(40, 0.5, 5)
    check("panel determinism",
          lambda: np.array_equal(synth.gaussian_panel(C, 50, seed=6).values,
                                 synth.gaussian_panel(C, 50, seed=6).values))
    O = synth.haar_rotation(30, seed=7)
    check("haar orthogonality",
          lambda: np.allclose(O @ O.T, np.eye(30), atol=1e-10))

    # estimators and cleaning: symmetry, PSD, trace preservation
    panel = standardize(synth.gaussian_panel(C, 120, seed=8))
    E = pearson(panel)
    check("estimate symmetric", lambda: np.allclose(E.values, E.values.T))
    check("estimate unit diagonal",
          lambda: np.allclose(np.diag(E.values), 1.0, atol=1e-12))
    check("estimate PSD", lambda: E.eigenvalues[-1] >= -1e-10)
    check("inverse identity",
          lambda: np.allclose(E.inverse() @ E.values, np.eye(E.N),
                              atol=1e-8))
    for kind in cleaning.SCHEME_KINDS:
        cleaned = cleaning.apply_scheme(E, cleaning.CleaningScheme(kind, 0.5))
        check(f"{kind} PSD",
              lambda c=cleaned: np.linalg.eigvalsh(c.values)[0] >= -1e-10)
        check(f"{kind} symmetric",
              lambda c=cleaned: np.allclose(c.values, c.values.T))
    clipped = cleaning.clip(E, 0.5)
    check("clip trace preserved",
          lambda: abs(np.trace(clipped.values) - np.trace(E.values)) < 1e-8)

    # tracking invariants: unit norm and sign alignment
    track = dynamics.track_top(panel, 0.05, C.eigenvectors[:, 0])
    norms = np.linalg.norm(track.v1, axis=1)
    check("tracked vectors unit norm",
          lambda: np.allclose(norms, 1.0, atol=1e-10))
    overlaps = np.einsum("ij,ij->i", track.v1[1:], track.v1[:-1])
    check("tracked vectors sign-aligned", lambda: np.all(overlaps >= 0.0))

    ok = not violations
    _report(13, ok,
            f"invariant battery: {22 - len(violations)}/22 checks clean"
            + ("" if ok else f"; violations: {violations}"))
    assert ok, violations
