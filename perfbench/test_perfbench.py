"""Tests of the benchmark itself: every checker accepts a correct output and
rejects a perturbed one, the tracer's self-time arithmetic holds, and
BENCHMARK.json names exactly the metrics the code reports.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import layertrace
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def panel():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((400, 30))
    X[:, :10] += 1.5 * rng.standard_normal((400, 1))  # one strong factor
    return X


def test_clean_check(panel):
    good = checks.clip_reference(panel, 0.5)
    # the reference clips the smallest half of the spectrum to its mean
    vals = np.linalg.eigvalsh(good)
    assert np.ptp(vals[:15]) < 1e-12 and np.trace(good) == pytest.approx(30)
    assert checks.check_clean(good, good).ok
    bad = good.copy()
    bad[3, 4] += 1e-6
    assert not checks.check_clean(bad, good).ok
    assert not checks.check_clean(checks.clip_reference(panel, 0.4), good).ok
    assert not checks.check_clean(good[:-1, :-1], good).ok


def test_spikes_check(panel):
    top = checks.top_eigenvalue(panel)
    text = f"# spike report\noutlier rank=1 lambda={top:.6g} implied=1\n"
    assert checks.check_spikes(text, top).ok
    text = f"outlier rank=1 lambda={top * (1 + 1e-4):.6g} implied=1\n"
    assert not checks.check_spikes(text, top).ok
    assert not checks.check_spikes("no outliers\n", top).ok


def test_svd_check(panel):
    X, Y = panel[:, :20], panel[:, 20:]
    top = checks.top_canonical_correlation(X, Y)
    # canonical correlations are the singular values of the whitened
    # cross-covariance
    Xs, Ys = checks.standardized(X), checks.standardized(Y)
    Sxx, Syy = Xs.T @ Xs, Ys.T @ Ys
    Wx = np.linalg.inv(np.linalg.cholesky(Sxx))
    Wy = np.linalg.inv(np.linalg.cholesky(Syy))
    s = np.linalg.svd(Wx @ Xs.T @ Ys @ Wy.T, compute_uv=False)
    assert top == pytest.approx(s[0], rel=1e-10)
    assert checks.check_svd(np.array([[1, top]]), top).ok
    assert not checks.check_svd(np.array([[1, top * (1 + 1e-6)]]), top).ok


def test_identical_and_finite():
    assert checks.check_identical(["a", "a"], "x").ok
    assert not checks.check_identical(["a", "b"], "x").ok
    assert checks.check_finite_table(np.ones((2, 2)), "x").ok
    assert not checks.check_finite_table(np.array([[1.0, np.nan]]), "x").ok
    assert not checks.check_finite_table(np.empty((0, 2)), "x").ok


def test_table_readers(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("# command: x\ndate,A,B\n0,1.5,2\n1,3,4e-1\n")
    assert checks.read_panel(p).tolist() == [[1.5, 2.0], [3.0, 0.4]]
    q = tmp_path / "q.csv"
    q.write_text("# comment\n")
    assert checks.digest(p) != checks.digest(q)


def _uniform(lo=0.0, hi=2.0, n=2001):
    grid = np.linspace(lo, hi, n)
    return grid, np.full(n, 1.0 / (hi - lo))


def test_moments_check():
    grid, dens = _uniform()  # mean 1, variance 1/3
    assert checks.check_moments(grid, dens, 1.0, 0.01, 1 / 3, 0.01).ok
    assert not checks.check_moments(grid + 0.05, dens, 1.0, 0.01).ok
    assert not checks.check_moments(grid, 1.01 * dens, 1.0, 0.05).ok
    assert not checks.check_moments(grid, dens, 1.0, 0.01, 0.4, 0.05).ok
    # atoms count towards mass and mean
    c = checks.check_moments(grid, 0.5 * dens, 1.5, 0.01, atoms=((2.0, 0.5),))
    assert c.ok and c.err < 1e-6


def test_tail_slope_check():
    grid = np.geomspace(1.0, 1000.0, 400)
    assert checks.check_tail_slope(grid, grid ** -3.0, 4.0).ok
    assert not checks.check_tail_slope(grid, grid ** -2.5, 4.0).ok
    assert not checks.check_tail_slope(grid[:10], grid[:10] ** -3.0, 4.0).ok


def test_sample_l1_check():
    rng = np.random.default_rng(1)
    sample = rng.uniform(0.0, 2.0, 20000)
    grid, dens = _uniform()
    assert checks.check_sample_l1(grid, dens, sample).ok
    assert not checks.check_sample_l1(grid + 0.3, dens, sample).ok


def test_student_check():
    rng = np.random.default_rng(2)
    R = checks.standardized(rng.standard_normal((200, 10)))
    C = np.eye(10)
    for _ in range(400):
        C = checks.student_map(R, C, 5.0)
    assert checks.check_student_fixed_point(C, R, 5.0, 1e-9).ok
    C[0, 1] = C[1, 0] = C[0, 1] + 1e-3
    assert not checks.check_student_fixed_point(C, R, 5.0, 1e-5).ok


def test_track_check():
    rng = np.random.default_rng(3)
    R = rng.standard_normal((300, 4)) * np.sqrt([5.0, 1.0, 1.0, 1.0])
    exact = checks.exact_top_eigenvalues(R, 0.05)
    E, lam, vec = np.eye(4), [], []
    for r in R:
        E = 0.95 * E + 0.05 * np.outer(r, r)
        w, v = np.linalg.eigh(E)
        lam.append(w[-1])
        vec.append(v[:, -1])
    lam, vec = np.array(lam), np.array(vec)
    theta = np.arccos(np.clip(np.abs(vec[:, 0]), -1.0, 1.0))
    good = checks.check_track(lam, theta, vec, exact)
    assert good.ok and good.err < 1e-12
    low = checks.check_track(lam * (1 - 1e-3), theta, vec, exact)
    assert low.ok and math.isclose(low.err, 1e-3, rel_tol=1e-6)
    assert checks.steps_off(lam * (1 - 1e-3), exact) == len(lam)
    assert not checks.check_track(lam * (1 + 1e-3), theta, vec, exact).ok
    assert not checks.check_track(lam, theta, 2 * vec, exact).ok


def test_self_time_excludes_children():
    t = layertrace.Tracer()
    # outer fileio span 0..10 with a nested estimators span 2..5
    t.spans = [["fileio.read_panel_csv", 0.0, 10.0, -1, {"bytes_read": 5e6}],
               ["estimators.pearson", 2.0, 5.0, 0, None]]
    t.counts["transforms.resolvent"] = 7
    m = layertrace.layer_metrics(t)
    assert m["fileio.self_s"][0] == 7.0
    assert m["estimators.self_s"][0] == 3.0
    assert m["fileio.read_panel_csv.s"][0] == 10.0
    assert m["fileio.read_mb_per_s"][0] == pytest.approx(0.5)
    assert m["transforms.calls"][0] == 7
    assert m["transforms.resolvent.calls"][0] == 7


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_reported_metrics():
    spec = _benchmark()
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {k: u for k, (_, u) in
                layertrace.layer_metrics(layertrace.Tracer()).items()}
    # every workload reports the same extras as the tracker workload
    extras = workloads.Workload(0, "").layer_extras({}, 1)
    reported.update((k, u) for k, (_, u) in extras.items())
    reported["trace.overhead_s"] = "s"
    reported["host.loop_s"] = "s"
    assert declared == reported
    names = tuple(w["name"] for w in spec["workloads"])
    assert names == run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


@pytest.fixture()
def rmtkit_on_path():
    sys.path.insert(0, str(ROOT / "src"))
    yield
    sys.path.remove(str(ROOT / "src"))


def test_instrument_wraps_and_restores(rmtkit_on_path):
    from rmtkit import cli, estimators, portfolio, transforms
    before = (cli.pearson, portfolio.apply_scheme, transforms.resolvent,
              estimators.CorrelationMatrix.__dict__["_eig"])
    t = layertrace.Tracer()
    patches = layertrace.instrument(t)
    try:
        assert cli.pearson is estimators.pearson
        assert cli.pearson is not before[0]
        rng = np.random.default_rng(4)
        X = checks.standardized(rng.standard_normal((50, 5)))
        E = cli.pearson(estimators.ReturnPanel(X))
        E.eigenvalues
        E.eigenvectors
    finally:
        layertrace.restore(patches)
    after = (cli.pearson, portfolio.apply_scheme, transforms.resolvent,
             estimators.CorrelationMatrix.__dict__["_eig"])
    assert all(a is b for a, b in zip(before, after))
    names = [s[0] for s in t.spans]
    # the eigendecomposition is traced once, on first access
    assert names.count("estimators.eig") == 1
    assert "estimators.pearson" in names
