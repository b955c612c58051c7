"""Reference checks for the benchmark's outputs, in plain NumPy.

Each checker compares one output with an independent recomputation or a
closed form and returns a ``Check``.  ``err`` is the relative error against
an exact reference where one exists (it feeds the ``err_max`` metric) and
None for checks that only accept or reject.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    ok: bool
    detail: str
    err: float | None = None


# -- file readers -----------------------------------------------------------

def data_lines(path):
    """Non-comment, non-empty lines of a text file."""
    with open(path) as fh:
        return [ln for ln in fh
                if ln.strip() and not ln.lstrip().startswith("#")]


def read_table(path, usecols=None):
    """Numeric CSV body after one header row, as a 2-D array."""
    return np.loadtxt(data_lines(path)[1:], delimiter=",", ndmin=2,
                      usecols=usecols)


def read_panel(path):
    """Panel CSV (date column first) as a T x N array of returns."""
    return read_table(path)[:, 1:]


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- references -------------------------------------------------------------

def standardized(X):
    return (X - X.mean(axis=0)) / X.std(axis=0)


def clip_reference(X, alpha):
    """Correlation matrix of X with the smallest alpha*N eigenvalues replaced
    by their mean, so the trace is preserved."""
    E = np.corrcoef(X, rowvar=False)
    vals, vecs = np.linalg.eigh(E)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    N = len(vals)
    keep = int(math.ceil((1.0 - alpha) * N))
    vals = vals.copy()
    if keep < N:
        vals[keep:] = (N - vals[:keep].sum()) / (N - keep)
    return (vecs * vals) @ vecs.T


def top_canonical_correlation(X, Y):
    qx = np.linalg.qr(standardized(X))[0]
    qy = np.linalg.qr(standardized(Y))[0]
    return float(np.linalg.svd(qx.T @ qy, compute_uv=False)[0])


def exact_top_eigenvalues(returns, epsilon, e_init=None, chunk=250):
    """Top eigenvalue of E_t = (1-eps) E_{t-1} + eps r_t r_t^T at every step,
    from E_0 = I (or ``e_init``), by exact ``eigvalsh``."""
    T, N = returns.shape
    E = np.eye(N) if e_init is None else np.array(e_init, dtype=float)
    out = np.empty(T)
    buf = np.empty((min(chunk, T), N, N))
    for s in range(0, T, chunk):
        n = min(chunk, T - s)
        for k in range(n):
            r = returns[s + k]
            E *= 1.0 - epsilon
            E += epsilon * np.outer(r, r)
            buf[k] = E
        out[s:s + n] = np.linalg.eigvalsh(buf[:n])[:, -1]
    return out


def student_map(R, C, mu):
    """One application of the Student maximum-likelihood fixed-point map
    C -> ((N+mu)/T) sum_t r_t r_t^T / (mu + r_t^T C^{-1} r_t)."""
    T, N = R.shape
    quad = np.einsum("ti,it->t", R, np.linalg.solve(C, R.T))
    return (R * ((N + mu) / (T * (mu + quad)))[:, None]).T @ R


def moments(grid, density, atoms=()):
    mass = np.trapezoid(density, grid) + sum(m for _, m in atoms)
    mean = np.trapezoid(grid * density, grid) + sum(x * m for x, m in atoms)
    second = (np.trapezoid(grid ** 2 * density, grid)
              + sum(x * x * m for x, m in atoms))
    return float(mass), float(mean), float(second - mean ** 2)


# -- checkers ----------------------------------------------------------------

def top_eigenvalue(X):
    return float(np.linalg.eigvalsh(np.corrcoef(X, rowvar=False))[-1])


def check_clean(cleaned, ref, tol=1e-9):
    """``ref`` is ``clip_reference`` of the panel."""
    if cleaned.shape != ref.shape:
        return Check(False, f"shape {cleaned.shape} != {ref.shape}")
    gap = float(np.max(np.abs(cleaned - ref)))
    return Check(gap <= tol, f"max |clean - numpy| {gap:.3e} (<= {tol:g})",
                 gap)


_OUTLIER = re.compile(r"^outlier rank=1 lambda=(\S+)", re.M)


def check_spikes(text, ref):
    """The top outlier equals the top eigenvalue ``ref`` at the printed
    precision (six significant digits)."""
    found = _OUTLIER.search(text)
    if not found:
        return Check(False, "no top outlier in the report")
    printed = float(found.group(1))
    half_digit = 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 5)
    gap = abs(printed - ref)
    return Check(gap <= 1.02 * half_digit,
                 f"top outlier {printed:.6g} vs eigvalsh {ref:.9g}")


def check_svd(table, ref, tol=1e-9):
    """``ref`` is the top canonical correlation of the two panels."""
    top = float(table[0, 1])
    rel = abs(top - ref) / ref
    return Check(rel <= tol,
                 f"top singular value {top:.12g} vs QR canonical {ref:.12g}",
                 rel)


def check_identical(digests, what):
    same = len(set(digests)) == 1
    return Check(same, f"{what}: {len(digests)} outputs"
                 + (" byte-identical" if same else " differ"))


def check_finite_table(table, what):
    ok = table.size > 0 and bool(np.all(np.isfinite(table)))
    return Check(ok, f"{what}: {table.size} values, "
                 + ("all finite" if ok else "non-finite or empty"))


def check_moments(grid, density, mean_ref, mean_tol, var_ref=None,
                  var_tol=None, atoms=(), mass_tol=1e-3):
    mass, mean, var = moments(grid, density, atoms)
    ok = abs(mass - 1.0) <= mass_tol and abs(mean - mean_ref) <= mean_tol
    errs = [abs(mass - 1.0), abs(mean - mean_ref) / abs(mean_ref)]
    detail = (f"mass {mass:.6f}, mean {mean:.5f} vs {mean_ref:.5f} "
              f"(+-{mean_tol:g})")
    if var_ref is not None:
        ok = ok and abs(var - var_ref) <= var_tol
        errs.append(abs(var - var_ref) / abs(var_ref))
        detail += f", variance {var:.5f} vs {var_ref:.5f} (+-{var_tol:g})"
    return Check(ok, detail, max(errs))


def check_tail_slope(grid, density, mu, lo=30.0, hi=300.0, tol=0.15):
    """log-log slope of the density tail against -(1 + mu/2)."""
    sel = (grid > lo) & (grid < hi) & (density > 0)
    if sel.sum() < 3:
        return Check(False, "too few tail points")
    slope = float(np.polyfit(np.log(grid[sel]), np.log(density[sel]), 1)[0])
    target = -(1.0 + mu / 2.0)
    return Check(abs(slope - target) <= tol,
                 f"tail slope {slope:.3f} vs {target:.2f} (+-{tol:g})")


def sample_l1(grid, density, sample, nbins=40):
    """L1 distance between a density on a grid and the histogram of a
    sample, read as a piecewise-linear density through the bin midpoints."""
    hist, edges = np.histogram(sample, bins=nbins, density=True)
    mid = 0.5 * (edges[:-1] + edges[1:])
    hist = hist / np.trapezoid(hist, mid)
    x = np.linspace(min(grid[0], mid[0]), max(grid[-1], mid[-1]), 2000)
    rho = np.interp(x, grid, density, left=0.0, right=0.0)
    emp = np.interp(x, mid, hist, left=0.0, right=0.0)
    return float(np.trapezoid(np.abs(rho - emp), x))


def check_sample_l1(grid, density, sample, tol=0.12):
    l1 = sample_l1(grid, density, sample)
    return Check(l1 < tol, f"L1 vs {sample.size} sample eigenvalues "
                 f"{l1:.4f} (< {tol:g})")


def wishart_of_wishart_sample(rng, N=300, q_inner=0.1, q_outer=0.25,
                              draws=8):
    """Eigenvalues of sample correlations (aspect q_outer) of data whose true
    covariance is itself a sample covariance (aspect q_inner), pooled over
    ``draws`` independent matrices."""
    T1, T2 = int(N / q_inner), int(N / q_outer)
    out = []
    for _ in range(draws):
        G = rng.standard_normal((N, T1))
        C = G @ G.T / T1
        w, v = np.linalg.eigh(C)
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
        X = rng.standard_normal((T2, N)) @ root
        out.append(np.linalg.eigvalsh(X.T @ X / T2))
    return np.concatenate(out)


def check_student_fixed_point(C, R, mu, tol):
    step = float(np.max(np.abs(student_map(R, C, mu) - C)))
    return Check(step <= tol,
                 f"one more fixed-point step moves C by {step:.3e} "
                 f"(<= {tol:g})")


def check_track(lam, theta, vectors, exact):
    """Tracker output is finite, never above the exact top eigenvalue, and
    has unit vectors; the relative error against exact ``eigh`` is reported,
    not judged (the tracker's tolerance is its own)."""
    ok = bool(np.all(np.isfinite(lam)) and np.all(np.isfinite(vectors))
              and np.all((theta >= 0.0) & (theta <= np.pi)))
    ok = ok and bool(np.all(lam <= exact * (1.0 + 1e-8)))
    norms = np.linalg.norm(vectors, axis=1)
    ok = ok and bool(np.all(np.abs(norms - 1.0) < 1e-8))
    rel = np.abs(lam - exact) / exact
    return Check(ok, f"{lam.size} steps, max rel err {rel.max():.3e}, "
                 f"{int((rel > 1e-8).sum())} steps off by > 1e-8",
                 float(rel.max()))


def steps_off(lam, exact, tol=1e-8):
    return int((np.abs(lam - exact) / exact > tol).sum())
