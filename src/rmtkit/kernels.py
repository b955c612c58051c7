"""Hot numerical kernels: the resolvent grids behind the EWMA and dressed
spectra, and the EWMA tracker of the top eigenpair."""

from __future__ import annotations

import cmath

import numpy as np

__all__ = [
    "BACKEND",
    "KernelConvergenceError",
    "ewma_resolvent_grid",
    "dressed_resolvent_grid",
    "track_top",
]

BACKEND = "python"

EWMA_TOL = 1e-12
EWMA_MAX_ITER = 200
DRESSED_DAMPING = 0.5
POWER_TOL = 1e-10
# With a clear top gap a warm-started step converges in about 10 iterations
# (at most 14 at N=2); steps with a near-degenerate top pair would need
# hundreds, and are handed to eigh, which costs less than iterating them out.
POWER_MAX_ITER = 50
FULL_EVERY = 100


class KernelConvergenceError(RuntimeError):
    pass


def ewma_resolvent_grid(grid, q, eps):
    """Solve lambda*q*G = q - log(1 - q*G) for complex G at lambda - i*eps.

    Newton iteration with continuation along a descending walk of the grid;
    raises on branch jumps (discontinuous G between neighbouring points).
    """
    grid = np.asarray(grid, dtype=float)
    out = np.empty(grid.size, dtype=complex)
    g = 1.0 / (grid[-1] + 1.0 - 1j * eps)
    prev = None
    for i in range(grid.size - 1, -1, -1):
        z = grid[i] - 1j * eps
        g = _ewma_newton(z, q, g)
        if prev is not None and abs(g - prev) > 0.5 * (1.0 + abs(prev)):
            raise KernelConvergenceError(
                f"branch jump detected at lambda={grid[i]:.6g}")
        prev = g
        out[i] = g
    return out


def _ewma_newton(z, q, g0):
    g = g0
    for _ in range(EWMA_MAX_ITER):
        u = 1.0 - q * g
        f = z * q * g - q + cmath.log(u)
        if abs(f) < EWMA_TOL:
            return g
        fp = z * q - q / u
        if fp == 0:
            break
        step = -f / fp
        # keep 1 - q*g away from the branch cut of the logarithm
        while abs(q * step) > 0.5 * abs(u):
            step *= 0.5
        g = g + step
    raise KernelConvergenceError(f"ewma solver stalled at z={z}")


def dressed_resolvent_grid(grid, q, eps, c_grid, c_density, c_atom_loc,
                           c_atom_mass, tol=1e-10, max_iter=500):
    """Self-consistent resolvent of the sample matrix for a true spectrum.

    Per grid point solves the fixed point
    ``G = int rho_C(x) dx / (z - x*(1 - q + q*z*G))`` by damped iteration
    (automatic halving of the damping factor on oscillation) with
    continuation from the upper end of the grid.
    """
    grid = np.asarray(grid, dtype=float)
    c_grid = np.asarray(c_grid, dtype=float)
    c_density = np.asarray(c_density, dtype=float)
    c_atom_loc = np.asarray(c_atom_loc, dtype=float)
    c_atom_mass = np.asarray(c_atom_mass, dtype=float)

    def F(z, g):
        denom = z - c_grid * (1.0 - q + q * z * g)
        val = np.trapezoid(c_density / denom, c_grid) if c_grid.size >= 2 else 0.0
        if c_atom_loc.size:
            val += np.sum(c_atom_mass / (z - c_atom_loc * (1.0 - q + q * z * g)))
        return val

    def Fprime(z, g):
        denom = z - c_grid * (1.0 - q + q * z * g)
        val = (np.trapezoid(c_density * c_grid * q * z / denom ** 2, c_grid)
               if c_grid.size >= 2 else 0.0)
        if c_atom_loc.size:
            denom_a = z - c_atom_loc * (1.0 - q + q * z * g)
            val += np.sum(c_atom_mass * c_atom_loc * q * z / denom_a ** 2)
        return val

    warmup = min(50, max_iter)
    out = np.empty(grid.size, dtype=complex)
    g = 1.0 / (grid[-1] + 1.0 - 1j * eps)
    worst = None
    for i in range(grid.size - 1, -1, -1):
        z = grid[i] - 1j * eps
        d = DRESSED_DAMPING
        prev_res = np.inf
        ok = False
        # phase 1: damped iteration to get inside the Newton basin
        for _ in range(warmup):
            gn = F(z, g)
            res = abs(gn - g)
            if res < tol * (1.0 + abs(gn)):
                g = gn
                ok = True
                break
            if res > prev_res:
                d = max(d * 0.5, 0.01)
            prev_res = res
            g = g + d * (gn - g)
        # phase 2: Newton on F(g) - g = 0; the plain iteration loses its
        # contraction near the spectrum edges where Newton stays quadratic
        if not ok:
            for _ in range(max_iter - warmup):
                gn = F(z, g)
                res = abs(gn - g)
                if res < tol * (1.0 + abs(gn)):
                    g = gn
                    ok = True
                    break
                hp = Fprime(z, g) - 1.0
                if hp == 0 or not np.isfinite(hp):
                    break
                step = (gn - g) / (-hp)
                if not np.isfinite(step):
                    break
                gt = g + step
                if gt.imag < 0:
                    # on z = lambda - i*eps the physical branch has Im G >= 0;
                    # fall back to a damped step instead of crossing over
                    gt = g + d * (gn - g)
                g = gt
                prev_res = res
        if not ok:
            worst = (grid[i], prev_res)
        out[i] = g
    if worst is not None:
        raise KernelConvergenceError(
            f"fixed point not reached; worst lambda={worst[0]:.6g} "
            f"residual={worst[1]:.3e}")
    return out


def track_top(returns, epsilon, v_ref, e_init=None):
    """EWMA covariance tracking of the top eigenpair.

    Updates ``E_t = (1-eps) E_{t-1} + eps r_t r_t^T`` and extracts the top
    eigenpair each step by power iteration warm-started from the previous
    vector.  A full eigendecomposition takes the step instead every
    ``FULL_EVERY`` steps and whenever the power iteration has not converged
    within ``POWER_MAX_ITER`` iterations.  Consecutive eigenvectors are
    sign-aligned.

    Returns ``(lambda1, theta, vectors)`` where ``theta`` is the angle to
    ``v_ref`` in radians.
    """
    returns = np.asarray(returns, dtype=float)
    T, N = returns.shape
    v_ref = np.asarray(v_ref, dtype=float)
    v_ref = v_ref / np.linalg.norm(v_ref)

    E = np.eye(N) if e_init is None else np.array(e_init, dtype=float)
    vals, vecs = np.linalg.eigh(E)
    v = vecs[:, -1].copy()

    lam_out = np.empty(T)
    theta_out = np.empty(T)
    v_out = np.empty((T, N))

    for t in range(T):
        r = returns[t]
        E *= (1.0 - epsilon)
        E += epsilon * np.outer(r, r)
        converged = False
        if (t + 1) % FULL_EVERY:
            for _ in range(POWER_MAX_ITER):
                w = E @ v
                lam = np.linalg.norm(w)
                if lam == 0:
                    break
                w /= lam
                if w @ v < 0:
                    w = -w
                converged = np.linalg.norm(w - v) < POWER_TOL
                v = w
                if converged:
                    break
        if not converged:
            vals, vecs = np.linalg.eigh(E)
            w = vecs[:, -1]
            v = -w if w @ v < 0 else w.copy()
            lam = vals[-1]
        lam_out[t] = lam
        v_out[t] = v
        theta_out[t] = np.arccos(np.clip(v @ v_ref, -1.0, 1.0))
    return lam_out, theta_out, v_out
