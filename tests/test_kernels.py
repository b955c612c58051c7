import numpy as np
import pytest

from rmtkit.kernels import (KernelConvergenceError, dressed_resolvent_grid,
                            ewma_resolvent_grid, track_top)
from rmtkit.spectra import PowerLawPrior, powerlaw_prior_density


@pytest.fixture(scope="module")
def grid():
    return np.linspace(0.05, 3.0, 400)


def _exact_top(returns, epsilon, chunk=250):
    """Top eigenpair of E_t = (1-eps) E_{t-1} + eps r_t r_t^T from E_0 = I at
    every step, by exact ``eigh``."""
    T, N = returns.shape
    E = np.eye(N)
    vals, vecs = np.empty(T), np.empty((T, N))
    buf = np.empty((min(chunk, T), N, N))
    for s in range(0, T, chunk):
        n = min(chunk, T - s)
        for k in range(n):
            E = (1.0 - epsilon) * E + epsilon * np.outer(returns[s + k],
                                                         returns[s + k])
            buf[k] = E
        w, u = np.linalg.eigh(buf[:n])
        vals[s:s + n], vecs[s:s + n] = w[:, -1], u[:, :, -1]
    return vals, vecs


class TestKernelBehaviour:
    def test_ewma_density_positive_in_band(self, grid):
        g = ewma_resolvent_grid(grid, 0.5, 1e-6)
        inside = (grid > 0.35) & (grid < 2.3)
        assert np.all(g.imag[inside] > 0)

    def test_dressed_raises_on_nonconvergence(self, grid):
        prior = powerlaw_prior_density(PowerLawPrior(0.35))
        empty = np.array([])
        with pytest.raises(KernelConvergenceError):
            dressed_resolvent_grid(
                grid, 0.5, 1e-3, prior.grid, prior.density, empty, empty,
                max_iter=2)

    # The N=100 pure-noise panel has a small top gap: there the power
    # iteration misses its budget and takes the eigh fallback at almost
    # every step.
    @pytest.mark.parametrize("seed, T, N, epsilon", [
        (1, 120, 20, 0.05),
        (0, 2000, 100, 0.02),
    ])
    def test_track_top_matches_direct_eigh(self, seed, T, N, epsilon):
        returns = np.random.default_rng(seed).standard_normal((T, N))
        v_ref = np.ones(N) / np.sqrt(N)
        lam, theta, vecs = track_top(returns, epsilon, v_ref)
        vals, vs = _exact_top(returns, epsilon)
        np.testing.assert_allclose(lam, vals, rtol=1e-10, atol=0)
        np.testing.assert_allclose(np.abs(np.sum(vecs * vs, axis=1)), 1.0,
                                   rtol=0, atol=1e-8)
