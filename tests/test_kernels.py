import logging

import numpy as np
import pytest

from rmtkit import synth
from rmtkit.kernels import FULL_EVERY, STACKED_MAX_N, track_top


def _exact_top(returns, epsilon, e_init=None, chunk=250):
    """Top eigenpair of E_t = (1-eps) E_{t-1} + eps r_t r_t^T from E_0 = I
    (or ``e_init``) at every step, by exact ``eigh``."""
    T, N = returns.shape
    E = np.eye(N) if e_init is None else np.array(e_init, dtype=float)
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


def _noise(seed, T, N):
    return np.random.default_rng(seed).standard_normal((T, N)), None


def _two_level(T):
    # population covariance diag(10, 1), started at its exact value
    returns = np.random.default_rng(7).standard_normal((T, 2))
    return returns * np.sqrt([10.0, 1.0]), np.diag([10.0, 1.0])


def _spiked(N, T):
    C = synth.build_true_correlation(
        synth.TrueCorrelationSpec("multi_spike", N, spikes=(10.0,)), seed=0)
    return synth.gaussian_panel(C, T, seed=1).values, None


class TestKernelBehaviour:
    # The pure-noise panels have a small top gap: there the power iteration
    # gives up and takes the exact step at almost every step.  On the spiked
    # N=50 panel it converges at almost every step.  N=2, the crossover N and
    # the N above it check the stacked path, its chunk edges (T=1000 is no
    # multiple of the chunk length) and the per-step path next to it.
    @pytest.mark.parametrize("inputs, epsilon", [
        pytest.param(lambda: _noise(1, 120, 20), 0.05, id="1-120-20-0.05"),
        pytest.param(lambda: _noise(0, 2000, 100), 0.02,
                     id="0-2000-100-0.02"),
        pytest.param(lambda: _two_level(1000), 0.02, id="two-level-N2"),
        pytest.param(lambda: _noise(2, 600, STACKED_MAX_N), 0.02,
                     id="noise-crossover-N"),
        pytest.param(lambda: _noise(3, 600, STACKED_MAX_N + 1), 0.02,
                     id="noise-above-crossover-N"),
        pytest.param(lambda: _spiked(50, 1000), 0.02, id="spiked-N50"),
        # (1 - 0.3)^500 = 1e-78: the per-step path rescales its EWMA decay
        pytest.param(lambda: _noise(5, 500, 20), 0.3, id="noise-fast-decay"),
    ])
    def test_track_top_matches_direct_eigh(self, inputs, epsilon):
        returns, e_init = inputs()
        N = returns.shape[1]
        v_ref = np.ones(N) / np.sqrt(N)
        lam, theta, vecs = track_top(returns, epsilon, v_ref, e_init=e_init)
        vals, vs = _exact_top(returns, epsilon, e_init)
        np.testing.assert_allclose(lam, vals, rtol=1e-10, atol=0)
        np.testing.assert_allclose(np.abs(np.sum(vecs * vs, axis=1)), 1.0,
                                   rtol=0, atol=1e-8)
        # consecutive vectors sign-aligned, theta the angle to v_ref
        assert np.all(np.sum(vecs[1:] * vecs[:-1], axis=1) >= 0)
        np.testing.assert_allclose(np.cos(theta), vecs @ v_ref, atol=1e-12)

    @pytest.mark.parametrize("N, path", [
        (STACKED_MAX_N, "stacked"),
        (STACKED_MAX_N + 1, "per-step"),
    ])
    def test_track_top_logs_its_steps(self, caplog, N, path):
        T = 3 * FULL_EVERY + 7
        returns, _ = _noise(4, T, N)
        with caplog.at_level(logging.DEBUG, logger="rmtkit.kernels"):
            track_top(returns, 0.02, np.ones(N))
        [stats] = [r.args for r in caplog.records
                   if r.getMessage().startswith("track_top:")]
        assert stats["path"] == path
        assert stats["steps"] == T
        if path == "stacked":
            assert stats["power_iterations"] == 0
            assert stats["exact_steps"] == T
        else:
            # every step is either a converged power step or an exact one:
            # the FULL_EVERY refreshes plus the power steps given up
            assert stats["exact_steps"] >= T // FULL_EVERY
            assert stats["exact_steps"] == T // FULL_EVERY + stats["give_ups"]
            assert stats["power_iterations"] >= T - T // FULL_EVERY
