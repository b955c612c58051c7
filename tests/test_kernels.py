import logging

import numpy as np
import pytest

from conftest import spiked_correlation

from rmtkit import synth
from rmtkit.kernels import (FULL_EVERY, POWER_TOL, STACKED_MAX_N, _certify,
                            _power, track_top)


def _distance(w, v):
    """min |w -+ v| along the last axis: unlike 1 - |w.v|, which cancels
    below sqrt(machine epsilon), it resolves distances of POWER_TOL."""
    return np.minimum(np.linalg.norm(w - v, axis=-1),
                      np.linalg.norm(w + v, axis=-1))


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


def _spiked(N, T, spike=10.0):
    C = spiked_correlation(N, (spike,), seed=0)
    return synth.gaussian_panel(C, T, seed=1).values, None


def _track_stats(caplog, returns, epsilon, e_init=None):
    with caplog.at_level(logging.DEBUG, logger="rmtkit.kernels"):
        out = track_top(returns, epsilon, e_init=e_init)
    [stats] = [r.args for r in caplog.records
               if r.getMessage().startswith("track_top:")]
    return out, stats


def _lower(E):
    """The tracker's storage of E: its lower triangle, Fortran order."""
    return np.asfortranarray(np.tril(E))


def _rotated(eigenvalues, seed):
    N = len(eigenvalues)
    Q = synth.haar_rotation(N, seed)
    return (Q * eigenvalues) @ Q.T, Q


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
        lam, vecs = track_top(returns, epsilon, e_init=e_init)
        vals, vs = _exact_top(returns, epsilon, e_init)
        np.testing.assert_allclose(lam, vals, rtol=1e-10, atol=0)
        np.testing.assert_allclose(np.abs(np.sum(vecs * vs, axis=1)), 1.0,
                                   rtol=0, atol=1e-8)
        # consecutive vectors sign-aligned
        assert np.all(np.sum(vecs[1:] * vecs[:-1], axis=1) >= 0)

    @pytest.mark.parametrize("N, path", [
        (STACKED_MAX_N, "stacked"),
        (STACKED_MAX_N + 1, "per-step"),
    ])
    def test_track_top_logs_its_steps(self, caplog, N, path):
        T = 3 * FULL_EVERY + 7
        returns, _ = _noise(4, T, N)
        _, stats = _track_stats(caplog, returns, 0.02)
        assert stats["path"] == path
        assert stats["steps"] == T
        if path == "stacked":
            assert stats["power_iterations"] == stats["matvecs"] == 0
            assert stats["exact_steps"] == T
            assert stats["certified"] == 0
        else:
            # every step is a converged power step, a certified refresh or
            # an exact one: the power steps given up between refreshes plus
            # the refreshes not certified
            refreshes = T // FULL_EVERY
            assert 0 <= stats["certified"] <= refreshes
            assert stats["exact_steps"] == (stats["give_ups"] + refreshes
                                            - stats["certified"])
            assert stats["power_iterations"] >= T - T // FULL_EVERY
            assert stats["max_sin_bound"] <= POWER_TOL
            # a certified refresh costs one dsymv more; a step after a
            # converged one (none here: noise) one fewer
            assert stats["matvecs"] <= (stats["power_iterations"]
                                        + stats["certified"])
            assert stats["max_power_bound"] <= POWER_TOL

    def test_spiked_refreshes_are_certified(self, caplog):
        # a strong spike separates lambda_1 from the Frobenius norm of the
        # rest, so every refresh is proven and none calls dsyevr
        returns, _ = _spiked(STACKED_MAX_N + 14, 5 * FULL_EVERY + 7, 20.0)
        (lam, vecs), stats = _track_stats(caplog, returns, 0.02)
        assert stats["path"] == "per-step"
        assert stats["certified"] == 5
        assert stats["exact_steps"] == stats["give_ups"]
        assert 0 < stats["max_sin_bound"] <= POWER_TOL
        # a step after a converged one takes its first product from the
        # last one in O(N), without a dsymv
        assert stats["matvecs"] < stats["power_iterations"]
        assert 0 < stats["max_power_bound"] <= POWER_TOL
        vals, vs = _exact_top(returns, 0.02)
        np.testing.assert_allclose(lam, vals, rtol=1e-10, atol=0)
        np.testing.assert_allclose(np.abs(np.sum(vecs * vs, axis=1)), 1.0,
                                   rtol=0, atol=1e-8)
        # every step, certified, exact or between refreshes, within
        # POWER_TOL of the eigh eigenvector
        assert _distance(vecs, vs).max() <= POWER_TOL

    def test_shift_follows_psd_start(self, caplog):
        # a PSD E_0 keeps every E_t PSD, and the power iteration runs on
        # E - sigma; an indefinite E_0 keeps sigma at 0 for the whole run
        returns, _ = _spiked(STACKED_MAX_N + 14, 3 * FULL_EVERY, 20.0)
        _, stats = _track_stats(caplog, returns, 0.02)
        assert stats["shift"] > 0
        caplog.clear()
        e_init = np.diag(np.linspace(2.0, -0.5, STACKED_MAX_N + 14))
        (lam, vecs), stats = _track_stats(caplog, returns, 0.02, e_init)
        assert stats["path"] == "per-step"
        assert stats["power_iterations"] > 0
        assert stats["shift"] == 0
        vals, vs = _exact_top(returns, 0.02, e_init)
        np.testing.assert_allclose(lam, vals, rtol=1e-10, atol=0)
        assert _distance(vecs, vs).max() <= POWER_TOL


    def test_zero_returns_from_zero_start(self, caplog):
        # E_t = 0 at every step: each power step's first product is zero, so
        # it gives up and the step is taken exactly, with no warning (the
        # suite turns every warning into an error)
        T, N = 3 * FULL_EVERY, STACKED_MAX_N + 4
        (lam, vecs), stats = _track_stats(caplog, np.zeros((T, N)), 0.02,
                                          np.zeros((N, N)))
        assert stats["path"] == "per-step"
        assert stats["exact_steps"] == T
        assert np.all(lam == 0.0)
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0,
                                   rtol=0, atol=1e-15)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


class TestPowerAccuracy:
    @pytest.mark.parametrize("ratio", [0.7, 0.8, 0.9])
    def test_slow_contraction_meets_tolerance(self, ratio):
        # lambda_2 / lambda_1 = ratio, started about 1.4e-8 from v_1: a stop
        # on the step size alone returns a vector ratio / (1 - ratio) times
        # the last step from v_1, up to 9x POWER_TOL
        rng = np.random.default_rng(14)
        w = np.concatenate([[1.0, ratio], rng.uniform(0.1, 0.5, 38)])
        E, Q = _rotated(w, 5)
        g = rng.standard_normal(38)
        start = Q[:, 0] + 1e-8 * (Q[:, 1] + Q[:, 2:] @ g / np.linalg.norm(g))
        top, v, _, bound, *_ = _power(_lower(E), 1.0,
                                      start / np.linalg.norm(start))
        assert v is not None
        assert top == pytest.approx(1.0, rel=1e-12)
        assert bound <= POWER_TOL
        assert _distance(v, Q[:, 0]) <= POWER_TOL


    @staticmethod
    def _half_gap(low):
        # lambda_1 = 1, lambda_2 = 0.5 and the rest in [low, 0.5], started
        # about 1e-3 from v_1
        rng = np.random.default_rng(15)
        w = np.concatenate([[1.0, 0.5], rng.uniform(low, 0.5, 38)])
        E, Q = _rotated(w, 6)
        start = Q[:, 0] + 1e-3 * Q[:, 1:] @ rng.standard_normal(39) / 6.0
        return E, Q[:, 0], start / np.linalg.norm(start)

    def test_shift_takes_fewer_iterations(self):
        # unshifted the iteration contracts at 0.5, on E - 0.25 at 1/3
        E, v1, start = self._half_gap(0.0)
        top, v, plain, bound, x, u, used, _ = _power(_lower(E), 1.0, start)
        assert used == 0
        assert top == pytest.approx(1.0, rel=1e-12)
        assert bound <= POWER_TOL
        assert _distance(v, v1) <= POWER_TOL
        # the product handed on is the unshifted E x
        np.testing.assert_allclose(u, E @ x, rtol=0, atol=1e-15)
        top, v, shifted, bound, x, u, used, rho = _power(
            _lower(E), 1.0, start, shift=0.25)
        assert used == 0.25
        assert shifted < plain
        assert top == pytest.approx(1.0, rel=1e-12)
        assert bound <= POWER_TOL
        assert _distance(v, v1) <= POWER_TOL
        np.testing.assert_allclose(u, E @ x, rtol=0, atol=1e-15)
        # the rate measured on E - 0.25 implies lambda_2 = 0.5
        assert used + rho * (top - used) == pytest.approx(0.5, rel=0.05)

    def test_shift_clamped_below_half_lambda1(self):
        # on E - 1 the eigenvalue farthest from 0 is lambda_40 - 1, not
        # lambda_1 - 1 = 0; the shift is clamped to half the norm of the
        # first product, at most lambda_1 / 2, and the iteration then
        # contracts at about (0.5 - lambda_40) / 0.5
        E, v1, start = self._half_gap(0.3)
        top, v, _, bound, _, _, used, _ = _power(_lower(E), 1.0, start,
                                                 shift=1.0)
        assert used == pytest.approx(0.5 * np.linalg.norm(E @ start),
                                     rel=1e-14)
        assert used < 0.5
        assert v is not None
        assert top == pytest.approx(1.0, rel=1e-12)
        assert bound <= POWER_TOL
        assert _distance(v, v1) <= POWER_TOL


class TestCertificate:
    def test_second_eigenvector_rejected(self):
        # a near-degenerate top pair: the second eigenvector is a fixed
        # point of the power map, so the step-size rule alone accepts it
        rng = np.random.default_rng(11)
        w = np.concatenate([[10.0, 10.0 - 1e-6], rng.uniform(0.1, 1.0, 38)])
        E, Q = _rotated(w, 3)
        top, v, *_ = _power(_lower(E), 1.0, Q[:, 1], strict=True)
        assert v is not None
        assert top == pytest.approx(w[1], rel=1e-12)
        assert _certify(_lower(E), 1.0, v) is None

    def test_pure_noise_rejected(self):
        # the exact top eigenvector has a tiny residual, but the bulk's
        # Frobenius norm cannot be told apart from lambda_1
        R = np.random.default_rng(12).standard_normal((300, 100))
        E = R.T @ R / 300
        v = np.linalg.eigh(E)[1][:, -1]
        assert _certify(_lower(E), 1.0, v) is None

    def test_spiked_top_accepted(self):
        rng = np.random.default_rng(13)
        w = np.concatenate([[50.0], rng.uniform(0.5, 1.5, 39)])
        E, _ = _rotated(w, 4)
        v = np.linalg.eigh(E)[1][:, -1]
        # E = c F with the tracker's decay scalar c
        c = 0.37
        theta, bound = _certify(_lower(E / c), c, v)
        top = np.linalg.eigvalsh(E)[-1]
        assert abs(theta - top) <= 1e-14 * top
        assert 0 < bound <= POWER_TOL
