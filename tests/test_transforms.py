import logging

import numpy as np
import pytest

from rmtkit import spectra, transforms
from rmtkit.density import SpectralDensity
from rmtkit.transforms import (ConvergenceError, PoleOnSupportError,
                               TransformError)


@pytest.fixture(scope="module")
def mp025():
    return spectra.mp_density(0.25)


@pytest.fixture(scope="module")
def semicircle():
    return spectra.wigner_semicircle(1.0)


# complex w whose preimages under G (and psi) lie off the support
W_OFF_AXIS = [0.1 + 0.2j, -0.3 + 0.1j, 0.2 - 0.3j, -0.2 - 0.05j, 0.05 + 0.01j]
MP_QS = [0.25, 0.5, 2.0]


def _trapezoid_nodes(d):
    """Nodes and weights of the trapezoid rule on d's grid, plus its atoms."""
    half = np.diff(d.grid) / 2
    weights = np.zeros_like(d.grid)
    weights[:-1] += half
    weights[1:] += half
    x = np.concatenate([d.grid, [loc for loc, _ in d.atoms]])
    c = np.concatenate([weights * d.density, [m for _, m in d.atoms]])
    return x, c


class TestQuadrature:
    @pytest.fixture(scope="class")
    def mixed(self):
        # a continuous part plus atoms at 0 and 2
        grid = np.linspace(0.5, 1.5, 201)
        return SpectralDensity.from_unnormalized(
            grid, 1 - 4 * (grid - 1) ** 2, ((0.0, 0.2), (2.0, 0.3)))

    def test_cauchy_matches_complex_sum(self, mixed):
        x, c = _trapezoid_nodes(mixed)
        z = np.array([0.3 - 0.01j, 1.0 - 0.01j, 1.7 + 0.01j, 3.0, -1 + 2j])
        direct = np.array([np.sum(c / (zz - x)) for zz in z])
        got = transforms._cauchy(*transforms._nodes(mixed), z)
        assert np.all(np.abs(got - direct) <= 1e-13 * np.abs(direct))

    def test_psi_matches_direct_sum(self, mixed):
        x, c = _trapezoid_nodes(mixed)
        y = np.concatenate([1 / (np.array([0.3, 1.0, 1.7, 3.0]) - 0.01j),
                            [0.4 + 0.3j, -0.5 + 0.2j, 2.0 - 1.0j]])
        direct = np.array([np.sum(c * x * yy / (1 - x * yy)) for yy in y])
        got = transforms._psi(*transforms._nodes(mixed), y)
        assert np.all(np.abs(got - direct) <= 1e-13 * np.abs(direct))


def _plain_fixed_point(f, z, grid, name, tol=1e-14):
    """w <- f(w, z) from w = z with no acceleration, each point until its
    step is below tol (1 + |w|): the reference for ``_subordinate``."""
    w = z.copy()
    active = np.arange(z.size)
    for _ in range(20000):
        new = f(w[active], z[active])
        step = np.abs(new - w[active])
        w[active] = new
        active = active[step >= tol * (1 + np.abs(new))]
        if not active.size:
            return w
    raise AssertionError(f"{name}: {active.size} points still moving")


def _subordinate_record(caplog, caller):
    (record,) = [r for r in caplog.records
                 if r.getMessage().startswith("subordinate:")
                 and r.args["caller"] == caller]
    return record.args


SUBORDINATED = {
    "free_add": lambda: transforms.free_add(spectra.mp_density(0.25),
                                            spectra.wigner_semicircle(1.0)),
    "free_multiply": lambda: transforms.free_multiply(
        spectra.mp_density(0.25), spectra.mp_density(0.1)),
    "dressed_q0.5": lambda: spectra.dressed_spectrum(
        spectra.powerlaw_prior_density(spectra.PowerLawPrior(0.35)), 0.5),
    "dressed_q2": lambda: spectra.dressed_spectrum(
        spectra.powerlaw_prior_density(spectra.PowerLawPrior(0.35)), 2.0),
}


class TestSubordinate:
    @pytest.mark.parametrize("case", SUBORDINATED)
    def test_matches_plain_fixed_point(self, case, monkeypatch):
        fast = SUBORDINATED[case]()
        monkeypatch.setattr(transforms, "_subordinate", _plain_fixed_point)
        ref = SUBORDINATED[case]()
        assert fast.atoms == ref.atoms
        assert fast.l1_distance(ref) < 1e-10

    @pytest.mark.parametrize("rho", [0.99, 0.95 * np.exp(0.5j), -0.9])
    def test_error_bound(self, rho):
        # a map with a known fixed point that contracts by |rho| there; a
        # stop on the ratio of successive steps, which secant steps shrink
        # faster than the map contracts, or on the step alone, misses it
        grid = np.linspace(0.0, 1.0, 2000)
        z = grid - 0.5j
        fixed = z + 0.3

        def f(w, z):
            e = w - (z + 0.3)
            return z + 0.3 + rho * e + 0.5 * e ** 2

        w = transforms._subordinate(f, z, grid, "test")
        assert np.all(np.abs(w - fixed)
                      <= transforms.NEWTON_TOL * (1 + np.abs(fixed)))

    @pytest.mark.parametrize("q", [0.56, 3.0])
    def test_newton_map_matches_plain_fixed_point(self, q, monkeypatch):
        # EWMA's map is a damped Newton step; unguarded secant steps sent
        # points at these q to the root with Im G < 0.  Its rounding floor
        # is about 5e-14, so the reference stops at 1e-13.
        fast = spectra.ewma_density(q)
        monkeypatch.setattr(
            transforms, "_subordinate",
            lambda *args: _plain_fixed_point(*args, tol=1e-13))
        assert fast.l1_distance(spectra.ewma_density(q)) < 1e-10

    def test_logs_sweeps_and_bound(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="rmtkit.transforms"):
            SUBORDINATED["free_add"]()
        stats = _subordinate_record(caplog, "free_add")
        assert stats["points"] == 2000
        assert stats["sweeps"] >= 1
        assert 0 <= stats["bound"] <= transforms.NEWTON_TOL
        assert stats["seconds"] > 0

    @pytest.mark.parametrize("caller, run", [
        ("free_multiply", SUBORDINATED["free_multiply"]),
        ("dressed_spectrum", SUBORDINATED["dressed_q0.5"]),
        ("elliptic_student_density",
         lambda: spectra.elliptic_student_density(
             spectra.EllipticParams(0.5, 4.0)))],
        ids=["free_multiply", "dressed_spectrum", "elliptic_student_density"])
    def test_product_record_names_caller(self, caller, run, caplog):
        # each caller of _product labels its own record
        with caplog.at_level(logging.DEBUG, logger="rmtkit.transforms"):
            run()
        callers = [r.args["caller"] for r in caplog.records
                   if r.getMessage().startswith("subordinate:")]
        assert callers == [caller]
        assert _subordinate_record(caplog, caller)["sweeps"] >= 1

    @pytest.mark.parametrize("case", ["free_add", "free_multiply"])
    def test_sweeps_pinned(self, case, caplog):
        # the plain fixed point takes 270 (free_add) and 473 sweeps
        with caplog.at_level(logging.DEBUG, logger="rmtkit.transforms"):
            SUBORDINATED[case]()
        stats = _subordinate_record(caplog, case)
        assert stats["sweeps"] <= 60
        assert stats["secant_steps"] > 0

    @pytest.mark.parametrize("q, sweeps", [(0.3, 26), (0.5, 40), (0.7, 37)])
    def test_newton_map_not_slowed(self, q, sweeps, caplog):
        # the EWMA map is a damped Newton step: secant steps must not slow it
        with caplog.at_level(logging.DEBUG, logger="rmtkit.transforms"):
            spectra.ewma_density(q)
        assert _subordinate_record(caplog, "ewma_density")["sweeps"] <= sweeps


class TestResolvent:
    def test_far_field_decay(self, mp025):
        z = 1000.0
        g = transforms.resolvent(mp025, z)
        assert g.real == pytest.approx(1.0 / z, rel=1e-2)

    def test_atom_resolvent_exact(self):
        d = SpectralDensity.atom(2.0)
        assert transforms.resolvent(d, 5.0) == pytest.approx(1.0 / 3.0)

    def test_herglotz_sign_below_axis(self, mp025):
        g = transforms.resolvent(mp025, 1.0 - 1e-4j)
        assert g.imag > 0

    def test_pole_on_support_raises(self, mp025):
        with pytest.raises(PoleOnSupportError):
            transforms.resolvent(mp025, 1.0)

    def test_density_recovery(self, mp025):
        lo, hi = spectra.mp_edges(0.25)
        grid = np.linspace(lo + 0.05, hi - 0.05, 50)
        # eps must stay above the quadrature grid spacing (~3e-3 mid-bulk);
        # the Lorentzian smoothing then costs O(eps) accuracy
        eps = 2e-3
        rho = np.array([transforms.resolvent(mp025, x - 1j * eps).imag / np.pi
                        for x in grid])
        assert np.allclose(rho, mp025.interpolate(grid), atol=0.02)


class TestBlue:
    def test_round_trip(self, mp025, semicircle):
        for w in [0.05, 0.2, -0.3, 0.1 + 0.2j]:
            z = transforms.blue(mp025, w)
            assert transforms.resolvent(mp025, z) == pytest.approx(w, abs=1e-8)
        # closed forms: B = 1/w + 1/(1 - qw) for MP(q), w + 1/w for the unit
        # semicircle; B(w) lies in the half-plane opposite to w's
        laws = [(spectra.mp_density(q), lambda w, q=q: 1 / w + 1 / (1 - q * w))
                for q in MP_QS]
        laws.append((semicircle, lambda w: w + 1 / w))
        for d, exact in laws:
            for w in W_OFF_AXIS:
                z = transforms.blue(d, w)
                assert z == pytest.approx(exact(w), rel=1e-9)
                assert np.sign(z.imag) == -np.sign(w.imag)

    def test_atom_closed_form(self):
        d = SpectralDensity.atom(1.5)
        assert transforms.blue(d, 2.0) == pytest.approx(1.5 + 0.5)

    def test_closed_form_seeded(self):
        # seeded w plus a semicircle point whose root lies just above the
        # axis beyond the upper edge, next to spurious roots of the
        # quadrature sum inside the support.  Kept:
        # the w whose closed-form root lies in the half-plane opposite to w
        # (w in the image of G) and at least 0.05 from the support, where
        # the grid quadrature resolves G
        rng = np.random.default_rng(1)
        ws = [complex(a, b) for a, b in rng.uniform(-1.5, 1.5, (40, 2))]
        ws.append(0.688966 - 3.1256e-4j)
        laws = [(spectra.mp_density(q), lambda w, q=q: 1 / w + 1 / (1 - q * w))
                for q in MP_QS]
        laws.append((spectra.wigner_semicircle(1.0), lambda w: w + 1 / w))
        checked = 0
        for d, exact in laws:
            lo, hi = d.support()
            for w in ws:
                z = exact(w)
                if (np.sign(z.imag) != -np.sign(w.imag)
                        or abs(z - np.clip(z.real, lo, hi)) < 0.05):
                    continue
                assert transforms.blue(d, w) == pytest.approx(z, rel=1e-9)
                checked += 1
        assert checked >= 100

    def test_logs_subordinate_record(self, mp025, caplog):
        with caplog.at_level(logging.DEBUG, logger="rmtkit.transforms"):
            transforms.blue(mp025, 0.1 + 0.2j)
        stats = _subordinate_record(caplog, "blue")
        assert stats["points"] == 1
        assert stats["sweeps"] >= 1
        assert stats["bound"] <= transforms.NEWTON_TOL

    def test_diverges_at_zero(self, mp025):
        with pytest.raises(TransformError):
            transforms.blue(mp025, 0.0)

    def test_beyond_fold_raises(self, semicircle):
        # G(edge) = 1 for the unit semicircle; w beyond that has no preimage
        with pytest.raises(ConvergenceError):
            transforms.blue(semicircle, 1.5)

    @pytest.mark.parametrize("w", [1 + 1j, 2 - 1j])
    def test_no_preimage_off_axis_raises(self, semicircle, w):
        # |G| <= 1 for the unit semicircle; the quadrature sum still has
        # roots among its poles, within a grid step of the support
        with pytest.raises(ConvergenceError, match="grid step"):
            transforms.blue(semicircle, w)

    def test_r_transform_mean_at_origin(self, mp025):
        r = transforms.r_transform(mp025, 1e-4)
        assert complex(r).real == pytest.approx(mp025.mean(), abs=1e-2)

    def test_wigner_r_is_linear(self, semicircle):
        # R(w) = sigma^2 w for the semicircle
        for w in [0.1, 0.3, -0.2]:
            r = transforms.r_transform(semicircle, w)
            assert complex(r).real == pytest.approx(w, abs=5e-3)


class TestSpectrumEdges:
    def test_mp_edges_analytic(self):
        lo, hi = transforms.spectrum_edges(spectra.mp_blue(0.25))
        assert lo == pytest.approx(0.25, abs=1e-6)
        assert hi == pytest.approx(2.25, abs=1e-6)

    def test_wigner_edges_analytic(self):
        lo, hi = transforms.spectrum_edges(spectra.wigner_blue(1.0))
        assert lo == pytest.approx(-2.0, abs=1e-6)
        assert hi == pytest.approx(2.0, abs=1e-6)

    def test_ewma_edges_match_root_condition(self):
        lo, hi = transforms.spectrum_edges(spectra.ewma_blue(0.5))
        for lam in (lo, hi):
            assert lam - np.log(lam) - 1.5 == pytest.approx(0.0, abs=1e-7)

    def test_one_sided_raises(self):
        # B(w) = 1/w + exp(w) has a single reachable stationary point in the
        # scan window on the positive side only when restricted
        def B(w):
            return 1.0 / w + 1.0  # atom: no stationary points at all
        with pytest.raises(TransformError):
            transforms.spectrum_edges(B)


class TestSTransform:
    def test_atom_inverse(self):
        d = SpectralDensity.atom(2.0)
        assert transforms.s_transform(d, 0.3) == pytest.approx(0.5)

    def test_mp_closed_form(self, mp025):
        for w in [0.1, 0.3, 0.5, -0.4]:
            s = transforms.s_transform(mp025, w)
            assert complex(s).real == pytest.approx(1.0 / (1.0 + 0.25 * w),
                                                    abs=1e-6)
        for q in MP_QS:
            d = spectra.mp_density(q)
            for w in W_OFF_AXIS:
                assert transforms.s_transform(d, w) == pytest.approx(
                    1.0 / (1.0 + q * w), rel=1e-9)

    def test_mp_near_lower_edge(self):
        # B of the size-biased law lands close to the lower edge of MP(0.9),
        # where its quadrature is good to about 1.4e-7; a guard that stops
        # each step at half the distance to the axis reached a spurious root
        # of the quadrature sum there and raised
        w = -1.049162 + 0.038276j
        assert transforms.s_transform(spectra.mp_density(0.9), w) == (
            pytest.approx(1.0 / (1.0 + 0.9 * w), rel=1e-6))

    def test_unreachable_branch_raises(self, mp025):
        # chi(w) would exceed 1/lambda_max: no preimage on the real branch
        with pytest.raises(ConvergenceError):
            transforms.s_transform(mp025, 5.0)

    def test_principal_branch_bound(self, mp025):
        # psi maps y < 0 onto (-1, 0): w <= -1 has no preimage there
        for w in (-1.5, -1.0):
            with pytest.raises(ConvergenceError):
                transforms.s_transform(mp025, w)

    def test_negative_support_raises(self, semicircle):
        with pytest.raises(TransformError, match="non-negative support"):
            transforms.s_transform(semicircle.shifted(1.0), 0.1 + 0.1j)


class TestFreeAdd:
    def test_semicircle_self_convolution(self, semicircle):
        out = transforms.free_add(semicircle, semicircle)
        ref = spectra.wigner_semicircle(np.sqrt(2.0))
        assert out.l1_distance(ref) < 0.01
        assert out.variance() == pytest.approx(2.0, abs=0.05)

    def test_atom_shift_shortcut(self, mp025):
        out = transforms.free_add(mp025, SpectralDensity.atom(2.0))
        lo, hi = out.support()
        ref_lo, ref_hi = spectra.mp_edges(0.25)
        # support() is threshold-based on a discrete grid: edge positions are
        # only accurate to the local grid spacing
        assert lo == pytest.approx(ref_lo + 2.0, abs=1e-5)
        assert hi == pytest.approx(ref_hi + 2.0, abs=1e-5)

    def test_mean_additivity(self, mp025, semicircle):
        out = transforms.free_add(mp025, semicircle)
        assert out.mean() == pytest.approx(mp025.mean() + semicircle.mean(),
                                           abs=0.02)
        assert out.variance() == pytest.approx(
            mp025.variance() + semicircle.variance(), abs=0.05)

    def test_unconverged_points_raise(self, mp025, semicircle, monkeypatch):
        monkeypatch.setattr(transforms, "MAX_SWEEPS", 2)
        with pytest.raises(ConvergenceError, match=r"\d+ grid points"):
            transforms.free_add(mp025, semicircle)

    def test_atoms_only_raise(self):
        # two atoms each: the fixed point contracts at a rate of 1 - O(eps)
        bernoulli = SpectralDensity(np.array([-1.0, 1.0]), np.zeros(2),
                                    ((-1.0, 0.5), (1.0, 0.5)))
        with pytest.raises(ConvergenceError, match=r"\d+ grid points"):
            transforms.free_add(bernoulli, bernoulli)


class TestFreeMultiply:
    def test_atom_scaling_shortcut(self, mp025):
        out = transforms.free_multiply(mp025, SpectralDensity.atom(2.0))
        assert out.support()[1] == pytest.approx(2.0 * 2.25, abs=1e-5)

    def test_negative_support_rejected(self, semicircle, mp025):
        with pytest.raises(TransformError):
            transforms.free_multiply(semicircle, mp025)

    def test_mean_multiplicativity(self, mp025):
        other = spectra.mp_density(0.1)
        out = transforms.free_multiply(mp025, other)
        assert out.mean() == pytest.approx(1.0, abs=0.01)
        # variances of mean-one laws add under free multiplication: q1 + q2
        assert out.variance() == pytest.approx(0.35, abs=0.05)

    def test_unconverged_points_raise(self, mp025, monkeypatch):
        monkeypatch.setattr(transforms, "MAX_SWEEPS", 2)
        with pytest.raises(ConvergenceError, match=r"\d+ grid points"):
            transforms.free_multiply(mp025, spectra.mp_density(0.1))

    def test_atom_at_zero(self, mp025):
        # the product holds the larger of the two atoms at zero: here the
        # mass 1 - 1/2 of MP(2); means of mean-one laws multiply to 1
        out = transforms.free_multiply(mp025, spectra.mp_density(2.0))
        assert out.atoms == ((0.0, pytest.approx(0.5, abs=1e-9)),)
        assert out.mean() == pytest.approx(1.0, abs=0.01)

    def test_mp_product_matches_sample_of_wishart_of_wishart(self, mp025):
        # E = sample matrix (q=0.25) of data whose true covariance is itself
        # a q=0.1 Wishart: spectrum = free product of the two MP laws
        rng = np.random.default_rng(7)
        N, T1, T2 = 300, 3000, 1200
        C = rng.standard_normal((N, T1))
        C = C @ C.T / T1
        w, v = np.linalg.eigh(C)
        Csq = (v * np.sqrt(np.clip(w, 0, None))) @ v.T
        X = rng.standard_normal((T2, N)) @ Csq
        E = X.T @ X / T2
        sample = np.linalg.eigvalsh(E)
        out = transforms.free_multiply(mp025, spectra.mp_density(0.1))
        emp = SpectralDensity.from_samples(sample, nbins=40)
        assert out.l1_distance(emp) < 0.12
