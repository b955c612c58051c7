import logging

import numpy as np
import pytest
from scipy.special import gammainccinv, gammaincinv

from rmtkit import spectra, transforms
from rmtkit.density import GRID_POINTS, SpectralDensity
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
        # _product's psi: the Cauchy sum of the size-biased weights at 1/y
        xk, ck = transforms._nodes(mixed)
        got = transforms._cauchy(xk, xk * ck, 1 / y)
        assert np.all(np.abs(got - direct) <= 1e-13 * np.abs(direct))


def _plain_fixed_point(f, z, grid, name, tol=1e-14):
    """w <- f(w, z) from w = z with no acceleration, each point until its
    step is below tol (1 + |w|): the reference for ``_subordinate``, whose
    maps return (image, reading).  Returns each point's reading from its
    last evaluation."""
    w = z.copy()
    reading = np.empty_like(z)
    active = np.arange(z.size)
    for _ in range(20000):
        new, reading[active] = f(w[active], z[active])
        step = np.abs(new - w[active])
        w[active] = new
        active = active[step >= tol * (1 + np.abs(new))]
        if not active.size:
            return reading
    raise AssertionError(f"{name}: {active.size} points still moving")


def _subordinate_record(caplog, caller):
    (record,) = [r for r in caplog.records
                 if r.getMessage().startswith("subordinate:")
                 and r.args["caller"] == caller]
    return record.args


def _ewma_newton(q):
    """A damped Newton map and its points, the arguments of
    ``_subordinate``: Newton steps on ``f(G) = z q G - q + log(1 - q G)``,
    the EWMA resolvent's equation, run as a map on ``w = 1/G`` at
    ``z = lambda - i eps`` on the EWMA grid, eps = 1e-6 of its span.  A
    point's step is halved until ``|q dG| < |1 - q G| / 2``, which keeps
    ``1 - q G`` off the branch cut of the logarithm."""
    lo, hi = spectra.ewma_edges(q)
    grid = spectra._edge_grid(lo, hi, 2000)

    def newton(w, z):
        g = 1.0 / w
        u = 1.0 - q * g
        dg = -(z * q * g - q + np.log(u)) / (z * q - q / u)
        m, half_u = np.abs(q * dg), 0.5 * np.abs(u)
        over = np.isfinite(dg) & (m >= half_u)
        if over.any():
            dg[over] *= transforms._halving(m[over], half_u[over])
        w = 1.0 / (g + dg)
        return w, w

    return newton, grid - 1j * 1e-6 * (hi - lo), grid, "ewma_newton"


def _ewma_rho(grid, w):
    return SpectralDensity.from_unnormalized(grid, (1.0 / w).imag / np.pi)


SUBORDINATED = {
    "free_add": lambda: transforms.free_add(spectra.mp_density(0.25),
                                            spectra.wigner_semicircle(1.0)),
    "free_multiply": lambda: transforms.free_multiply(
        spectra.mp_density(0.25), spectra.mp_density(0.1)),
    "dressed_q0.5": lambda: spectra.dressed_spectrum(
        spectra.powerlaw_prior_density(spectra.PowerLawPrior(0.35)), 0.5),
    "dressed_q2": lambda: spectra.dressed_spectrum(
        spectra.powerlaw_prior_density(spectra.PowerLawPrior(0.35)), 2.0),
    # where the cubic fine start moved the density most
    "dressed_q1.1": lambda: spectra.dressed_spectrum(
        spectra.powerlaw_prior_density(spectra.PowerLawPrior(0.35)), 1.1),
    "elliptic_0.5_4": lambda: spectra.elliptic_student_density(0.5, 4.0),
    "elliptic_0.05_10": lambda: spectra.elliptic_student_density(0.05, 10.0),
}


# case: (run, caller of _subordinate, `gated`, `plain_opening`,
# `linear_start` and `cubic_start` of test_evaluations_pinned)
EVALUATED = {
    "free_add": (SUBORDINATED["free_add"], "free_add", 9151, 7702, 7129,
                 5605),
    "free_multiply": (SUBORDINATED["free_multiply"], "free_multiply", 8965,
                      7761, 6506, 5363),
    "dressed_q0.5": (SUBORDINATED["dressed_q0.5"], "free_multiply", 9146,
                     7766, 6981, 5847),
    "elliptic": (SUBORDINATED["elliptic_0.5_4"], "elliptic_student_density",
                 7554, 6392, 5420, 4591),
}


def _catmull_rom(x, xp, fp):
    """The 4-point (Catmull-Rom) cubic through (xp, fp), xp a unit-spaced
    grid, each node's slope the centred secant of its neighbours, read at
    interior x."""
    k = np.searchsorted(xp, x, side="right") - 1
    t = x - xp[k]
    d = np.gradient(fp, xp)
    return ((2 * t**3 - 3 * t**2 + 1) * fp[k] + (t**3 - 2 * t**2 + t) * d[k]
            + (-2 * t**3 + 3 * t**2) * fp[k + 1] + (t**3 - t**2) * d[k + 1])


class TestPchip:
    @pytest.mark.parametrize("monotone", [True, False])
    def test_matches_scipy(self, monotone):
        # uneven nodes whose last interval is short, as the coarse grid's
        # is; the oracle is imported here alone, as it is slow to import
        from scipy.interpolate import PchipInterpolator

        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            xp = np.cumsum(rng.uniform(0.1, 2.0, n))
            xp[-1] = xp[-2] + rng.uniform(0.01, 0.1)
            fp = rng.normal(size=n)
            if monotone:
                fp = np.cumsum(np.abs(fp))
            x = np.sort(rng.uniform(xp[0], xp[-1], 500))
            ref = PchipInterpolator(xp, fp)(x)
            got = transforms._pchip(x, xp, fp)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(fp))

    def test_sharp_peak_stays_positive(self):
        # each interval stays between its end values, where the 4-point
        # cubic through the same positive data dips below zero
        xp = np.arange(6.0)
        fp = np.array([1e-3, 1e-3, 1.0, 1e-3, 1e-3, 1e-3])
        x = np.linspace(3.0, 4.0, 101)
        assert np.all(transforms._pchip(x, xp, fp) >= 1e-3)
        assert _catmull_rom(np.array([3.5]), xp, fp)[0] == pytest.approx(
            -0.0614375)

    def test_reproduces_linear_data(self):
        xp = np.array([0.0, 0.5, 2.0, 2.25, 5.0, 5.1])
        x = np.linspace(0.0, 5.1, 203)
        got = transforms._pchip(x, xp, 2.0 - 3.0 * xp)
        np.testing.assert_allclose(got, 2.0 - 3.0 * x, rtol=0, atol=1e-14)

    def test_nan_falls_back_to_interp(self):
        xp = np.arange(6.0)
        fp = np.array([0.0, 1.0, np.nan, 3.0, 2.0, 5.0])
        x = np.linspace(0.0, 5.0, 41)
        np.testing.assert_array_equal(transforms._pchip(x, xp, fp),
                                      np.interp(x, xp, fp))

    def test_stacked_rows(self):
        # one call on rows stacked as (k, n) equals one call per row bit for
        # bit, the row with a NaN falling back to np.interp alone, and
        # matches the oracle along axis 1 on the finite rows
        from scipy.interpolate import PchipInterpolator

        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 17, 40):
            xp = np.cumsum(rng.uniform(0.1, 2.0, n))
            fp = rng.normal(size=(5, n))
            fp[1] = np.cumsum(np.abs(fp[1]))
            fp[2] = 1.0
            fp[3, n // 2] = np.nan
            x = np.sort(rng.uniform(xp[0], xp[-1], 300))
            got = transforms._pchip(x, xp, fp)
            for row, data in zip(got, fp):
                np.testing.assert_array_equal(
                    row, transforms._pchip(x, xp, data))
            np.testing.assert_array_equal(got[3], np.interp(x, xp, fp[3]))
            if n >= 3:
                finite = [0, 1, 2, 4]
                ref = PchipInterpolator(xp, fp[finite], axis=1)(x)
                assert (np.max(np.abs(got[finite] - ref))
                        <= 1e-14 * np.max(np.abs(fp[finite])))


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
            image = z + 0.3 + rho * e + 0.5 * e ** 2
            return image, image

        w = transforms._subordinate(f, z, grid, "test")
        assert np.all(np.abs(w - fixed)
                      <= transforms.NEWTON_TOL * (1 + np.abs(fixed)))

    @pytest.mark.parametrize("points, stages",
                             [(1, 1), (3, 2), (5, 3), (300, 9)])
    def test_grid_shorter_than_stride(self, points, stages, caplog):
        # strides that add no point run no stage; a stage after the first
        # may start from two solved points, interpolated linearly
        grid = np.linspace(0.0, 1.0, points)
        z = grid - 0.5j

        def f(w, z):
            image = z + 0.3 + 0.5 * (w - (z + 0.3))
            return image, image

        with caplog.at_level(logging.DEBUG, logger="rmtkit.transforms"):
            w = transforms._subordinate(f, z, grid, "test")
        assert _subordinate_record(caplog, "test")["stages"] == stages
        assert np.all(np.abs(w - (z + 0.3))
                      <= transforms.NEWTON_TOL * (1 + np.abs(z + 0.3)))

    @pytest.mark.parametrize("q", [0.56, 3.0])
    def test_newton_map_matches_plain_fixed_point(self, q):
        # a damped Newton map; unguarded secant steps sent points at these
        # q to the root with Im G < 0.  Its rounding floor is about 5e-14,
        # so the reference stops at 1e-13.
        args = _ewma_newton(q)
        fast = _ewma_rho(args[2], transforms._subordinate(*args))
        ref = _ewma_rho(args[2], _plain_fixed_point(*args, tol=1e-13))
        assert fast.l1_distance(ref) < 1e-10

    def test_logs_sweeps_and_bound(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="rmtkit.transforms"):
            SUBORDINATED["free_add"]()
        stats = _subordinate_record(caplog, "free_add")
        assert stats["points"] == 2000
        # strides 256, 128, ..., 1
        assert stats["stages"] == 9
        assert stats["sweeps"] >= 1
        assert 0 <= stats["bound"] <= transforms.NEWTON_TOL
        assert stats["seconds"] > 0

    @pytest.mark.parametrize("caller, run", [
        ("free_multiply", SUBORDINATED["free_multiply"]),
        ("free_multiply", SUBORDINATED["dressed_q0.5"]),
        ("elliptic_student_density", SUBORDINATED["elliptic_0.5_4"])],
        ids=["free_multiply", "dressed_spectrum", "elliptic_student_density"])
    def test_product_record_names_caller(self, caller, run, caplog):
        # each caller of _product labels its own record; dressed_spectrum
        # is a call to free_multiply
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

    @pytest.mark.parametrize("case, single_stage",
                             [("free_add", 14147), ("free_multiply", 12277),
                              ("dressed_q0.5", 12662), ("elliptic", 11970)])
    def test_evaluations_pinned(self, case, single_stage, caplog):
        # map evaluations over all points; a single stage, every point
        # started at w = z, took single_stage, secant steps gated on a
        # settled rho (|rho_k - rho_{k-1}| < 0.1 |rho_k|) took `gated`,
        # fine points opening with a plain step took `plain_opening`, and
        # one fine stage after a stride-8 coarse one, started from a linear
        # interpolant of the coarse points, took `linear_start`, and from
        # their monotone cubic `cubic_start`
        run, caller, gated, plain_opening, linear_start, cubic_start = (
            EVALUATED[case])
        with caplog.at_level(logging.DEBUG, logger="rmtkit.transforms"):
            run()
        stats = _subordinate_record(caplog, caller)
        assert stats["evaluations"] <= 0.75 * single_stage
        assert stats["evaluations"] <= 0.9 * gated
        assert stats["evaluations"] <= 0.95 * plain_opening
        assert stats["evaluations"] <= 0.88 * linear_start
        assert stats["evaluations"] <= 0.9 * cubic_start
        assert stats["evaluations"] >= stats["points"] * 2

    @pytest.mark.parametrize("case", ["free_add", "free_multiply"])
    def test_every_stage_starts_in_half_plane(self, case, monkeypatch):
        # the map sends the half-plane of z (of y for the product) into
        # itself; each stage's first call meets only points no earlier call
        # evaluated, at their start, which must lie in that half-plane
        starts = []
        subordinate = transforms._subordinate

        def wrapped(f, z, grid, name):
            seen = set()

            def g(w, zz):
                new = np.array([v not in seen for v in zz.tolist()])
                assert new.all() or not new.any()
                if new.all():
                    starts.append((w.copy(), zz.copy()))
                    seen.update(zz.tolist())
                return f(w, zz)

            return subordinate(g, z, grid, name)

        monkeypatch.setattr(transforms, "_subordinate", wrapped)
        SUBORDINATED[case]()
        assert len(starts) == 9
        assert sum(w.size for w, _ in starts) == GRID_POINTS
        for w, zz in starts:
            assert np.all(np.sign(w.imag) == np.sign(zz.imag))

    @pytest.mark.parametrize("case", EVALUATED)
    def test_density_read_off_last_evaluation(self, case, caplog,
                                              monkeypatch):
        # each map evaluation runs one quadrature per law, and the density
        # is the first one's at each point's last evaluation: no quadrature
        # pass follows the solve
        points = []
        cauchy = transforms._cauchy

        def counted(x, c, z):
            points.append(np.size(z))
            return cauchy(x, c, z)

        monkeypatch.setattr(transforms, "_cauchy", counted)
        run, caller, *_ = EVALUATED[case]
        with caplog.at_level(logging.DEBUG, logger="rmtkit.transforms"):
            run()
        stats = _subordinate_record(caplog, caller)
        assert sum(points) == 2 * stats["evaluations"]

    def test_rounding_stop_counted(self, caplog):
        # fine points that start within rounding of the fixed point read
        # rho as a ratio of rounding errors, here with |rho| >= 1; they stop
        # on two steps at rounding level, each counted
        grid = np.linspace(0.0, 1.0, 2000)
        z = grid - 0.5j

        def f(w, z):
            image = z + 0.3 - 0.9 * (w - (z + 0.3))
            return image, image

        with caplog.at_level(logging.DEBUG, logger="rmtkit.transforms"):
            w = transforms._subordinate(f, z, grid, "test")
        stats = _subordinate_record(caplog, "test")
        assert stats["rounding_stops"] > 0
        assert 0 <= stats["bound"] <= transforms.NEWTON_TOL
        assert np.all(np.abs(w - (z + 0.3))
                      <= transforms.NEWTON_TOL * (1 + np.abs(z + 0.3)))

    @pytest.mark.parametrize("law, raising, sweeps", [
        pytest.param(lambda: spectra.mp_density(0.25), [54, 55, 89], 7.13,
                     id="mp0.25"),
        pytest.param(lambda: spectra.mp_density(0.5),
                     [48, 49, 54, 55, 86, 87, 88, 89], 7.79, id="mp0.5"),
        pytest.param(lambda: spectra.wigner_semicircle(1.0),
                     [*range(48, 60), 87, 88, 89, 117, 118, 119], 9.58,
                     id="sc1")])
    def test_blue_newton_not_slowed(self, law, raising, sweeps, caplog):
        # blue's guarded Newton map, a damped Newton map, at 120 w: 60
        # complex w = r e^{i phi} (r outer, phi inner) and 30 real w on each
        # side of 0; `raising` indexes the w with no root found.  Secant
        # steps gated on a settled rho took 6.134, 6.793 and 8.579 sweeps
        # on average (7.152 over all three laws); without the gate 6.655,
        # 7.397 and 8.860, with the same w raising.  Each mean may exceed
        # the gated one by at most 1
        r = np.geomspace(0.05, 2, 10)
        phi = np.deg2rad([30, -30, 90, -90, 150, -150])
        real = np.geomspace(0.02, 1.5, 30)
        ws = np.concatenate([(r[:, None] * np.exp(1j * phi)).ravel(),
                             real, -real])
        d = law()
        raised = []
        with caplog.at_level(logging.DEBUG, logger="rmtkit.transforms"):
            for i, w in enumerate(ws):
                try:
                    transforms.blue(d, w)
                except ConvergenceError:
                    raised.append(i)
        assert raised == raising
        counts = [rec.args["sweeps"] for rec in caplog.records
                  if rec.getMessage().startswith("subordinate:")]
        assert np.mean(counts) <= sweeps


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

    def test_pole_at_an_atom_raises(self):
        two = SpectralDensity([1.0], [0.0], ((1.0, 0.5), (2.0, 0.5)))
        with pytest.raises(PoleOnSupportError):
            transforms.resolvent(two, 2.0)

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

    def test_real_closed_form(self, semicircle):
        # 60 w on each side of 0, MP(2) with its atom at zero included.  A w
        # beyond the fold point raises; every root returned is the closed
        # form's, real and outside the support
        ws = np.concatenate([np.linspace(-3, -1e-3, 60),
                             np.linspace(1e-3, 3, 60)])
        laws = [(spectra.mp_density(q), lambda w, q=q: 1 / w + 1 / (1 - q * w))
                for q in MP_QS]
        laws.append((semicircle, lambda w: w + 1 / w))
        roots = 0
        for d, exact in laws:
            lo, hi = d.support()
            for w in ws:
                try:
                    z = transforms.blue(d, w)
                except ConvergenceError:
                    continue
                assert z.imag == 0
                assert z.real == pytest.approx(exact(w), rel=1e-12)
                assert (z.real > hi) if w > 0 else (z.real < lo)
                roots += 1
        assert roots >= 270

    def test_logs_subordinate_record(self, mp025, caplog):
        with caplog.at_level(logging.DEBUG, logger="rmtkit.transforms"):
            transforms.blue(mp025, 0.1 + 0.2j)
        stats = _subordinate_record(caplog, "blue")
        assert stats["points"] == 1
        assert stats["stages"] == 1
        assert stats["sweeps"] >= 1
        assert stats["bound"] <= transforms.NEWTON_TOL

    @pytest.mark.parametrize("w", [0.3, -0.4])
    def test_real_w_logs_subordinate_record(self, mp025, caplog, w):
        # real w runs the same Newton map, with the same record and stop
        with caplog.at_level(logging.DEBUG, logger="rmtkit.transforms"):
            transforms.blue(mp025, w)
        stats = _subordinate_record(caplog, "blue")
        assert stats["points"] == 1
        assert stats["stages"] == 1
        assert stats["sweeps"] >= 1
        assert stats["bound"] <= transforms.NEWTON_TOL

    def test_small_real_w_starts_near_root(self, caplog):
        # the root lies near 1/w = 1000, far from the support [0.09, 2.9];
        # a start at the edge took 29 sweeps, one at lo + 1/w takes 3
        with caplog.at_level(logging.DEBUG, logger="rmtkit.transforms"):
            z = transforms.blue(spectra.mp_density(0.5), 1e-3)
        assert z.real == pytest.approx(1e3 + 1 / (1 - 0.5e-3), rel=1e-12)
        assert _subordinate_record(caplog, "blue")["sweeps"] <= 5

    def test_diverges_at_zero(self, mp025):
        with pytest.raises(TransformError):
            transforms.blue(mp025, 0.0)

    def test_beyond_fold_raises(self, semicircle):
        # G(edge) = 1 for the unit semicircle; w beyond that has no preimage
        with pytest.raises(ConvergenceError):
            transforms.blue(semicircle, 1.5)

    def test_beyond_lower_fold_raises(self, semicircle):
        # and G(-edge) = -1
        with pytest.raises(ConvergenceError, match=r"G\(edge-\)"):
            transforms.blue(semicircle, -1.5)

    @pytest.mark.parametrize("q", [0.25, 0.5])
    def test_mp_folds_at_its_edges(self, q):
        # the edges are B at its stationary points w = G(edge), which for
        # MP(q) are (edge + q - 1)/(2 q edge): just inside one, B(w) is at
        # the edge; just beyond it, w has no preimage
        d = spectra.mp_density(q)
        for edge in spectra.mp_edges(q):
            w = (edge + q - 1) / (2 * q * edge)
            assert transforms.blue(d, 0.99 * w).real == pytest.approx(
                edge, rel=1e-4)
            with pytest.raises(ConvergenceError):
                transforms.blue(d, 1.001 * w)

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

    def test_undefined_at_zero(self, mp025):
        with pytest.raises(TransformError, match="w != 0"):
            transforms.s_transform(mp025, 0.0)

    def test_zero_mean_raises(self):
        with pytest.raises(TransformError, match="non-zero mean"):
            transforms.s_transform(SpectralDensity.atom(0.0), 0.3)


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

    def test_point_mass_first_shifts_the_second(self, mp025):
        # R of a point mass at c is the constant c: delta_c + MP(1/4) is
        # MP(1/4) moved right by c, whose density is closed-form
        out = transforms.free_add(SpectralDensity.atom(2.0), mp025)
        assert out.atoms == ()
        x = out.grid - 2.0
        inner = np.clip((2.25 - x) * (x - 0.25), 0.0, None)
        ref = np.sqrt(inner) / (2.0 * np.pi * 0.25 * x)
        assert np.max(np.abs(out.density - ref)) <= 1e-6 * ref.max()

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

    def test_bernoulli_sum_is_arcsine(self):
        # two atoms each: the fixed point contracts at a rate of 1 - O(eps).
        # The sum of two symmetric Bernoulli laws is the arcsine law on
        # [-2, 2]; off its edges, measured within 0.99% relative
        bernoulli = SpectralDensity(np.array([-1.0, 1.0]), np.zeros(2),
                                    ((-1.0, 0.5), (1.0, 0.5)))
        out = transforms.free_add(bernoulli, bernoulli)
        assert out.atoms == ()
        inner = np.abs(out.grid) <= 1.9
        ref = 1 / (np.pi * np.sqrt(4 - out.grid[inner] ** 2))
        assert np.max(np.abs(out.density[inner] / ref - 1)) <= 0.015


class TestLoneAtom:
    """A law of one atom is taken in closed form only when its continuous
    part is negligible in mass and in first moment.  MP(1e13) holds 1e-13
    of its mass near 1e13, so its mean is 1; dropping that part read the
    mean of MP(1e13) + semicircle as 0."""

    @pytest.fixture(scope="class")
    def light_far_bulk(self):
        return spectra.mp_density(1e13)

    @pytest.mark.parametrize("call, law", [
        (lambda d, sc: transforms.free_add(d, sc), "free_add's a"),
        (lambda d, sc: transforms.free_add(sc, d), "free_add's b"),
        (lambda d, sc: transforms.free_multiply(d, spectra.mp_density(0.5)),
         "free_multiply's a"),
        (lambda d, sc: transforms.free_multiply(spectra.mp_density(0.5), d),
         "free_multiply's b"),
        (lambda d, sc: transforms.blue(d, 0.3 + 0.1j), "blue's law"),
        (lambda d, sc: transforms.s_transform(d, 0.3 + 0.1j),
         "s_transform's law")],
        ids=["free_add_a", "free_add_b", "free_multiply_a",
             "free_multiply_b", "blue", "s_transform"])
    def test_light_far_bulk_raises(self, light_far_bulk, semicircle, call,
                                   law):
        with pytest.raises(TransformError, match=f"^{law} is one atom at 0"):
            call(light_far_bulk, semicircle)

    def test_point_mass_shifts_semicircle(self, semicircle):
        out = transforms.free_add(SpectralDensity.atom(2.0), semicircle)
        ref = semicircle.shifted(2.0)
        assert np.array_equal(out.grid, ref.grid)
        assert np.array_equal(out.density, ref.density)
        assert out.atoms == ()


# w in both half-planes for the R- and S-transform identities
W_GAUGE = [0.05 + 0.05j, -0.1 + 0.2j, 0.2 - 0.1j, 0.3 + 0.3j, -0.25 - 0.15j]


@pytest.fixture(scope="module")
def prior035():
    return spectra.powerlaw_prior_density(spectra.PowerLawPrior(0.35))


class TestIdentityGauge:
    """R_{a+b} = R_a + R_b and S_{ab} = S_a S_b, read by ``blue`` on the
    output's grid: a check independent of the subordination that built it.
    Measured residuals: 1.0e-4 to 3.0e-4 (free_add), 2.2e-4 to 3.4e-4
    (free_multiply), 1.4e-3 to 2.7e-3 (dressed) and 3.0e-4 to 1.5e-3
    (elliptic)."""

    def test_free_add(self, mp025, semicircle):
        out = transforms.free_add(mp025, semicircle)
        for w in W_GAUGE:
            res = (transforms.r_transform(out, w)
                   - transforms.r_transform(mp025, w)
                   - transforms.r_transform(semicircle, w))
            assert abs(res) <= 5e-4

    def test_free_multiply(self, mp025):
        mp01 = spectra.mp_density(0.1)
        out = transforms.free_multiply(mp025, mp01)
        for w in W_GAUGE:
            res = (transforms.s_transform(out, w)
                   - transforms.s_transform(mp025, w)
                   * transforms.s_transform(mp01, w))
            assert abs(res) <= 5e-4

    def test_dressed_spectrum(self, prior035):
        mp05 = spectra.mp_density(0.5)
        out = spectra.dressed_spectrum(prior035, 0.5)
        for w in W_GAUGE:
            res = (transforms.s_transform(out, w)
                   - transforms.s_transform(prior035, w)
                   * transforms.s_transform(mp05, w))
            assert abs(res) <= 4e-3

    def test_elliptic(self):
        # the bulk is q (rho_D [x] MP(1/q)) without the product's atom
        # (0, 1 - q); rho_D is built as elliptic_student_density builds it
        q, mu = 0.5, 4.0
        E = spectra.elliptic_student_density(q, mu)
        law = SpectralDensity(E.grid / q, q**2 * E.density,
                              ((0.0, 1.0 - q),))
        s_lo = 2.0 * gammaincinv(0.5 * mu, 1e-17)
        s_hi = 2.0 * gammainccinv(0.5 * mu, 1e-17)
        d = np.geomspace(mu / s_hi, min(1e5, mu / s_lo), GRID_POINTS)
        rho_d = SpectralDensity.from_unnormalized(
            d, spectra._chi2_pdf(mu, mu / d) * mu / d**2)
        mp = spectra.mp_density(1.0 / q)
        # s_transform raises at 0.2 - 0.1i and 0.3 + 0.3i on this law
        for w in [0.05 + 0.05j, -0.1 + 0.2j, -0.25 - 0.15j, 0.1 - 0.05j,
                  -0.05 - 0.1j]:
            res = (transforms.s_transform(law, w)
                   - transforms.s_transform(rho_d, w)
                   * transforms.s_transform(mp, w))
            assert abs(res) <= 3e-3


class TestFreeMultiply:
    def test_atom_scaling_shortcut(self, mp025):
        out = transforms.free_multiply(mp025, SpectralDensity.atom(2.0))
        assert out.support()[1] == pytest.approx(2.0 * 2.25, abs=1e-5)

    def test_atom_at_zero_annihilates(self, mp025):
        out = transforms.free_multiply(SpectralDensity.atom(0.0), mp025)
        assert out.atoms == ((0.0, 1.0),) and out.continuous_mass() == 0.0

    def test_two_atom_factor(self, mp025):
        # a law of atoms alone has no quantile grid: its bulk reaches its
        # largest atom.  Means multiply: 1.5 * 1 (1.50029 measured)
        two = SpectralDensity([1.0], [0.0], ((1.0, 0.5), (2.0, 0.5)))
        out = transforms.free_multiply(two, mp025)
        assert out.atoms == () and out.mass() == pytest.approx(1.0)
        assert out.mean() == pytest.approx(1.5, rel=1e-3)

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

    def test_symmetric_in_its_factors(self, prior035):
        mp05 = spectra.mp_density(0.5)
        ab = transforms.free_multiply(prior035, mp05)
        ba = transforms.free_multiply(mp05, prior035)
        assert ab.l1_distance(ba) <= 1e-8

    @pytest.mark.parametrize("q", [0.5, 2.0])
    def test_heavy_tailed_factor_moments(self, prior035, q):
        # the product with MP(q) has mean m1 and variance m2 + (q - 1) m1^2,
        # m1 and m2 the prior's moments.  An even grid over the whole
        # support read the mean 5-7% and the variance 54-68% high
        m1, m2 = prior035.mean(), prior035.second_moment()
        out = transforms.free_multiply(prior035, spectra.mp_density(q))
        assert out.mean() == pytest.approx(m1, rel=5e-3)
        assert out.variance() == pytest.approx(m2 + (q - 1) * m1**2, rel=0.05)
