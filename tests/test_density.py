import logging

import numpy as np
import pytest

from rmtkit import fileio
from rmtkit.density import DensityError, SpectralDensity


def uniform(lo=0.0, hi=2.0, n=500):
    grid = np.linspace(lo, hi, n)
    return SpectralDensity(grid, np.full(n, 1.0 / (hi - lo)))


class TestInvariants:
    def test_total_mass_must_be_one(self):
        grid = np.linspace(0, 1, 100)
        with pytest.raises(DensityError):
            SpectralDensity(grid, np.full(100, 2.0))

    def test_grid_must_ascend(self):
        with pytest.raises(DensityError):
            SpectralDensity(np.array([0.0, 2.0, 1.0]), np.ones(3))

    def test_negative_density_rejected(self):
        grid = np.linspace(0, 1, 10)
        dens = np.ones(10)
        dens[3] = -0.5
        with pytest.raises(DensityError):
            SpectralDensity(grid, dens)

    def test_grid_and_density_lengths_must_match(self):
        with pytest.raises(DensityError, match="same length"):
            SpectralDensity(np.linspace(0, 1, 3), np.ones(2))

    def test_atom_mass_bounds(self):
        with pytest.raises(DensityError):
            SpectralDensity([1.0], [0.0], ((1.0, 1.5),))

    def test_nan_density_rejected(self):
        # nan fails neither the sign test nor the mass test
        with pytest.raises(DensityError, match="finite"):
            SpectralDensity(np.linspace(0, 1, 5), [1, 1, np.nan, 1, 1])

    def test_nan_grid_rejected(self):
        with pytest.raises(DensityError, match="finite"):
            SpectralDensity([0.0, 0.5, np.nan], np.ones(3))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_from_unnormalized_rejects_non_finite(self, bad):
        # one inf entry would normalise every other entry to 0 and itself
        # to nan
        dens = np.ones(5)
        dens[2] = bad
        with pytest.raises(DensityError, match="finite"):
            SpectralDensity.from_unnormalized(np.linspace(0, 1, 5), dens)

    def test_nan_atom_mass_rejected(self):
        # it was dropped as if its mass were 0
        with pytest.raises(DensityError, match="not finite"):
            SpectralDensity.from_unnormalized(np.linspace(0, 1, 5),
                                              np.ones(5), ((2.0, np.nan),))

    def test_nan_atom_location_rejected(self):
        # it was kept
        with pytest.raises(DensityError, match="not finite"):
            SpectralDensity.from_unnormalized(np.linspace(0, 1, 5),
                                              np.ones(5), ((np.nan, 0.2),))


class TestConstructors:
    def test_atom(self):
        d = SpectralDensity.atom(3.0)
        assert d.is_atomic
        assert d.mass() == pytest.approx(1.0)
        assert d.mean() == pytest.approx(3.0)
        assert d.variance() == pytest.approx(0.0)

    def test_from_unnormalized_rescales(self):
        grid = np.linspace(0, 1, 200)
        d = SpectralDensity.from_unnormalized(grid, 7.3 * np.ones(200))
        assert d.mass() == pytest.approx(1.0)

    def test_from_unnormalized_respects_atoms(self):
        grid = np.linspace(1, 2, 200)
        d = SpectralDensity.from_unnormalized(grid, np.ones(200),
                                              atoms=((0.0, 0.25),))
        assert d.continuous_mass() == pytest.approx(0.75)
        assert d.atom_mass() == pytest.approx(0.25)

    # with no continuous mass the atoms are the whole law, and must sum to 1
    @pytest.mark.parametrize("grid", [[0.5], np.linspace(0, 1, 5)],
                             ids=["one-point", "zero-density"])
    def test_from_unnormalized_without_continuous_mass(self, grid):
        grid = np.asarray(grid, dtype=float)
        d = SpectralDensity.from_unnormalized(grid, np.zeros(grid.size),
                                              ((0.2, 0.4), (0.7, 0.6)))
        assert d.is_atomic
        assert d.atom_mass() == pytest.approx(1.0)
        assert d.mean() == pytest.approx(0.2 * 0.4 + 0.7 * 0.6)
        with pytest.raises(DensityError, match="atoms do not sum to 1"):
            SpectralDensity.from_unnormalized(grid, np.zeros(grid.size),
                                              ((0.2, 0.4),))

    def test_from_unnormalized_logs_lost_mass(self, caplog):
        # the radius-2 semicircle cut to [-1.5, 1.5] loses the mass outside,
        # 1 - (a sqrt(4 - a^2) + 4 asin(a/2)) / (2 pi) at a = 1.5; the
        # trapezoid rule on 2000 points is off by 6.8e-8
        a = 1.5
        grid = np.linspace(-a, a, 2000)
        with caplog.at_level(logging.DEBUG, logger="rmtkit.density"):
            SpectralDensity.from_unnormalized(
                grid, np.sqrt(4 - grid**2) / (2 * np.pi))
        (record,) = caplog.records
        # stacklevel=2 credits the record to the caller
        assert record.funcName == "test_from_unnormalized_logs_lost_mass"
        cut = 1 - (a * np.sqrt(4 - a**2) + 4 * np.arcsin(a / 2)) / (2 * np.pi)
        assert cut == pytest.approx(0.1442936, abs=1e-7)
        assert record.args["lost_mass"] == pytest.approx(cut, abs=1e-6)

    def test_from_samples(self):
        rng = np.random.default_rng(0)
        d = SpectralDensity.from_samples(rng.uniform(0, 1, 20000), nbins=50)
        assert d.mass() == pytest.approx(1.0)
        assert d.mean() == pytest.approx(0.5, abs=0.02)


class TestQueries:
    def test_moments_of_uniform(self):
        d = uniform(0, 2)
        assert d.mean() == pytest.approx(1.0, abs=1e-9)
        assert d.variance() == pytest.approx(4.0 / 12.0, rel=1e-4)

    def test_support(self):
        d = uniform(0.5, 1.5)
        lo, hi = d.support()
        assert lo == pytest.approx(0.5)
        assert hi == pytest.approx(1.5)

    def test_arrays_are_read_only(self):
        # a density zeroed in place after its checks would have mass 0; the
        # caller's own arrays stay writable, and writing them leaves the
        # density as it was checked
        grid, dens = np.linspace(0.5, 1.5, 50), np.ones(50)
        d = SpectralDensity(grid, dens)
        with pytest.raises(ValueError, match="read-only"):
            d.density[:] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            d.grid[0] = 0.0
        grid[0], dens[:] = 0.0, 0.0
        assert d.grid[0] == 0.5 and d.mass() == pytest.approx(1.0)

    def test_cdf(self):
        d = uniform(0, 1)
        assert d.cdf(-1) == 0.0
        assert d.cdf(0.5) == pytest.approx(0.5, abs=1e-2)
        assert d.cdf(2) == pytest.approx(1.0)

    def test_cdf_between_grid_points(self):
        # uniform density on the coarsest grid: all mass lies between points
        d = SpectralDensity(np.array([0.0, 1.0]), np.ones(2))
        assert d.cdf(0.25) == 0.25
        assert d.cdf(0.5) == 0.5

    def test_cdf_counts_atoms(self):
        d = SpectralDensity.atom(1.0)
        assert d.cdf(0.5) == 0.0
        assert d.cdf(1.0) == 1.0


class TestManipulation:
    def test_shift_scale_roundtrip(self):
        d = uniform(0, 2)
        e = d.shifted(3.0).shifted(-3.0)
        assert np.allclose(e.grid, d.grid)
        s = d.scaled(2.0)
        assert s.mean() == pytest.approx(2.0, abs=1e-9)
        assert s.mass() == pytest.approx(1.0)

    def test_scaled_by_zero_is_an_atom_at_zero(self):
        s = uniform(1, 2).scaled(0.0)
        assert s.atoms == ((0.0, 1.0),) and s.continuous_mass() == 0.0

    def test_atom_interpolates_to_zero(self):
        # a one-point grid has no continuous part to interpolate
        d = SpectralDensity.atom(1.0)
        assert np.array_equal(d.interpolate([0.5, 1.0, 2.0]), np.zeros(3))

    def test_scaled_negative_flips(self):
        d = uniform(1, 2)
        s = d.scaled(-1.0)
        assert s.support()[1] == pytest.approx(-1.0)
        assert s.mass() == pytest.approx(1.0)

    def test_l1_distance_self_zero(self):
        d = uniform()
        assert d.l1_distance(d) == pytest.approx(0.0, abs=1e-12)

    def test_l1_distance_disjoint_two(self):
        a = uniform(0, 1)
        b = uniform(2, 3)
        assert a.l1_distance(b) == pytest.approx(2.0, rel=0.01)

    def test_l1_distance_first_points_dropped(self):
        # the dressed spectrum at q = 1 piles its mass at its lower edge;
        # without its first 3 points, and renormalized, it differs from
        # itself by twice the mass m0 of the dropped cells: m0 missing
        # below, and m0 spread over the rest.  An even 2000-point grid
        # over the support read 0.747 here, missing the dropped cells.
        from rmtkit import spectra
        d = spectra.dressed_spectrum(
            spectra.powerlaw_prior_density(spectra.PowerLawPrior(0.35)), 1.0)
        cut = SpectralDensity.from_unnormalized(d.grid[3:], d.density[3:],
                                                d.atoms)
        m0 = np.trapezoid(d.density[:4], d.grid[:4])
        assert d.l1_distance(cut) == pytest.approx(2 * m0, rel=1e-9)
        assert cut.l1_distance(d) == d.l1_distance(cut)


class TestSerialization:
    def test_csv_roundtrip(self, tmp_path):
        grid = np.linspace(1, 2, 100)
        d = SpectralDensity.from_unnormalized(grid, np.ones(100),
                                              atoms=((0.0, 0.3),))
        path = tmp_path / "d.csv"
        fileio.write_density_csv(path, d)
        e = fileio.read_density_csv(path)
        assert np.allclose(e.grid, d.grid)
        assert np.allclose(e.density, d.density)
        assert np.allclose(np.asarray(e.atoms), np.asarray(d.atoms))

    def test_csv_repeatable_bytes(self, tmp_path):
        d = uniform()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        fileio.write_density_csv(p1, d)
        fileio.write_density_csv(p2, d)
        assert p1.read_bytes() == p2.read_bytes()
