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

    def test_atom_mass_bounds(self):
        with pytest.raises(DensityError):
            SpectralDensity.atom(1.0, mass=1.5)


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
