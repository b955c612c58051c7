"""Spectral densities: a continuous part sampled on a grid plus discrete atoms.

The central value object of the package.  A density is normalized so that the
integral of the continuous part plus the atom masses equals one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SpectralDensity", "DensityError"]

logger = logging.getLogger(__name__)

MASS_TOL = 1e-6
# grid size of every density that ``spectra`` and ``transforms`` build
GRID_POINTS = 2000


class DensityError(ValueError):
    """Raised when a spectral density violates its invariants."""


def _check_finite(grid: np.ndarray, density: np.ndarray) -> None:
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(density))):
        raise DensityError("grid and density must be finite")


def _as_atoms(atoms) -> tuple[tuple[float, float], ...]:
    out = []
    for loc, mass in atoms:
        loc, mass = float(loc), float(mass)
        if not (np.isfinite(loc) and np.isfinite(mass)):
            raise DensityError(f"atom ({loc}, {mass}) is not finite")
        if mass < -1e-12 or mass > 1.0 + 1e-12:
            raise DensityError(f"atom mass {mass} outside [0, 1]")
        if mass > 1e-15:
            out.append((loc, mass))
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class SpectralDensity:
    """Eigenvalue density rho(lambda) on an ascending grid plus point masses.

    ``density`` holds non-negative values of the continuous part at the grid
    points; ``atoms`` is a list of ``(location, mass)`` pairs.  Grid,
    density and atoms must be finite, and the total mass (trapezoid
    integral plus atom masses) must be 1 within ``MASS_TOL``.  Both arrays
    are stored read-only.
    """

    grid: np.ndarray
    density: np.ndarray
    atoms: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float, ndmin=1)
        dens = np.atleast_1d(np.asarray(self.density, dtype=float))
        if grid.size != dens.size:
            raise DensityError("grid and density must have the same length")
        _check_finite(grid, dens)
        if grid.size >= 2 and not np.all(np.diff(grid) > 0):
            raise DensityError("grid must be strictly ascending")
        if np.any(dens < -1e-10):
            raise DensityError("density must be non-negative")
        dens = np.clip(dens, 0.0, None)
        atoms = _as_atoms(self.atoms)
        # both arrays are copies, stored read-only: no write breaks the
        # checks once they pass, and the caller's arrays stay writable
        grid.flags.writeable = dens.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", dens)
        object.__setattr__(self, "atoms", atoms)
        mass = self.mass()
        if abs(mass - 1.0) > MASS_TOL:
            raise DensityError(f"total mass {mass:.8f} differs from 1")

    # -- constructors ------------------------------------------------------

    @classmethod
    def atom(cls, location: float) -> "SpectralDensity":
        """A unit point mass at ``location``."""
        return cls(np.array([location]), np.array([0.0]), ((location, 1.0),))

    @classmethod
    def from_unnormalized(cls, grid, density, atoms=()) -> "SpectralDensity":
        """Build a density, rescaling the continuous part to unit total mass.

        Before the rescale it logs, at DEBUG and credited to its caller, the
        mass the grid lost: ``lost_mass`` = (1 - atom mass) - trapezoid
        mass of the continuous part, positive where the density falls short.
        """
        grid = np.asarray(grid, dtype=float)
        density = np.asarray(density, dtype=float)
        _check_finite(grid, density)
        density = np.clip(density, 0.0, None)
        atoms = _as_atoms(atoms)
        atom_mass = sum(m for _, m in atoms)
        cont = float(np.trapezoid(density, grid)) if grid.size >= 2 else 0.0
        logger.debug("from_unnormalized: lost_mass=%(lost_mass).7e",
                     {"lost_mass": 1.0 - atom_mass - cont}, stacklevel=2)
        if cont <= 0:
            if abs(atom_mass - 1.0) > MASS_TOL:
                raise DensityError("no continuous mass and atoms do not sum to 1")
            return cls(grid, np.zeros_like(grid), atoms)
        density = density * ((1.0 - atom_mass) / cont)
        return cls(grid, density, atoms)

    @classmethod
    def from_samples(cls, values, nbins: int = 100) -> "SpectralDensity":
        """Histogram estimate of a density from eigenvalue samples, binned
        over their range."""
        values = np.asarray(values, dtype=float).ravel()
        hist, edges = np.histogram(values, bins=nbins,
                                   range=(values.min(), values.max()),
                                   density=True)
        mid = 0.5 * (edges[:-1] + edges[1:])
        return cls.from_unnormalized(mid, hist)

    # -- basic queries -----------------------------------------------------

    @property
    def is_atomic(self) -> bool:
        return self.continuous_mass() < 1e-12

    def continuous_mass(self) -> float:
        if self.grid.size < 2:
            return 0.0
        return float(np.trapezoid(self.density, self.grid))

    def atom_mass(self) -> float:
        return float(sum(m for _, m in self.atoms))

    def mass(self) -> float:
        return self.continuous_mass() + self.atom_mass()

    def mean(self) -> float:
        m = sum(loc * w for loc, w in self.atoms)
        if self.grid.size >= 2:
            m += float(np.trapezoid(self.grid * self.density, self.grid))
        return m

    def second_moment(self) -> float:
        m = sum(loc**2 * w for loc, w in self.atoms)
        if self.grid.size >= 2:
            m += float(np.trapezoid(self.grid**2 * self.density, self.grid))
        return m

    def variance(self) -> float:
        return self.second_moment() - self.mean() ** 2

    def support(self) -> tuple[float, float]:
        """Smallest interval containing the atoms and the non-negligible
        continuous part."""
        los, his = [], []
        if self.atoms:
            los.append(self.atoms[0][0])
            his.append(self.atoms[-1][0])
        # the checked unit mass leaves a density with no atoms a
        # continuous part, hence a positive maximum
        if self.continuous_mass() > 1e-12:
            nz = np.nonzero(self.density > 1e-12 * self.density.max())[0]
            los.append(float(self.grid[nz[0]]))
            his.append(float(self.grid[nz[-1]]))
        return min(los), max(his)

    def cdf(self, x: float) -> float:
        """Mass at or below ``x``: the atoms there plus the integral of the
        continuous part, piecewise linear between grid points as the
        trapezoid rule assumes."""
        mass = sum(m for loc, m in self.atoms if loc <= x)
        if self.grid.size >= 2 and x > self.grid[0]:
            k = np.searchsorted(self.grid, x)
            x = min(x, self.grid[-1])
            mass += float(np.trapezoid(
                np.append(self.density[:k], self.interpolate(x)),
                np.append(self.grid[:k], x)))
        return mass

    # -- manipulation ------------------------------------------------------

    def interpolate(self, x) -> np.ndarray:
        """Continuous part evaluated at arbitrary points (zero outside grid)."""
        if self.grid.size < 2:
            return np.zeros_like(np.asarray(x, dtype=float))
        return np.interp(np.asarray(x, dtype=float), self.grid, self.density,
                         left=0.0, right=0.0)

    def shifted(self, offset: float) -> "SpectralDensity":
        return SpectralDensity(
            self.grid + offset, self.density,
            tuple((loc + offset, m) for loc, m in self.atoms))

    def scaled(self, factor: float) -> "SpectralDensity":
        """Density of ``factor * H`` (pushforward under multiplication)."""
        if factor == 0:
            return SpectralDensity.atom(0.0)
        if factor < 0:
            grid = (self.grid * factor)[::-1]
            dens = (self.density / abs(factor))[::-1]
        else:
            grid = self.grid * factor
            dens = self.density / factor
        return SpectralDensity(
            grid, dens, tuple((loc * factor, m) for loc, m in self.atoms))

    def l1_distance(self, other: "SpectralDensity") -> float:
        """L1 distance between the continuous parts on a merged grid.

        The grid is the union of both grids plus the floats just outside
        each grid's ends, where ``interpolate`` drops to zero, so every
        breakpoint of either density is a node.
        """
        ends = np.concatenate([g[[0, -1]] for g in (self.grid, other.grid)])
        x = np.union1d(np.union1d(self.grid, other.grid), np.concatenate(
            [np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)]))
        return float(np.trapezoid(np.abs(self.interpolate(x) - other.interpolate(x)), x))
