"""Functions on the sphere: grids, harmonic analysis, lifting to SO(3).

The lift follows the north-pole map f(R) = s(R z) with z = (0, 0, 1).
Writing R in z-y-z Euler angles, R z depends only on (beta, alpha), so the
gamma average forces every lifted Fourier coefficient matrix into its
m' = 0 row: P_ell F(ell) = F(ell), hence rank F(ell) <= 1.  Composing the
sphere function with a rotation x (s -> s(x .)) left-translates the lift,
so lifted bispectrum descriptors are exactly rotation invariant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, PrecisionWarning, TagMismatchError
from .groups import SO3, GroupElement
from .harmonic import CoefficientSet


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Equiangular (theta, phi) grid with exactness-matched theta weights."""

    resolution: int  # B; the grid is (2B) x (2B)
    thetas: np.ndarray
    phis: np.ndarray
    theta_weights: np.ndarray  # sum to 2 = integral of sin(theta)

    def __post_init__(self):
        for name in ("thetas", "phis", "theta_weights"):
            arr = np.array(getattr(self, name), dtype=float)  # freeze a copy: the caller may write to its array
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def shape(self) -> tuple[int, int]:
        return (2 * self.resolution, 2 * self.resolution)

    def unit_vectors(self) -> np.ndarray:
        """Cartesian points of the grid, shape (2B, 2B, 3)."""
        th = self.thetas[:, None]
        ph = self.phis[None, :]
        return np.stack(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th) * np.ones_like(ph)],
            axis=-1,
        )


def check_resolution(resolution: int, least: int = 1) -> None:
    """DomainError unless the resolution is an int or numpy integer, not a
    bool, and at least ``least``; 16.0 and ``True`` are refused."""
    if isinstance(resolution, bool) or not isinstance(resolution, (int, np.integer)):
        raise DomainError(f"resolution must be an integer, got {resolution!r}")
    if resolution < least:
        raise DomainError(f"resolution must be >= {least}")


def sphere_grid(resolution: int) -> SphereGrid:
    """Midpoint-equiangular grid, one object per resolution (memoized, 32 at most).

    A bool or a non-integer resolution, 16.0 included, is a DomainError, as
    is one below 1; both are checked before the memo, which a float equal to
    an int would otherwise hit.  ``cache_info()`` reports the memo."""
    check_resolution(resolution)
    return _sphere_grid(int(resolution))


@lru_cache(maxsize=32)
def _sphere_grid(resolution: int) -> SphereGrid:
    """The grid at an int resolution >= 1; theta weights solve the Legendre moment system."""
    n = 2 * resolution
    thetas = np.pi * (2 * np.arange(n) + 1) / (2 * n)
    phis = 2 * np.pi * np.arange(n) / n
    x = np.cos(thetas)
    vander = np.polynomial.legendre.legvander(x, n - 1).T  # rows P_k(x_j)
    moments = np.zeros(n)
    moments[0] = 2.0
    weights = np.linalg.solve(vander, moments)
    return SphereGrid(resolution, thetas, phis, weights)


sphere_grid.cache_info = _sphere_grid.cache_info


@dataclass(frozen=True, eq=False)
class SphereFunction:
    """Samples on an equiangular grid covering theta in [0, pi], phi in [0, 2pi)."""

    grid: SphereGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex)
        if vals.shape != self.grid.shape:
            raise DomainError(f"values must have shape {self.grid.shape}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def resolution(self) -> int:
        return self.grid.resolution


def _theta_columns(thetas: np.ndarray, bandlimit: int) -> np.ndarray:
    """d^ell_{n0}(theta_t) as (ell, t, n), n = -L..L; 0 at |n| > ell.

    For n >= 0, d^ell_{n0}(theta) = sqrt((ell-n)!/(ell+n)!) P_ell^n(cos theta)
    with the Condon-Shortley phase, run up in ell by the three-term
    recursion of these normalized Legendre functions (all bounded by 1);
    d^ell_{-n,0} = (-1)^n d^ell_{n0}.  O(thetas * L^2) memory.
    """
    if bandlimit < 0:
        raise DomainError(f"bandlimit must be nonnegative, got {bandlimit}")
    thetas = np.asarray(thetas, dtype=float)
    x, s = np.cos(thetas)[:, None], np.sin(thetas)
    out = np.zeros((bandlimit + 1, thetas.size, 2 * bandlimit + 1))
    pos = out[:, :, bandlimit:]  # n = 0..L
    pos[0, :, 0] = 1.0
    for ell in range(1, bandlimit + 1):
        n = np.arange(ell)
        # n < ell from rows ell - 1 and ell - 2; the second weight is 0 at
        # n = ell - 1, which covers ell = 1 (whose row ell - 2 wraps to pos[-1])
        prev, prev2 = pos[ell - 1, :, :ell], pos[ell - 2, :, :ell]
        pos[ell, :, :ell] = ((2 * ell - 1) * x * prev - np.sqrt((ell - 1) ** 2 - n**2) * prev2) / np.sqrt(ell**2 - n**2)
        pos[ell, :, ell] = -np.sqrt((2 * ell - 1) / (2 * ell)) * s * pos[ell - 1, :, ell - 1]
    out[:, :, :bandlimit] = pos[:, :, :0:-1] * (-1.0) ** np.arange(bandlimit, 0, -1)  # n = -L..-1
    return out


@lru_cache(maxsize=16)
def _grid_theta_columns(grid: SphereGrid, bandlimit: int) -> tuple[np.ndarray, np.ndarray]:
    """``_theta_columns`` on a grid's thetas and the phase e^{i n phi} (2B, 2L+1)
    on its phis, memoized per (grid, bandlimit) and read-only.

    ``sphere_grid`` hands out one grid per resolution, so the key is in
    effect (resolution, bandlimit)."""
    cols = _theta_columns(grid.thetas, bandlimit)
    phase = np.exp(1j * np.outer(grid.phis, np.arange(-bandlimit, bandlimit + 1)))
    cols.setflags(write=False)  # cached and shared by the whole process
    phase.setflags(write=False)
    return cols, phase


def sphere_coefficients(s: SphereFunction, bandlimit: int) -> list[np.ndarray]:
    """Harmonic coefficient row vectors a_ell[n], n = -ell..ell ascending.

    a_ell[n] = (1/4pi) * integral of s(theta, phi) e^{i n phi} d^ell_{n0}(theta).
    Exact for functions bandlimited at the grid's resolution - 1; a
    bandlimit at or above the resolution issues a PrecisionWarning, as the
    grid aliases those degrees.  The phi sum runs once for every n, then
    each degree is a theta quadrature, against a phase and theta columns
    memoized per grid and bandlimit.
    """
    grid = s.grid
    if bandlimit >= grid.resolution:
        warnings.warn(
            f"sphere resolution {grid.resolution} <= bandlimit {bandlimit}; coefficients are aliased",
            PrecisionWarning,
            stacklevel=2,
        )
    n = 2 * grid.resolution
    cols, phase = _grid_theta_columns(grid, bandlimit)
    t = (grid.theta_weights[:, None] * s.values) @ phase * ((2 * np.pi / n) / (4 * np.pi))
    a = np.einsum("ltn,tn->ln", cols, t)
    return [a[ell, bandlimit - ell : bandlimit + ell + 1] for ell in range(bandlimit + 1)]


def sphere_lift(s: SphereFunction, bandlimit: int) -> CoefficientSet:
    """Fourier coefficients on SO(3) of the north-pole lift f(R) = s(R z)."""
    coeffs = sphere_coefficients(s, bandlimit)
    mats = []
    for ell, a in enumerate(coeffs):
        m = np.zeros((2 * ell + 1, 2 * ell + 1), dtype=complex)
        m[ell, :] = a  # m' = 0 row
        mats.append(m)
    return CoefficientSet(SO3, bandlimit, tuple(mats))


def sphere_synthesis(coeffs: list[np.ndarray], grid: SphereGrid) -> SphereFunction:
    """Evaluate sum_ell (2ell+1) sum_n a_ell[n] e^{-i n phi} d^ell_{n0}(theta) on the grid."""
    thetas, phis = np.meshgrid(grid.thetas, grid.phis, indexing="ij")
    return SphereFunction(grid, sphere_eval(coeffs, thetas, phis))


def sphere_eval(coeffs: list[np.ndarray], thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Pointwise synthesis at arbitrary (theta, phi) arrays of equal shape.

    The theta part h[t, n] = sum_ell (2ell+1) a_ell[n] d^ell_{n0}(theta_t)
    runs once per distinct theta (2B of them on a grid mesh); each point
    then sums h against e^{-i n phi} over n = -L..L.
    """
    thetas = np.asarray(thetas, dtype=float)
    bandlimit = len(coeffs) - 1
    distinct, which = np.unique(thetas.reshape(-1), return_inverse=True)
    padded = np.array([np.pad(np.multiply(2 * ell + 1, a), bandlimit - ell) for ell, a in enumerate(coeffs)])
    h = np.einsum("ltn,ln->tn", _theta_columns(distinct, bandlimit), padded)
    phis = np.asarray(phis, dtype=float).reshape(-1)
    phase = np.exp(-1j * np.outer(phis, np.arange(-bandlimit, bandlimit + 1)))
    return np.sum(h[which] * phase, axis=1).reshape(thetas.shape)


def rotate_sphere(s: SphereFunction, x: GroupElement, bandlimit: int | None = None) -> SphereFunction:
    """Pullback s -> s(x .), resampled through the band-limited synthesis.

    The harmonic coefficients up to ``bandlimit`` (default: the grid's
    resolution - 1, the most it resolves) are evaluated at the rotated
    grid directions, so the result is exact for functions bandlimited
    there; its lift is the lift of s translated by x.
    """
    if x.tag != SO3:
        raise TagMismatchError("rotate_sphere needs an SO3 element")
    grid = s.grid
    v = grid.unit_vectors() @ x.data.T  # x applied to every grid direction
    thetas = np.arccos(np.clip(v[..., 2], -1.0, 1.0))
    phis = np.mod(np.arctan2(v[..., 1], v[..., 0]), 2 * np.pi)
    coeffs = sphere_coefficients(s, grid.resolution - 1 if bandlimit is None else bandlimit)
    return SphereFunction(grid, sphere_eval(coeffs, thetas, phis))


def random_sphere_function(resolution: int, bandlimit: int, seed: int = 0) -> SphereFunction:
    """Seeded random real bandlimited sphere function (bandlimit-projected noise)."""
    grid = sphere_grid(resolution)
    raw = np.random.default_rng(seed).standard_normal(grid.shape)
    coeffs = sphere_coefficients(SphereFunction(grid, raw), bandlimit)
    return sphere_synthesis(coeffs, grid)


def h_rank_report(coeffs: CoefficientSet) -> dict[int, dict]:
    """Numerical rank of each F(ell) against the projection rank (1 on SO3).

    A lifted coefficient set has maximal H-rank exactly when every degree's
    harmonic coefficient vector is nonzero.
    """
    if coeffs.tag != SO3:
        raise TagMismatchError("H-rank check applies to SO3 coefficient sets")
    scale = max(
        (float(np.linalg.norm(coeffs[ell], 2)) for ell in range(coeffs.bandlimit + 1)), default=0.0
    )
    report = {}
    for ell in range(coeffs.bandlimit + 1):
        svals = np.linalg.svd(coeffs[ell], compute_uv=False)
        rank = int(np.sum(svals > 1e-9 * max(scale, 1e-300)))
        report[ell] = {"rank": rank, "projection_rank": 1, "maximal": rank == 1}
    return report
