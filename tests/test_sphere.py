import tracemalloc
import warnings

import numpy as np
import pytest

from bispect.errors import DomainError, PrecisionWarning, TagMismatchError
from bispect.groups import SO3, SU2, inverse, random_element, z_rotation
from bispect.harmonic import translate
from bispect.clebsch import subgroup_projection
from bispect.sphere import (
    SphereFunction,
    h_rank_report,
    random_sphere_function,
    rotate_sphere,
    sphere_coefficients,
    sphere_eval,
    sphere_grid,
    sphere_lift,
    sphere_synthesis,
    _grid_theta_columns,
    _theta_columns,
)
from bispect.wigner import little_d_direct, little_d_stack


def test_theta_weights_integrate_legendre_exactly():
    for resolution in (4, 8, 16):
        grid = sphere_grid(resolution)
        x = np.cos(grid.thetas)
        for k in range(2 * resolution):
            val = np.dot(grid.theta_weights, np.polynomial.legendre.Legendre.basis(k)(x))
            assert abs(val - (2.0 if k == 0 else 0.0)) < 1e-11


def test_coefficient_synthesis_round_trip(rng):
    grid = sphere_grid(8)
    coeffs = [rng.standard_normal(2 * l + 1) + 1j * rng.standard_normal(2 * l + 1) for l in range(7)]
    s = sphere_synthesis(coeffs, grid)
    back = sphere_coefficients(s, 6)
    for l in range(7):
        assert np.max(np.abs(coeffs[l] - back[l])) < 1e-12


def test_sphere_transforms_match_per_degree_formulas(rng):
    # reference: one phi phase matrix, theta weight and little-d column per degree
    resolution, bandlimit = 8, 7
    grid = sphere_grid(resolution)
    n = 2 * resolution
    planes = little_d_stack(2 * bandlimit, grid.thetas)
    values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    harm = [rng.standard_normal(2 * l + 1) + 1j * rng.standard_normal(2 * l + 1) for l in range(bandlimit + 1)]
    coeffs = sphere_coefficients(SphereFunction(grid, values), bandlimit)
    synth = sphere_synthesis(harm, grid).values
    ref_synth = np.zeros(grid.shape, dtype=complex)
    for ell in range(bandlimit + 1):
        ms = np.arange(-ell, ell + 1)
        col = planes[2 * ell][:, :, ell]
        theta_part = (grid.theta_weights[:, None] * col).T
        ref = np.einsum("nj,jk,kn->n", theta_part, values, np.exp(1j * np.outer(grid.phis, ms))) / (2 * n)
        assert np.max(np.abs(coeffs[ell] - ref)) <= 1e-13 * np.max(np.abs(ref))
        ref_synth += (2 * ell + 1) * (col * harm[ell][None, :]) @ np.exp(-1j * np.outer(ms, grid.phis))
    assert np.max(np.abs(synth - ref_synth)) <= 1e-13 * np.max(np.abs(ref_synth))

    # scattered points, one theta repeated, against the per-point sum
    thetas = np.append(rng.uniform(0.0, np.pi, 40), [0.0, np.pi, 1.0, 1.0]).reshape(4, 11)
    phis = rng.uniform(0.0, 2 * np.pi, thetas.shape)
    planes = little_d_stack(2 * bandlimit, thetas.reshape(-1))
    ref_eval = np.zeros(thetas.size, dtype=complex)
    for ell in range(bandlimit + 1):
        phase = np.exp(-1j * np.outer(phis, np.arange(-ell, ell + 1)))
        ref_eval += (2 * ell + 1) * np.sum(planes[2 * ell][:, :, ell] * phase * harm[ell], axis=1)
    ref_eval = ref_eval.reshape(thetas.shape)
    got = sphere_eval(harm, thetas, phis)
    assert np.max(np.abs(got - ref_eval)) <= 1e-13 * np.max(np.abs(ref_eval))


def test_constant_sphere_function_lifts_to_delta():
    grid = sphere_grid(8)
    s = SphereFunction(grid, np.ones(grid.shape, dtype=complex))
    coeffs = sphere_lift(s, 4)
    assert abs(coeffs[0].ravel()[0] - 1.0) < 1e-12
    for ell in range(1, 5):
        assert np.max(np.abs(coeffs[ell])) < 1e-12


def test_degree_two_harmonic_lift():
    grid = sphere_grid(8)
    harm = [np.zeros(2 * l + 1, dtype=complex) for l in range(5)]
    harm[2][4] = 0.5 + 0.2j
    harm[2][0] = np.conj(harm[2][4])
    s = sphere_synthesis(harm, grid)
    coeffs = sphere_lift(s, 4)
    for ell in (0, 1, 3, 4):
        assert np.max(np.abs(coeffs[ell])) < 1e-12
    svals = np.linalg.svd(coeffs[2], compute_uv=False)
    assert svals[0] > 1e-3 and svals[1] < 1e-12


def test_lift_row_support_and_rank():
    s = random_sphere_function(8, 5, seed=4)
    coeffs = sphere_lift(s, 5)
    for ell in range(6):
        p = subgroup_projection(SO3, ell)
        assert np.max(np.abs(p @ coeffs[ell] - coeffs[ell])) < 1e-12
        assert np.linalg.matrix_rank(coeffs[ell], tol=1e-10) == 1
    report = h_rank_report(coeffs)
    assert all(entry["maximal"] for entry in report.values())


def test_h_rank_detects_missing_degree():
    s = random_sphere_function(8, 3, seed=5)
    coeffs = sphere_lift(s, 5)  # degrees 4, 5 vanish
    report = h_rank_report(coeffs)
    assert report[2]["maximal"]
    assert not report[5]["maximal"]


def test_h_rank_requires_so3():
    from bispect.harmonic import random_bandlimited

    with pytest.raises(TagMismatchError):
        h_rank_report(random_bandlimited(2, SU2, seed=1))


def test_lift_rotation_invariance(rng):
    # composing with a rotation then lifting equals translating the lift
    bandlimit = 6
    s = random_sphere_function(8, bandlimit, seed=6)
    coeffs = sphere_lift(s, bandlimit)
    for _ in range(3):
        x = random_element(SO3, rng)
        rotated = rotate_sphere(s, x, bandlimit=bandlimit)
        lhs = sphere_lift(rotated, bandlimit)
        rhs = translate(coeffs, x)
        for ell in range(bandlimit + 1):
            assert np.max(np.abs(lhs[ell] - rhs[ell])) < 1e-8


def test_rotation_composes():
    s = random_sphere_function(6, 4, seed=7)
    x = z_rotation(0.9)
    one = rotate_sphere(rotate_sphere(s, x, bandlimit=4), x, bandlimit=4)
    both = rotate_sphere(s, z_rotation(1.8), bandlimit=4)
    assert np.max(np.abs(one.values - both.values)) < 1e-9


def test_rotate_sphere_rejects_su2(rng):
    s = random_sphere_function(6, 4, seed=9)
    with pytest.raises(TagMismatchError):
        rotate_sphere(s, random_element(SU2, rng))


def test_theta_columns_match_direct_little_d():
    bandlimit = 10
    thetas = np.array([0.0, 0.3, 1.0, 2.2, np.pi])
    cols = _theta_columns(thetas, bandlimit)
    for ell in range(bandlimit + 1):
        for t, theta in enumerate(thetas):
            ref = little_d_direct(2 * ell, theta)[:, ell]
            assert np.max(np.abs(cols[ell, t, bandlimit - ell : bandlimit + ell + 1] - ref)) <= 1e-13
        assert not np.any(cols[ell, :, : bandlimit - ell]) and not np.any(cols[ell, :, bandlimit + ell + 1 :])


def test_rotate_sphere_memory_at_large_bandlimit():
    # 4,096 distinct rotated thetas at L = 31; keeping every little-d plane would pass 3 GB
    s = random_sphere_function(32, 31, seed=8)
    x = random_element(SO3, np.random.default_rng(9))
    tracemalloc.start()
    try:
        rotated = rotate_sphere(s, x, 31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    back = rotate_sphere(rotated, inverse(x), 31)
    assert peak <= 256 * 2**20
    assert np.max(np.abs(back.values - s.values)) <= 1e-9 * np.max(np.abs(s.values))


def test_negative_bandlimit_lift_is_domain_error():
    with pytest.raises(DomainError):
        sphere_lift(random_sphere_function(4, 2, seed=1), -1)


def test_bandlimit_at_or_above_the_resolution_warns():
    # a resolution-R grid resolves degrees up to R - 1; above that the
    # coefficients are aliased, as a coarse rule makes fourier_forward's
    s = random_sphere_function(4, 3, seed=2)
    for bandlimit in (4, 6):
        with pytest.warns(PrecisionWarning, match="sphere resolution 4 <= bandlimit"):
            sphere_coefficients(s, bandlimit)
    with pytest.warns(PrecisionWarning):
        sphere_lift(s, 4)


@pytest.mark.parametrize("resolution, bandlimit", [(16, 6), (8, 6), (6, 4), (4, 3)])
def test_resolved_bandlimits_do_not_warn(resolution, bandlimit):
    # (16, 6) is the benchmark's glyph grid; (8, 6) and (6, 4) are the verify suites'
    s = random_sphere_function(resolution, bandlimit, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", PrecisionWarning)
        sphere_lift(s, bandlimit)
        rotate_sphere(s, random_element(SO3, np.random.default_rng(4)))


@pytest.mark.parametrize("resolution", [8, 16, 17])
def test_memoized_theta_columns_are_the_direct_ones(resolution):
    grid = sphere_grid(resolution)
    s = random_sphere_function(resolution, 6, seed=resolution)
    coeffs = sphere_coefficients(s, 6)
    cols, memo_phase = _grid_theta_columns(grid, 6)
    direct = _theta_columns(grid.thetas, 6)
    assert cols.tobytes() == direct.transpose(2, 0, 1).tobytes()
    assert _grid_theta_columns(grid, 6)[0] is cols and _grid_theta_columns.cache_info().maxsize is not None
    with pytest.raises(ValueError):
        cols[6, 0, 0] = 2.0
    with pytest.raises(ValueError):
        memo_phase[0, 0] = 2.0
    # sphere_coefficients with the columns and phase evaluated directly gives the same bits
    n = 2 * resolution
    phase = np.exp(1j * np.outer(grid.phis, np.arange(-6, 7)))
    assert memo_phase.tobytes() == phase.tobytes()
    t = (grid.theta_weights[:, None] * s.values) @ phase * ((2 * np.pi / n) / (4 * np.pi))
    a = (np.ascontiguousarray(direct.transpose(2, 0, 1)) @ t.T[:, :, None])[..., 0].T
    # the batched quadrature is the einsum over theta up to rounding
    summed = np.einsum("ltn,tn->ln", direct, t)
    assert np.max(np.abs(a - summed)) <= 1e-15 * np.max(np.abs(summed))
    for ell, got in enumerate(coeffs):
        assert got.tobytes() == a[ell, 6 - ell : 7 + ell].tobytes()


@pytest.mark.parametrize("resolution", [16.0, 8.5, True, False, np.float64(16.0), np.True_, "16"])
def test_grid_at_a_resolution_that_is_not_an_integer_is_a_domain_error(resolution):
    sphere_grid(16)  # a float equal to a cached int must not reach the memo
    sphere_grid(1)
    with pytest.raises(DomainError, match="resolution must be an integer"):
        sphere_grid(resolution)


def test_grid_at_a_numpy_integer_resolution_is_the_grid_at_the_int():
    grid = sphere_grid(np.int64(16))
    assert grid is sphere_grid(16) and type(grid.resolution) is int
    assert sphere_grid(np.int32(5)) is sphere_grid(5)
    assert sphere_grid.cache_info().maxsize == 32
    with pytest.raises(DomainError, match="resolution must be >= 1"):
        sphere_grid(np.int64(0))
