"""The real (cos/sin) basis of SO(3): U_l, the real table C_R and the float64 descriptors built with them."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bispect import bispectrum
from bispect.bispectrum import (
    REAL_BASIS_TOL,
    BispectrumDescriptor,
    bispectrum_matrix,
    build_descriptor,
    descriptor_distance,
    descriptor_max_relative_gap,
)
from bispect.clebsch import _real_cg, clebsch_gordan, in_band, real_basis, real_clebsch_gordan
from bispect.errors import DomainError
from bispect.glyphs import lift_beta
from bispect.groups import SO3, SU2, haar_quadrature, random_element
from bispect.harmonic import CoefficientSet, SampledFunction, fourier_forward, random_bandlimited
from bispect.reconstruct import find_alignment, reconstruct_so3
from bispect.wigner import dim, wigner_all

_GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def _benchmark_sets():
    """(coefficients, truth) of the so3-l8-roundtrip inputs at seed 0, as the benchmark op transforms them."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", _GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    tag, L, rule_bandlimit, count = gen.ROUND_TRIPS["so3-l8-roundtrip"]
    inputs, rule = gen.round_trip_inputs("so3-l8-roundtrip", 0), haar_quadrature(rule_bandlimit, tag)
    return [(fourier_forward(SampledFunction(tag, rule, inputs[f"samples_{k}"]), L),
             CoefficientSet(tag, L, tuple(inputs[f"truth_{k}_{ell}"] for ell in range(L + 1)))) for k in range(count)]


def _random_sets():
    return [(c, c) for c in (random_bandlimited(8, SO3, require_real=True, require_nonsingular=True, seed=s)
                             for s in range(4))]


@pytest.fixture
def standard_route(monkeypatch):
    """build_descriptor with the real basis refused, as every set's imaginary part exceeds a negative bound."""
    def build(coeffs):
        with monkeypatch.context() as m:
            m.setattr(bispectrum, "REAL_BASIS_TOL", -1.0)
            return build_descriptor(coeffs)
    return build


def _kron_times(a, b, x):
    """[a (x) b] x, one factor at a time."""
    t = (a @ x.reshape(len(a), -1)).reshape(len(a), len(b), -1)
    return (b @ t).reshape(x.shape)


def _rel(a, b):
    return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-300)


@pytest.mark.parametrize("ell", [0, 1, 2, 5, 16])
def test_real_basis_is_unitary_and_makes_wigner_matrices_real(ell, rng):
    u = real_basis(ell)
    assert u is real_basis(ell) and not u.flags.writeable
    assert np.max(np.abs(u @ u.conj().T - np.eye(dim(ell, SO3)))) <= 1e-15
    # two nonzeros a row, at columns j and 2 l - j; row l is e_0
    assert np.array_equal(np.flatnonzero(u[ell]), [ell])
    assert all(set(np.flatnonzero(row)) == {j, 2 * ell - j} for j, row in enumerate(u) if j != ell)
    for g in (random_element(SO3, rng) for _ in range(3)):
        assert np.max(np.abs((u @ wigner_all(ell, SO3, [g])[ell][0] @ u.conj().T).imag)) <= 1e-13


def test_real_table_is_real_orthogonal_rotates_c_by_its_phases_and_intertwines(rng):
    # every SO3 p <= q <= 16 at bandlimit 16: square, hence orthogonal, when p + q <= 16
    L = 16
    s = [(real_basis(ell) @ d @ real_basis(ell).conj().T) for ell, d in
         enumerate(wigner_all(L, SO3, [random_element(SO3, rng) for _ in range(2)]))]
    assert max(float(np.max(np.abs(x.imag))) for x in s) <= 1e-13
    s = [x.real for x in s]
    for p in range(L + 1):
        # the tables up to 16 take 0.2 GB: hold one row of them at a time
        clebsch_gordan.cache_clear()
        _real_cg.cache_clear()
        for q in range(p, L + 1):
            cr, cg = real_clebsch_gordan(p, q, L), clebsch_gordan(SO3, p, q)
            dp, dq = dim(p, SO3), dim(q, SO3)
            assert cr.C.dtype == np.float64 and not cr.C.flags.writeable
            assert cr.indices == tuple(a for a in cg.indices if a <= L)
            width = cr.C.shape[1]
            assert np.max(np.abs(cr.C.T @ cr.C - np.eye(width))) <= 1e-13
            if p + q <= L:
                assert width == dp * dq
            # (U_p (x) U_q) C (dsum U_a^+) = C_R Phi, Phi = i on the blocks with p + q + a odd, 1 on the others
            rotated = _kron_times(real_basis(p), real_basis(q), cg.C[:, in_band(SO3, p, q, L)])
            for a, sl in zip(cr.indices, cr.block_slices):
                phi = 1j if (p + q + a) % 2 else 1.0
                assert np.max(np.abs(rotated[:, sl] @ real_basis(a).conj().T - phi * cr.C[:, sl])) <= 1e-13
            # (S_p (x) S_q) C_R = C_R (dsum S_a) for S = U D U^+
            for n in range(2):
                lhs = _kron_times(s[p][n], s[q][n], cr.C)
                assert np.max(np.abs(lhs - cr.couple(None, None, {a: s[a][n] for a in cr.indices}))) <= 1e-12


def test_real_table_is_memoized_per_top_degree_and_takes_p_at_most_q():
    assert real_clebsch_gordan(2, 3, 8) is real_clebsch_gordan(2, 3, 5)
    assert real_clebsch_gordan(2, 3, 4) is not real_clebsch_gordan(2, 3, 5)
    assert real_clebsch_gordan(2, 3, 4).indices == (4, 3, 2, 1)
    with pytest.raises(DomainError):
        real_clebsch_gordan(3, 2, 8)
    with pytest.raises(DomainError):
        real_basis(-1)


@pytest.mark.parametrize("make", [_benchmark_sets, _random_sets], ids=["benchmark-inputs", "random-L8"])
def test_real_sets_store_float64_that_agree_with_the_standard_route(make, standard_route):
    sets = make()
    built = [(build_descriptor(c), standard_route(c), truth) for c, truth in sets]
    for real, std, _ in built:
        assert real.in_real_basis and not std.in_real_basis
        assert 0.0 <= real.dropped_imag <= REAL_BASIS_TOL
        assert all(m.dtype == np.float64 for m in real.entries.values())
        assert sum(m.nbytes for m in real.entries.values()) * 2 == sum(m.nbytes for m in std.entries.values())
        assert real.det_f1 == std.det_f1
        for pq in std.pairs():
            assert _rel(real[pq], std[pq]) <= 1e-13
        for pq in std.entries:
            assert _rel(real.coupled(*pq), std.coupled(*pq)) <= 1e-13
    for (r1, s1, _), (r2, s2, _) in zip(built, built[1:]):
        assert descriptor_distance(r1, r2) == pytest.approx(descriptor_distance(s1, s2), rel=1e-13, abs=0.0)
        assert descriptor_max_relative_gap(r1, r2) == pytest.approx(descriptor_max_relative_gap(s1, s2), rel=1e-13, abs=0.0)
    for real, std, truth in built:
        # each recovered set is the truth up to a translation, and the real route recovers it as
        # closely as the standard one; the two differ by what cond F(1) makes of rounding
        from_real, from_std = (reconstruct_so3(d).recovered for d in (real, std))
        assert all(m.dtype == complex for m in from_real.matrices)
        off_real, off_std = (find_alignment(truth, r).max_residual for r in (from_real, from_std))
        assert off_real <= max(2.0 * off_std, 1e-13)


def test_the_two_forms_of_one_function_compare_as_equal(standard_route):
    for coeffs, _ in _benchmark_sets()[:2]:
        real, std = build_descriptor(coeffs), standard_route(coeffs)
        assert descriptor_max_relative_gap(real, std) <= 1e-13
        assert descriptor_max_relative_gap(std, real) <= 1e-13
        other = standard_route(random_bandlimited(8, SO3, require_real=True, seed=9))
        assert descriptor_distance(real, std) <= 1e-13 * descriptor_distance(std, other)
        # a real-basis descriptor against a standard one compares in the standard basis
        assert descriptor_distance(real, other) == pytest.approx(descriptor_distance(std, other), rel=1e-13, abs=0.0)


def _with_imaginary_part(coeffs, size):
    """coeffs with F_R(2)[1, 3] moved by i size times the largest |F_R| entry."""
    rotated = [real_basis(ell) @ m @ real_basis(ell).conj().T for ell, m in enumerate(coeffs.matrices)]
    scale = max(float(np.abs(m).max()) for m in rotated)
    rotated[2][1, 3] += 1j * size * scale
    return CoefficientSet(SO3, coeffs.bandlimit, tuple(real_basis(ell).conj().T @ m @ real_basis(ell)
                                                     for ell, m in enumerate(rotated)))


def test_the_imaginary_part_against_the_one_bound_decides_the_form(standard_route):
    coeffs = random_bandlimited(4, SO3, require_real=True, seed=21)
    above = _with_imaginary_part(coeffs, 1.01 * REAL_BASIS_TOL)
    desc = build_descriptor(above)
    assert desc.dropped_imag is None and all(m.dtype == complex for m in desc.entries.values())
    assert all(np.array_equal(desc[pq], standard_route(above)[pq]) for pq in desc.pairs())
    below = _with_imaginary_part(coeffs, 0.99 * REAL_BASIS_TOL)
    desc = build_descriptor(below)
    assert desc.in_real_basis and all(m.dtype == np.float64 for m in desc.entries.values())
    assert desc.dropped_imag == pytest.approx(0.99 * REAL_BASIS_TOL, rel=1e-3)
    # what was dropped is all that separates it from the standard route
    assert 1e-13 < descriptor_max_relative_gap(standard_route(below), desc) <= 1e-11
    assert build_descriptor(coeffs).dropped_imag < 1e-15
    # a NaN is no measured imaginary part: the set is refused before either form is chosen
    mats = [m.copy() for m in coeffs.matrices]
    mats[2][1, 1] = np.nan
    with pytest.raises(DomainError, match=r"F\(2\) has a non-finite entry"):
        build_descriptor(CoefficientSet(SO3, 4, tuple(mats)))


def test_a_real_set_with_a_zeroed_row_pair_keeps_exact_zero_rows(standard_route):
    L, ell, m = 4, 3, 2
    mats = [x.copy() for x in random_bandlimited(L, SO3, require_real=True, seed=22).matrices]
    mats[ell][[ell - m, ell + m]] = 0  # rows -m and m of F(3): the function stays real
    mats[1][[0, 2]] = 0
    coeffs = CoefficientSet(SO3, L, tuple(mats))
    desc, std = build_descriptor(coeffs), standard_route(coeffs)
    assert desc.in_real_basis
    assert desc.kept_rows[ell].tolist() == [r for r in range(7) if r not in (ell - m, ell + m)]
    assert desc.kept_rows[1].tolist() == [1]
    for p, q in desc.pairs():
        zero = ~np.kron(mats[p], mats[q]).any(axis=1)
        assert not desc[(p, q)][zero].any()
        assert _rel(desc[(p, q)], std[(p, q)]) <= 1e-13
        if p <= q:
            assert not desc.coupled(p, q)[zero].any()
            assert np.array_equal(bispectrum_matrix(coeffs, p, q), desc[(p, q)])


def test_only_an_so3_descriptor_of_real_entries_is_in_the_real_basis():
    desc = build_descriptor(random_bandlimited(2, SO3, require_real=True, seed=23))
    with pytest.raises(DomainError, match="real-basis"):
        BispectrumDescriptor(SO3, 2, {pq: m.astype(complex) for pq, m in desc.entries.items()}, dropped_imag=0.0)
    su2 = build_descriptor(random_bandlimited(2, SU2, require_real=True, seed=23))
    assert not su2.in_real_basis
    with pytest.raises(DomainError, match="real-basis"):
        BispectrumDescriptor(SU2, 2, {pq: m.real for pq, m in su2.entries.items()}, dropped_imag=0.0)
    with pytest.raises(DomainError, match="not a sphere lift"):
        lift_beta(desc)
