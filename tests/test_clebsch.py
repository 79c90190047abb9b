from dataclasses import replace
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from scipy.linalg import block_diag

from bispect.errors import DomainError, TagMismatchError
from bispect.groups import SO3, SU2, compose, identity, random_element, z_rotation
from bispect.clebsch import (
    cg_indices,
    clebsch_gordan,
    in_band,
    intertwiner_residual,
    kron_solve,
    kron_swap,
    lift_terms,
    subgroup_projection,
    verify_coset_homomorphism,
)
from bispect.wigner import dim, j2_of, m_values, wigner_matrix


def test_index_lists():
    assert cg_indices(SU2, 1, 1) == (2, 0)
    assert cg_indices(SU2, 1, 0) == (1,)
    assert cg_indices(SU2, 3, 2) == (5, 3, 1)
    assert cg_indices(SO3, 1, 1) == (2, 1, 0)
    assert cg_indices(SO3, 3, 2) == (5, 4, 3, 2, 1)
    assert cg_indices(SO3, 4, 0) == (4,)


def test_tensor_with_trivial_is_identity():
    cg = clebsch_gordan(SU2, 1, 0)
    assert cg.indices == (1,)
    assert np.allclose(cg.C, np.eye(2))
    cg = clebsch_gordan(SO3, 0, 3)
    assert np.allclose(cg.C, np.eye(7))


def test_su2_one_one_block_structure(rng):
    cg = clebsch_gordan(SU2, 1, 1)
    assert cg.indices == (2, 0)
    elements = [random_element(SU2, rng) for _ in range(20)]
    assert intertwiner_residual(cg, *elements) < 1e-10
    assert intertwiner_residual(cg) == 0.0


def test_so3_one_one_block_structure(rng):
    cg = clebsch_gordan(SO3, 1, 1)
    # a tuple: the memo hands the same object to every caller
    assert cg.indices == (2, 1, 0) and isinstance(cg.indices, tuple)
    elements = [random_element(SO3, rng) for _ in range(50)]
    assert intertwiner_residual(cg, *elements) < 1e-10
    # negative control: one rephased column breaks the intertwining by an
    # amount that depends on the element; a multi-element call reports the largest
    bad = cg.C.astype(complex)
    bad[:, 0] *= np.exp(0.25j)
    bad_cg = replace(cg, C=bad)
    single = [intertwiner_residual(bad_cg, g) for g in elements]
    assert max(single) > 1e-3
    assert intertwiner_residual(bad_cg, *elements) == pytest.approx(max(single), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("tag,lmax", [(SU2, 6), (SO3, 4)])
def test_cg_unitarity_and_dimensions(tag, lmax):
    for p in range(lmax + 1):
        for q in range(lmax + 1):
            cg = clebsch_gordan(tag, p, q)
            n = dim(p, tag) * dim(q, tag)
            assert sum(dim(a, tag) for a in cg.indices) == n
            assert np.max(np.abs(cg.C.conj().T @ cg.C - np.eye(n))) < 1e-11


def test_cg_deterministic_across_calls():
    from bispect.clebsch import _build_cg

    a = _build_cg(SU2, 2, 2)
    b = _build_cg(SU2, 2, 2)
    assert np.array_equal(a.C, b.C)


@pytest.mark.parametrize(
    "tag,p,q", [(SO3, 9, 7), (SO3, 16, 15), (SO3, 16, 16), (SU2, 18, 16), (SU2, 32, 31)]
)
def test_cg_large_spin(tag, p, q):
    # above spin 8, where a random-trial construction stopped finding blocks
    cg = clebsch_gordan(tag, p, q)
    n = dim(p, tag) * dim(q, tag)
    assert np.max(np.abs(cg.C.T @ cg.C - np.eye(n))) <= 1e-11
    rng = np.random.default_rng(100 * p + q)
    assert intertwiner_residual(cg, *(random_element(tag, rng) for _ in range(3))) <= 1e-10


def _racah(j1, m1, j2, m2, j, m) -> float:
    """<j1 m1 j2 m2 | j m> by Racah's formula in exact arithmetic; doubled spins."""
    if m1 + m2 != m:
        return 0.0

    def f(x2):  # every argument is an even doubled integer
        return factorial(x2 // 2)

    pref = Fraction(
        (j + 1) * f(j1 + j2 - j) * f(j1 - j2 + j) * f(j2 - j1 + j) * f(j1 + m1) * f(j1 - m1)
        * f(j2 + m2) * f(j2 - m2) * f(j + m) * f(j - m),
        f(j1 + j2 + j + 2),
    )
    total = Fraction(0)
    for k in range(0, j1 + j2 - j + 1, 2):
        args = (k, j1 + j2 - j - k, j1 - m1 - k, j2 + m2 - k, j - j2 + m1 + k, j - j1 - m2 + k)
        if min(args) >= 0:
            den = 1
            for a in args:
                den *= f(a)
            total += Fraction((-1) ** (k // 2), den)
    return float(np.sign(total)) * float(pref * total**2) ** 0.5


def _racah_cg(tag, p, q) -> np.ndarray:
    """The stored layout: kron rows, blocks in cg_indices order, m ascending."""
    j1, j2 = j2_of(p, tag), j2_of(q, tag)
    cols = [(j2_of(a, tag), int(2 * m)) for a in cg_indices(tag, p, q) for m in m_values(a, tag)]
    rows = [(int(2 * m1), int(2 * m2)) for m1 in m_values(p, tag) for m2 in m_values(q, tag)]
    return np.array([[_racah(j1, m1, j2, m2, j, m) for j, m in cols] for m1, m2 in rows])


@pytest.mark.parametrize("tag,lmax", [(SU2, 8), (SO3, 4)])
def test_cg_matches_racah_oracle(tag, lmax):
    # each block is the Condon-Shortley block, sign included
    for p in range(lmax + 1):
        for q in range(lmax + 1):
            cg = clebsch_gordan(tag, p, q)
            oracle = _racah_cg(tag, p, q)
            for sl in cg.block_slices:
                assert np.max(np.abs(cg.C[:, sl] - oracle[:, sl])) < 1e-13


def test_projection_trivial():
    assert np.allclose(subgroup_projection(SO3, 0), [[1.0]])


def test_projection_rank_one_so3():
    for ell in range(9):
        p = subgroup_projection(SO3, ell)
        assert np.linalg.matrix_rank(p) == 1
        assert np.max(np.abs(p @ p - p)) < 1e-11
        assert np.max(np.abs(p - p.conj().T)) < 1e-11


def test_projection_su2_parity():
    for ell in range(9):
        assert np.linalg.matrix_rank(subgroup_projection(SU2, ell)) == (1 if ell % 2 == 0 else 0)


def test_projection_matches_numeric_average():
    # closed form agrees with high-resolution integration of D over H
    for tag, ell in ((SO3, 3), (SU2, 4), (SU2, 3)):
        period = 4 * np.pi if tag == SU2 else 2 * np.pi
        thetas = np.linspace(0, period, 2048, endpoint=False)
        acc = np.zeros((dim(ell, tag), dim(ell, tag)), dtype=complex)
        for th in thetas:
            acc += wigner_matrix(ell, tag, z_rotation(th, tag))
        acc /= len(thetas)
        assert np.max(np.abs(acc - subgroup_projection(tag, ell))) < 1e-12


def test_projection_tensor_identity():
    # P_s (x) P_d = [P_s (x) P_d] C [dsum P_a] C^dagger, both orders
    for tag in (SU2, SO3):
        for s in range(5):
            for d in range(5):
                cg = clebsch_gordan(tag, s, d)
                lhs = np.kron(subgroup_projection(tag, s), subgroup_projection(tag, d))
                sand = cg.C @ block_diag(*[subgroup_projection(tag, a) for a in cg.indices]) @ cg.C.T
                assert np.max(np.abs(lhs - lhs @ sand)) < 1e-10
                assert np.max(np.abs(lhs - sand @ lhs)) < 1e-10


def test_projected_rows_left_h_invariant(rng):
    for tag in (SU2, SO3):
        for ell in range(5):
            p = subgroup_projection(tag, ell)
            for _ in range(10):
                g = random_element(tag, rng)
                h = z_rotation(rng.uniform(0, 4 * np.pi if tag == SU2 else 2 * np.pi), tag)
                lhs = p @ wigner_matrix(ell, tag, compose(h, g))
                rhs = p @ wigner_matrix(ell, tag, g)
                assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_coset_conditions_identity():
    rep = verify_coset_homomorphism(identity(SO3), 2)
    assert rep.unitary_residual < 1e-12
    assert rep.passed


def test_coset_conditions_random(rng):
    for tag in (SU2, SO3):
        rep = verify_coset_homomorphism(random_element(tag, rng), 3)
        assert rep.max_residual < 1e-10
        assert rep.passed


def test_coset_conditions_negative_control(rng):
    rep = verify_coset_homomorphism(random_element(SO3, rng), 2, corruption=1e-2)
    assert rep.max_residual > 1e-3
    assert not rep.passed


def test_cg_tables_are_read_only():
    cg = clebsch_gordan(SO3, 1, 1)
    with pytest.raises(ValueError):
        cg.C[0, 0] = 5.0
    assert clebsch_gordan(SO3, 1, 1).C[0, 0] == 1.0


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _dense_couple(cg, a, b, given):
    """[a (x) b] C [dsum M_d] C^dagger formed densely; a missing degree is a zero block."""
    mid = block_diag(*[given.get(d, np.zeros((dim(d, cg.tag),) * 2)) for d in cg.indices])
    return np.kron(a, b) @ cg.C @ mid @ cg.C.conj().T


def _assert_couple_matches_dense(cg, a, b, stacks):
    """couple(a, b, .) on stacked blocks equals it one block at a time, and each,
    taken back to Kronecker columns by decouple, equals the dense product with
    every degree, one missing at the top or inside, or only the bottom one given."""
    rows_a = np.eye(dim(cg.p, cg.tag)) if a is None else a
    rows_b = np.eye(dim(cg.q, cg.tag)) if b is None else b
    top, inner, bottom = cg.indices[0], cg.indices[len(cg.indices) // 2], cg.indices[-1]
    n_stack = len(next(iter(stacks.values())))
    got = cg.couple(a, b, stacks)
    assert got.shape == (n_stack, len(rows_a) * len(rows_b), cg.C.shape[0])
    for k in range(n_stack):
        blocks = {d: m[k] for d, m in stacks.items()}
        single = cg.couple(a, b, blocks)
        assert np.array_equal(got[k], single)
        dropped = [{d: m for d, m in blocks.items() if d != x} for x in (top, inner)]
        for given in (blocks, *dropped, {bottom: blocks[bottom]}):
            want = _dense_couple(cg, rows_a, rows_b, given)
            coupled = cg.couple(a, b, given)
            # the coupled form keeps C's columns from the first given degree on
            first = next(d for d in cg.indices if d in given)
            assert coupled.shape[-1] == sum(dim(d, cg.tag) for d in cg.indices if d <= first)
            assert np.max(np.abs(cg.decouple(coupled) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "tag, p, q, complex_c",
    [(SU2, 3, 2, False), (SO3, 2, 2, False), (SO3, 2, 1, True)],
    ids=["SU2-3-2", "SO3-2-2", "SO3-2-1-complex-C"],
)
def test_couple_matches_block_diag_and_stacks(tag, p, q, complex_c, rng):
    cg = clebsch_gordan(tag, p, q)
    if complex_c:  # a phased column makes C complex, which the real-gemm path cannot take
        bad_c = cg.C.astype(complex)
        bad_c[:, 0] *= np.exp(0.25j)
        cg = replace(cg, C=bad_c)
    stacks = {a: _cplx(rng, 4, dim(a, tag), dim(a, tag)) for a in cg.indices}
    _assert_couple_matches_dense(cg, None, None, stacks)


@pytest.mark.parametrize("tag, p, q", [(SU2, 3, 2), (SO3, 2, 2)], ids=["SU2-3-2", "SO3-2-2"])
def test_couple_rows_matches_rows_times_couple(tag, p, q, rng):
    cg = clebsch_gordan(tag, p, q)
    fp, fq = _cplx(rng, dim(p, tag), dim(p, tag)), _cplx(rng, dim(q, tag), dim(q, tag))
    stacks = {a: _cplx(rng, 4, dim(a, tag), dim(a, tag)) for a in cg.indices}
    whole = cg.couple(None, None, stacks)
    # square factors, row subsets, one row each
    for a, b in ((fp, fq), (fp[[0, -1]], fq[1:]), (fp[-1:], fq[:1])):
        _assert_couple_matches_dense(cg, a, b, stacks)
        want = np.kron(a, b) @ whole
        assert np.max(np.abs(cg.couple(a, b, stacks) - want)) <= 1e-13 * np.max(np.abs(want))


def test_kron_solve_inverts_kron(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    x = rng.standard_normal((15, 7)) + 1j * rng.standard_normal((15, 7))
    y = np.kron(a, b) @ x
    assert np.max(np.abs(kron_solve(a, b, y) - x)) <= 1e-12 * np.max(np.abs(x))


def test_kron_swap_exchanges_kron_factors(rng):
    # a pure permutation: exact on real factors; complex a (x) b and b (x) a may round apart
    a, b = rng.standard_normal((3, 3)), rng.standard_normal((5, 5))
    assert np.array_equal(kron_swap(np.kron(a, b), 3, 5), np.kron(b, a))
    assert np.array_equal(kron_swap(kron_swap(np.kron(a, b), 3, 5), 5, 3), np.kron(a, b))
    a, b = a + 1j * rng.standard_normal((3, 3)), b + 1j * rng.standard_normal((5, 5))
    assert np.max(np.abs(kron_swap(np.kron(a, b), 3, 5) - np.kron(b, a))) <= 1e-15 * np.max(np.abs(np.kron(b, a)))


@pytest.mark.parametrize("ra, rb", [([1], [2]), ([0, 2], [1, 3, 4]), ([], [0, 1]), ([0, 1, 2], [0, 1, 2, 3, 4])])
def test_kron_swap_of_a_row_block_is_that_block_of_the_dense_swap(rng, ra, rb):
    # rows ra (x) rb of a (x) b are a[ra] (x) b; swapped, they are rows rb (x) ra of b (x) a
    a, b = rng.standard_normal((3, 3)), rng.standard_normal((5, 5))
    block = np.kron(a[ra], b[rb])
    dense = kron_swap(np.kron(a, b), 3, 5).reshape(5, 3, 15)[np.ix_(rb, ra)].reshape(-1, 15)
    assert np.array_equal(kron_swap(block, 3, 5, len(ra), len(rb)), dense)
    assert np.array_equal(kron_swap(block, 3, 5, len(ra), len(rb)), np.kron(b[rb], a[ra]))


def test_clebsch_gordan_is_memoized():
    first = clebsch_gordan(SO3, 2, 3)
    hits = clebsch_gordan.cache_info().hits
    assert clebsch_gordan(SO3, 2, 3) is first
    assert clebsch_gordan.cache_info().hits == hits + 1
    # a rejected tag is raised on every call, never cached
    for _ in range(2):
        with pytest.raises(TagMismatchError):
            clebsch_gordan("SP4", 1, 1)


def test_lift_terms_are_the_nonzero_blocks_of_c_and_read_only():
    terms = lift_terms(6)
    # the nonzero entries of C_pq's blocks a <= 6 over p <= q <= 6, one slot per (p, q, a)
    assert terms.coef.size == terms.factors.shape[1] == 4631
    assert terms.term_start.size == terms.position.size == 106
    assert np.all(terms.coef != 0)
    # position runs through the in-band columns (a, M = 0) of each B(p, q), p <= q, in order
    want, at = [], 0
    for p in range(7):
        for q in range(p, 7):
            band = in_band(SO3, p, q, 6)
            cg = clebsch_gordan(SO3, p, q)
            want += [at + sl.start - band.start + a for a, sl in zip(cg.indices, cg.block_slices) if a <= 6]
            at += band.stop - band.start
    assert terms.position.tolist() == want and want[-1] == at - 1
    assert lift_terms(6) is terms and lift_terms.cache_info().maxsize is not None
    for name in ("factors", "coef", "term_start", "position"):
        with pytest.raises(ValueError):
            getattr(terms, name).reshape(-1)[0] = 1
    with pytest.raises(DomainError):
        lift_terms(-1)


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_in_band_columns_are_the_last_ones_of_the_degrees_up_to_the_bandlimit(tag):
    for L in range(9):
        for p in range(L + 1):
            for q in range(L + 1):
                cg = clebsch_gordan(tag, p, q)
                kept = [sl for a, sl in zip(cg.indices, cg.block_slices) if a <= L]
                assert in_band(tag, p, q, L) == slice(kept[0].start, cg.C.shape[1])
