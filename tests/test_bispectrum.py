import numpy as np
import pytest
from scipy.linalg import block_diag

from bispect.errors import DomainError, TagMismatchError
from bispect.groups import SO3, SU2, haar_quadrature, identity, random_element
from bispect.harmonic import CoefficientSet, SampledFunction, fourier_inverse, random_bandlimited, translate
from bispect.bispectrum import (
    BispectrumDescriptor,
    bispectrum_matrix,
    bispectrum_via_oracle,
    build_descriptor,
    descriptor_distance,
    descriptor_max_relative_gap,
    support_closure_check,
    triple_correlation,
    triple_correlation_grid,
)
from bispect.clebsch import CGDecomposition, clebsch_gordan
from bispect.glyphs import lift_image, lift_rows, synthetic_glyphs
from bispect.sphere import random_sphere_function, sphere_lift
from bispect.wigner import dim


def test_a00_is_mean_cubed():
    for tag in (SU2, SO3):
        coeffs = random_bandlimited(2, tag, require_real=True, seed=31)
        a00 = bispectrum_matrix(coeffs, 0, 0)
        assert a00.shape == (1, 1)
        assert abs(a00.ravel()[0] - coeffs[0].ravel()[0] ** 3) < 1e-12 * max(
            1.0, abs(coeffs[0].ravel()[0]) ** 3
        )


def test_trivial_slot_gives_gram_slice():
    for tag in (SU2, SO3):
        coeffs = random_bandlimited(3, tag, require_real=True, seed=32)
        f0 = coeffs[0].ravel()[0]
        for p in (1, 2, 3):
            ap0 = bispectrum_matrix(coeffs, p, 0)
            expect = f0 * (coeffs[p] @ coeffs[p].conj().T)
            assert np.max(np.abs(ap0 - expect)) < 1e-10 * max(1.0, float(np.max(np.abs(expect))))


def test_hermitian_slice_psd():
    coeffs = random_bandlimited(3, SU2, require_real=True, seed=33)
    mats = list(coeffs.matrices)
    mats[0] = np.abs(mats[0])  # force positive mean
    coeffs = CoefficientSet(SU2, 3, tuple(mats))
    for p in (1, 2, 3):
        ap0 = bispectrum_matrix(coeffs, p, 0)
        herm = 0.5 * (ap0 + ap0.conj().T)
        assert np.max(np.abs(ap0 - herm)) < 1e-10
        assert np.linalg.eigvalsh(herm)[0] > -1e-10


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_bandlimited(4, SU2, require_real=True, seed=34),
        lambda: random_bandlimited(4, SO3, require_real=True, seed=34),
        lambda: sphere_lift(random_sphere_function(8, 4, seed=34), 4),
    ],
    ids=["SU2", "SO3", "sphere-lift"],
)
def test_out_of_band_blocks_are_zero(make):
    # every A(p, q) against [F(p) (x) F(q)] C [dsum_a F(a)^+, zero blocks past L] C^T
    coeffs = make()
    L = coeffs.bandlimit
    desc = build_descriptor(coeffs)
    for p, q in desc.pairs():
        got = desc[(p, q)]
        cg = clebsch_gordan(coeffs.tag, p, q)
        blocks = [coeffs[a].conj().T if a <= L else np.zeros((dim(a, coeffs.tag),) * 2) for a in cg.indices]
        expect = np.kron(coeffs[p], coeffs[q]) @ cg.C @ block_diag(*blocks) @ cg.C.T
        assert np.linalg.norm(got - expect) <= 1e-13 * max(np.linalg.norm(expect), 1e-300)


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_bandlimited(6, SU2, require_real=True, seed=36),
        lambda: random_bandlimited(6, SO3, require_real=True, seed=36),
        lambda: sphere_lift(random_sphere_function(8, 6, seed=36), 6),
    ],
    ids=["SU2", "SO3", "sphere-lift"],
)
def test_lower_triangle_matches_direct_formula(make):
    # build_descriptor swaps A(p, q) into A(q, p); the direct formula computes A(q, p) itself
    coeffs = make()
    desc = build_descriptor(coeffs)
    for p in range(coeffs.bandlimit + 1):
        for q in range(p + 1, coeffs.bandlimit + 1):
            direct = bispectrum_matrix(coeffs, q, p)
            assert np.linalg.norm(desc[(q, p)] - direct) <= 1e-13 * max(np.linalg.norm(direct), 1e-300)


def _dense_entry(coeffs, p, q):
    """A(p, q) with every factor formed: [F(p) (x) F(q)] C [dsum_a F(a)^+] C^T, out-of-band blocks zero."""
    cg = clebsch_gordan(coeffs.tag, p, q)
    blocks = [coeffs[a].conj().T if a <= coeffs.bandlimit else np.zeros((dim(a, coeffs.tag),) * 2) for a in cg.indices]
    return np.kron(coeffs[p], coeffs[q]) @ cg.C @ block_diag(*blocks) @ cg.C.T


def _sphere_lift_at(L):
    return lambda: sphere_lift(random_sphere_function(10, L, seed=40 + L), L)


@pytest.mark.parametrize(
    "make",
    [*(_sphere_lift_at(L) for L in (0, 1, 6, 8)), lambda: sphere_lift(lift_image(synthetic_glyphs(64)["hook"], 16), 6)],
    ids=["L0", "L1", "L6", "L8", "glyph"],
)
def test_lifted_descriptor_computes_one_row_per_entry(make, monkeypatch):
    coeffs = make()
    L = coeffs.bandlimit
    calls = []
    couple = CGDecomposition.couple

    def counted(self, a, b, blocks):
        calls.append((self.p, self.q, a.shape[0] * b.shape[0]))
        return couple(self, a, b, blocks)

    monkeypatch.setattr(CGDecomposition, "couple", counted)
    desc = build_descriptor(coeffs)
    assert sorted(calls) == [(p, q, 1) for p in range(L + 1) for q in range(p, L + 1)]
    rows = lift_rows(desc)  # raises unless every entry is zero off its lift row
    assert rows.shape == ((L + 1) ** 4,)
    for pq in desc.pairs():
        dense = _dense_entry(coeffs, *pq)
        assert np.linalg.norm(desc[pq] - dense) <= 1e-13 * max(np.linalg.norm(dense), 1e-300)


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_descriptor_with_zero_rows_and_a_zero_degree_matches_dense(tag):
    L = 4
    mats = [m.copy() for m in random_bandlimited(L, tag, seed=43).matrices]
    mats[1][0] = 0
    mats[3][[0, 2]] = 0
    mats[2][:] = 0  # no live rows at all
    coeffs = CoefficientSet(tag, L, tuple(mats))
    desc = build_descriptor(coeffs)
    norms = [np.linalg.norm(m) for m in mats]
    for p, q in desc.pairs():
        kron = np.kron(mats[p], mats[q])
        # relative to ||F(p)|| ||F(q)|| ||dsum F(a)^+||, which bounds the entry: the SU2 selection
        # rule makes some entries exactly zero, so their own norm is rounding noise
        scale = max(norms[p] * norms[q] * np.linalg.norm(norms), 1e-300)
        assert np.linalg.norm(desc[(p, q)] - _dense_entry(coeffs, p, q)) <= 1e-13 * scale
        # zero rows of F(p) (x) F(q), all of them when p or q is 2, stay exactly zero
        assert not desc[(p, q)][~kron.any(axis=1)].any()
    # given the dense entries, a descriptor drops the same rows and gives each entry back bit for bit
    given = BispectrumDescriptor(tag, L, {pq: desc[pq] for pq in desc.pairs()})
    assert [r.tolist() for r in given.kept_rows] == [r.tolist() for r in desc.kept_rows]
    assert len(given.kept_rows[2]) == 0 and given.kept_rows[3].tolist() == [r for r in range(dim(3, tag)) if r not in (0, 2)]
    assert all(given[pq].tobytes() == desc[pq].tobytes() for pq in desc.pairs())


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_descriptor_couples_upper_triangle_only(tag, monkeypatch):
    calls = []
    couple = CGDecomposition.couple

    def counted(self, a, b, blocks):
        calls.append((self.p, self.q))
        return couple(self, a, b, blocks)

    monkeypatch.setattr(CGDecomposition, "couple", counted)
    L = 5
    build_descriptor(random_bandlimited(L, tag, require_real=True, seed=37))
    assert len(calls) == (L + 1) * (L + 2) // 2
    assert all(p <= q for p, q in calls)


def test_bispectrum_requires_in_band_pair():
    coeffs = random_bandlimited(2, SU2, seed=35)
    with pytest.raises(DomainError):
        bispectrum_matrix(coeffs, 3, 0)


def test_descriptor_translation_invariance(rng):
    for tag in (SU2, SO3):
        for k in range(5):
            coeffs = random_bandlimited(4, tag, require_real=True, seed=40 + k)
            x = random_element(tag, rng)
            d1 = build_descriptor(coeffs)
            d2 = build_descriptor(translate(coeffs, x))
            assert descriptor_max_relative_gap(d1, d2) < 1e-9
            if tag == SO3:
                assert d1.det_f1 is not None
                assert abs(d1.det_f1 - d2.det_f1) < 1e-10


def test_descriptor_bandlimit_zero():
    coeffs = random_bandlimited(0, SU2, require_real=True, seed=41)
    desc = build_descriptor(coeffs)
    assert desc.pairs() == [(0, 0)]
    assert abs(desc[(0, 0)].ravel()[0] - coeffs[0].ravel()[0] ** 3) < 1e-12


def test_distance_axioms(rng):
    coeffs = random_bandlimited(3, SU2, require_real=True, seed=42)
    other = random_bandlimited(3, SU2, require_real=True, seed=43)
    d = build_descriptor(coeffs)
    do = build_descriptor(other)
    assert descriptor_distance(d, d) == 0.0
    assert abs(descriptor_distance(d, do) - descriptor_distance(do, d)) < 1e-12
    dx = build_descriptor(translate(coeffs, random_element(SU2, rng)))
    assert descriptor_distance(d, dx) < 1e-8
    assert descriptor_distance(d, do) > 1e-2


def test_distance_shape_mismatch():
    a = build_descriptor(random_bandlimited(2, SU2, seed=44))
    b = build_descriptor(random_bandlimited(3, SU2, seed=44))

    with pytest.raises(TagMismatchError):
        descriptor_distance(a, b)


@pytest.mark.parametrize("compare", [descriptor_distance, descriptor_max_relative_gap])
def test_descriptor_comparisons_reject_mismatched_descriptors(compare):
    shapes = ((SU2, 2), (SU2, 3), (SU2, 0), (SO3, 0))
    desc = {(tag, L): build_descriptor(random_bandlimited(L, tag, seed=44)) for tag, L in shapes}
    for a, b in (((SU2, 3), (SU2, 2)), ((SU2, 0), (SO3, 0)), ((SO3, 0), (SU2, 2))):
        with pytest.raises(TagMismatchError):
            compare(desc[a], desc[b])
    su2 = desc[(SU2, 2)]
    fewer = {pq: m for pq, m in su2.entries.items() if pq != (2, 2)}
    with pytest.raises(DomainError):
        compare(su2, BispectrumDescriptor(SU2, 2, fewer))
    # a lift compares with the same lift given dense, and two lifts compare as their full entries do
    lift, other = (build_descriptor(sphere_lift(random_sphere_function(6, 2, seed=s), 2)) for s in (45, 46))
    dense, other_dense = (BispectrumDescriptor(SO3, 2, {pq: d[pq] for pq in d.pairs()}) for d in (lift, other))
    assert compare(lift, dense) == 0.0
    assert compare(lift, other) > 0.0
    assert compare(lift, other) == pytest.approx(compare(dense, other_dense), rel=1e-13, abs=0.0)
    assert compare(lift, other_dense) == pytest.approx(compare(dense, other_dense), rel=1e-13, abs=0.0)


def _dense_distance(d1, d2):
    return np.sqrt(sum(dim(p, d1.tag) * dim(q, d1.tag) * np.linalg.norm(d1[(p, q)] - d2[(p, q)]) ** 2
                       for p, q in d1.pairs()))


def _dense_gap(d1, d2):
    return max(np.linalg.norm(d1[pq] - d2[pq]) / max(np.linalg.norm(d1[pq]), 1e-300) for pq in d1.pairs())


@pytest.mark.parametrize("compare,dense", [(descriptor_distance, _dense_distance), (descriptor_max_relative_gap, _dense_gap)])
def test_descriptor_comparisons_equal_dense_ones_when_kept_rows_differ(compare, dense):
    # a lift with degree 2 zeroed keeps no row of it, a lift keeps row 2 and
    # a generic set every row; each pair compares on the union of its rows
    coeffs = sphere_lift(random_sphere_function(6, 3, seed=47), 3)
    mats = list(coeffs.matrices)
    mats[2] = np.zeros_like(mats[2])
    gapped, lift = build_descriptor(CoefficientSet(SO3, 3, tuple(mats))), build_descriptor(coeffs)
    generic = build_descriptor(random_bandlimited(3, SO3, seed=47))
    assert gapped.kept_rows[2].tolist() == [] and lift.kept_rows[2].tolist() == [2]
    for d1, d2 in ((lift, gapped), (gapped, lift), (lift, generic), (generic, gapped)):
        assert compare(d1, d2) > 0.0
        assert compare(d1, d2) == pytest.approx(dense(d1, d2), rel=1e-13, abs=0.0)


def test_descriptor_rejects_entries_that_disagree_with_their_kept_rows():
    su2 = build_descriptor(random_bandlimited(2, SU2, seed=44))
    with pytest.raises(DomainError, match=r"entry \(1, 1\)"):
        BispectrumDescriptor(SU2, 2, {**su2.entries, (1, 1): np.zeros((1, 1), dtype=complex)})
    with pytest.raises(DomainError, match="outside"):
        BispectrumDescriptor(SU2, 2, {**su2.entries, (3, 0): np.zeros((4, 4), dtype=complex)})
    with pytest.raises(DomainError, match="kept_rows needs 3"):
        BispectrumDescriptor(SU2, 2, su2.entries, kept_rows=(np.arange(1), np.arange(2)))
    # kept rows out of order, repeated or out of range are refused, not misread
    for bad in ([1, 0], [0, 0], [0, 2], [-1, 0]):
        with pytest.raises(DomainError, match=r"kept_rows\[1\] must be strictly increasing"):
            BispectrumDescriptor(SU2, 2, {}, kept_rows=(np.arange(1), np.array(bad), np.arange(3)))
    lift = build_descriptor(sphere_lift(random_sphere_function(6, 2, seed=45), 2))
    # the dense entries disagree with a lift's one kept row per degree, and a lift's rows with every row
    with pytest.raises(DomainError, match=r"entry \(0, 1\)"):
        BispectrumDescriptor(SO3, 2, {pq: lift[pq] for pq in lift.pairs()}, kept_rows=lift.kept_rows)
    with pytest.raises(DomainError, match=r"entry \(0, 1\)"):
        BispectrumDescriptor(SO3, 2, lift.entries)


def _with_a_zero_degree(tag):
    mats = [m.copy() for m in random_bandlimited(4, tag, seed=43).matrices]
    mats[1][0] = 0
    mats[2][:] = 0
    return CoefficientSet(tag, 4, tuple(mats))


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_bandlimited(5, SO3, require_real=True, seed=46),
        lambda: random_bandlimited(4, SU2, require_real=True, seed=46),
        lambda: sphere_lift(lift_image(synthetic_glyphs(64)["hook"], 16), 6),
        lambda: _with_a_zero_degree(SO3),
        lambda: _with_a_zero_degree(SU2),
    ],
    ids=["SO3", "SU2", "glyph-lift", "SO3-zero-degree", "SU2-zero-degree"],
)
def test_indexing_gives_the_full_entry_that_bispectrum_matrix_gives(make):
    coeffs = make()
    desc = build_descriptor(coeffs)
    for p, q in desc.pairs():
        full, direct = desc[(p, q)], bispectrum_matrix(coeffs, p, q)
        side = dim(p, coeffs.tag) * dim(q, coeffs.tag)
        assert full.shape == (side, side)
        if p <= q:  # computed by the same formula on the same rows
            assert np.array_equal(full, direct)
        else:  # swapped from A(q, p)
            assert np.linalg.norm(full - direct) <= 1e-13 * max(np.linalg.norm(direct), 1e-300)
        # with every row of both degrees kept, indexing hands back the stored array
        every_row = len(desc.kept_rows[p]) == dim(p, coeffs.tag) and len(desc.kept_rows[q]) == dim(q, coeffs.tag)
        assert (full is desc.entries[(p, q)]) == every_row


@pytest.mark.parametrize("L", [0, 1, 6])
def test_lift_descriptor_holds_one_row_per_entry(L):
    coeffs = sphere_lift(random_sphere_function(10, L, seed=47), L)
    desc = build_descriptor(coeffs)
    assert [r.tolist() for r in desc.kept_rows] == [[ell] for ell in range(L + 1)]
    for p, q in desc.pairs():
        assert desc.entries[(p, q)].shape == (1, dim(p, SO3) * dim(q, SO3))
    assert sum(m.size for m in desc.entries.values()) == (L + 1) ** 4
    generic = build_descriptor(random_bandlimited(L, SO3, require_real=True, seed=47))
    assert all(np.array_equal(r, np.arange(dim(ell, SO3))) for ell, r in enumerate(generic.kept_rows))
    assert sum(m.size for m in generic.entries.values()) == sum((2 * p + 1) ** 2 * (2 * q + 1) ** 2 for p, q in generic.pairs())


def test_triple_correlation_constant(rng):
    rule = haar_quadrature(3, SU2)
    ones = SampledFunction(SU2, rule, np.ones(rule.size, dtype=complex))
    for _ in range(3):
        val = triple_correlation(ones, random_element(SU2, rng), random_element(SU2, rng), 1)
        assert abs(val - 1.0) < 1e-12


def test_triple_correlation_identity_args_is_cubic_sum():
    bandlimit = 1
    rule = haar_quadrature(3 * bandlimit, SU2)
    coeffs = random_bandlimited(bandlimit, SU2, require_real=True, seed=45)
    f = fourier_inverse(coeffs, rule)
    e = identity(SU2)
    direct = np.sum(rule.weights * f.values.real**3)
    assert abs(triple_correlation(f, e, e, bandlimit) - direct) < 1e-9 * max(1.0, abs(direct))


def test_triple_correlation_left_invariance(rng):
    bandlimit = 1
    rule = haar_quadrature(3 * bandlimit, SU2)
    coeffs = random_bandlimited(bandlimit, SU2, require_real=True, seed=46)
    f = fourier_inverse(coeffs, rule)
    shifted = fourier_inverse(translate(coeffs, random_element(SU2, rng)), rule)
    g1 = triple_correlation_grid(f, bandlimit)
    g2 = triple_correlation_grid(shifted, bandlimit)
    scale = max(1.0, float(np.max(np.abs(g1))))
    assert np.max(np.abs(g1 - g2)) < 1e-9 * scale


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_oracle_matches_matrix_formula(tag):
    bandlimit = 2
    coeffs = random_bandlimited(bandlimit, tag, require_real=True, seed=47)
    rule = haar_quadrature(3 * bandlimit, tag)
    f = fourier_inverse(coeffs, rule)
    for p in range(bandlimit + 1):
        for q in range(bandlimit + 1):
            formula = bispectrum_matrix(coeffs, p, q)
            oracle = bispectrum_via_oracle(f, p, q, bandlimit)
            denom = max(float(np.linalg.norm(formula)), 1e-300)
            assert np.linalg.norm(formula - oracle) / denom < 1e-6


def test_oracle_constant_function():
    rule = haar_quadrature(6, SU2)
    ones = SampledFunction(SU2, rule, np.ones(rule.size, dtype=complex))
    assert abs(bispectrum_via_oracle(ones, 0, 0, 2).ravel()[0] - 1.0) < 1e-8
    for p, q in ((1, 0), (1, 1), (2, 2)):
        assert np.max(np.abs(bispectrum_via_oracle(ones, p, q, 2))) < 1e-8


def test_support_closure():
    assert support_closure_check({0}, SU2).closed
    assert support_closure_check({0, 2, 4}, SU2).closed
    report = support_closure_check({0, 1}, SU2)
    assert not report.closed
    assert report.witness == (1, 1, 2)
    assert support_closure_check({0, 1}, SO3).closed is False
    assert support_closure_check({0}, SO3).closed


def test_support_closure_requires_trivial_degree():
    with pytest.raises(DomainError):
        support_closure_check({1, 2}, SU2)


def test_conjugation_self_duality_report():
    report = support_closure_check({0, 2, 4}, SU2, check_conjugation=True)
    assert report.conjugation_self_dual
    assert max(report.conjugation_self_dual.values()) < 1e-10
