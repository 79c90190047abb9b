import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import block_diag

import bispect.bispectrum as bispectrum_module
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
from bispect.clebsch import CGDecomposition, clebsch_gordan, in_band, lift_terms
from bispect.glyphs import PlanarMotion, apply_planar_motion, beta_count, lift_beta, lift_image, synthetic_glyphs
from bispect.io import save_descriptor
from bispect.reconstruct import reconstruct_so3
from bispect.sphere import random_sphere_function, sphere_lift
from bispect.wigner import dim, separable_factors


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


@pytest.fixture
def couple_calls(monkeypatch):
    """The (p, q) of every ``CGDecomposition.couple`` call the test makes."""
    calls = []
    couple = CGDecomposition.couple

    def counted(self, a, b, blocks):
        calls.append((self.p, self.q))
        return couple(self, a, b, blocks)

    monkeypatch.setattr(CGDecomposition, "couple", counted)
    return calls


@pytest.fixture
def live_rows_calls(monkeypatch):
    """The number of ``bispectrum._live_rows`` calls the test makes."""
    calls = []
    live_rows = bispectrum_module._live_rows

    def counted(matrices):
        calls.append(len(matrices))
        return live_rows(matrices)

    monkeypatch.setattr(bispectrum_module, "_live_rows", counted)
    return calls


def _kept_rows_of(desc, p, q):
    """Rows kept_rows[p] (x) kept_rows[q] of the stored B(p, q): the rows form of its entry."""
    rp, rq = desc.kept_rows[p], desc.kept_rows[q]
    stored = desc.stored(p, q)
    n = stored.shape[1]
    return stored.reshape(dim(p, desc.tag), dim(q, desc.tag), n)[rp[:, None], rq].reshape(len(rp) * len(rq), n)


def _sphere_lift_at(L):
    return lambda: sphere_lift(random_sphere_function(10, L, seed=40 + L), L)


def _lift_with_a_zero_degree():
    mats = list(sphere_lift(random_sphere_function(10, 6, seed=44), 6).matrices)
    mats[3] = np.zeros_like(mats[3])
    return CoefficientSet(SO3, 6, tuple(mats))


_LIFTS = pytest.mark.parametrize(
    "make",
    [*(_sphere_lift_at(L) for L in (0, 1, 6, 8)),
     lambda: sphere_lift(lift_image(synthetic_glyphs(64)["hook"], 16), 6),
     _lift_with_a_zero_degree],
    ids=["L0", "L1", "L6", "L8", "glyph", "zero-degree"],
)


@_LIFTS
def test_lifted_descriptor_computes_one_row_per_entry(make, couple_calls, live_rows_calls):
    coeffs = make()
    L = coeffs.bandlimit
    desc = build_descriptor(coeffs)
    # a lift takes its beta from the term table: no coupling and no row scan
    assert couple_calls == [] and live_rows_calls == []
    beta = lift_beta(desc)
    assert beta.shape == (beta_count(L),)
    daggers = [m.conj().T for m in coeffs.matrices]
    for p, q in desc.pairs():
        dense = _dense_entry(coeffs, p, q)
        assert np.linalg.norm(desc[(p, q)] - dense) <= 1e-13 * max(np.linalg.norm(dense), 1e-300)
    for p, q in desc.entries:
        # the general coupling on the same live rows
        cg = clebsch_gordan(SO3, p, q)
        rp, rq = desc.kept_rows[p], desc.kept_rows[q]
        coupled = cg.couple(coeffs[p][rp], coeffs[q][rq], {a: daggers[a] for a in cg.indices if a <= L})
        rows = _kept_rows_of(desc, p, q)
        assert rows.shape == coupled.shape
        assert np.linalg.norm(rows - coupled) <= 1e-13 * max(np.linalg.norm(coupled), 1e-300)


def _padded_lift(coeffs):
    """A lift's descriptor given as entries, laid out as lifts were stored before
    they held beta alone: one zero row holding the in-band row of every B(p, q),
    p <= q, with the ``lift_terms`` sums placed at its columns (a, M = 0), and each
    entry its slice of that row, with no row when p or q keeps none."""
    L, terms = coeffs.bandlimit, lift_terms(coeffs.bandlimit)
    x = np.concatenate([m[ell] for ell, m in enumerate(coeffs.matrices)])
    left, right, target = terms.factors
    row = np.zeros((1, terms.position[-1] + 1), dtype=complex)
    row[0, terms.position] = np.add.reduceat(terms.coef * x[left] * x[right] * x.conj()[target], terms.term_start)
    kept = tuple(np.flatnonzero(m.any(axis=1)) for m in coeffs.matrices)
    entries, at = {}, 0
    for p in range(L + 1):
        for q in range(p, L + 1):
            width = _width(SO3, p, q, L)
            entries[(p, q)] = row[: len(kept[p]) * len(kept[q]), at : at + width]
            at += width
    return BispectrumDescriptor(SO3, L, entries, build_descriptor(coeffs).det_f1, kept)


def _outcome(f, *args):
    """What f(*args) returns, or the type of what it raises."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 -- the type is the outcome compared
        return type(exc)


@_LIFTS
def test_lift_beta_form_gives_the_padded_form_bit_for_bit(make, tmp_path):
    coeffs = make()
    desc, padded = build_descriptor(coeffs), _padded_lift(coeffs)
    assert desc.beta is not None and padded.beta is None
    assert lift_beta(desc).tobytes() == lift_beta(padded).tobytes()  # the padded form's checked read
    assert desc.pairs() == padded.pairs()
    assert [r.tolist() for r in desc.kept_rows] == [r.tolist() for r in padded.kept_rows]
    for p, q in desc.pairs():
        assert desc[(p, q)].tobytes() == padded[(p, q)].tobytes()
        if p <= q:
            assert bispectrum_matrix(coeffs, p, q).tobytes() == padded[(p, q)].tobytes()
            assert desc.stored(p, q).tobytes() == padded.stored(p, q).tobytes()
            assert desc.coupled(p, q).tobytes() == padded.coupled(p, q).tobytes()
    paths = [str(tmp_path / f"{name}.json") for name in ("beta", "padded")]
    for d, path in zip((desc, padded), paths):
        save_descriptor(d, path)
    assert open(paths[0]).read() == open(paths[1]).read()
    dense = BispectrumDescriptor(SO3, coeffs.bandlimit, {pq: desc.coupled(*pq) for pq in desc.entries})
    for other in (dense, padded):
        assert descriptor_distance(desc, other) == descriptor_distance(other, desc) == 0.0
        assert descriptor_max_relative_gap(desc, other) == 0.0
    got, want = _outcome(reconstruct_so3, desc), _outcome(reconstruct_so3, padded)
    if isinstance(want, type):
        assert got is want
    else:  # L = 0: a lift's one degree reconstructs
        assert [m.tobytes() for m in got.recovered.matrices] == [m.tobytes() for m in want.recovered.matrices]


@_LIFTS
def test_lift_takes_no_determinant_and_stores_a_positive_zero(make, monkeypatch):
    coeffs = make()

    def no_det(a):
        raise AssertionError("a lift's det F(1) is known without computing it")

    monkeypatch.setattr(np.linalg, "det", no_det)
    det = build_descriptor(coeffs).det_f1
    if coeffs.bandlimit == 0:
        assert det is None
    else:
        assert det == 0.0 and np.copysign(1.0, det) == 1.0


def test_lift_descriptor_given_beta_checks_it():
    lift = build_descriptor(sphere_lift(random_sphere_function(6, 2, seed=45), 2))
    beta = lift.beta
    # a copy of beta makes the same descriptor; the caller's array stays its own
    given = np.array(beta)
    again = BispectrumDescriptor(SO3, 2, det_f1=lift.det_f1, beta=given)
    given[0] = 7.0
    assert np.array_equal(again.beta, beta) and again.beta is not given and not again.beta.flags.writeable
    assert descriptor_distance(again, lift) == 0.0
    # replace() passes the entries back beside beta, which must hold its values
    moved = replace(lift, det_f1=2.0)
    assert moved.det_f1 == 2.0 and np.array_equal(moved.beta, beta) and moved.pairs() == lift.pairs()
    with pytest.raises(DomainError, match="per-pair values"):
        BispectrumDescriptor(SO3, 2, {**lift.entries, (0, 0): lift.entries[(0, 0)] + 1}, beta=beta)
    with pytest.raises(DomainError, match="needs 11 beta values"):
        BispectrumDescriptor(SO3, 2, beta=beta[:-1])
    for tag, dropped in ((SU2, None), (SO3, 0.0)):
        with pytest.raises(DomainError, match="standard basis"):
            BispectrumDescriptor(tag, 2, dropped_imag=dropped, beta=beta)
    with pytest.raises(DomainError, match=r"kept_rows\[1\] of a lift must be \[\] or \[1\]"):
        BispectrumDescriptor(SO3, 2, kept_rows=(np.array([0]), np.array([0]), np.array([2])), beta=beta)
    with pytest.raises(DomainError, match="kept_rows needs 3"):
        BispectrumDescriptor(SO3, 2, kept_rows=(np.array([0]), np.array([1])), beta=beta)
    # a degree that keeps no row leaves its pairs' beta zero
    no_one = (np.array([0]), np.array([], dtype=int), np.array([2]))
    with pytest.raises(DomainError, match=r"beta of pair \(0, 1\) must be zero: degree 1 keeps no row"):
        BispectrumDescriptor(SO3, 2, kept_rows=no_one, beta=beta)


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
    # given its entries with every row, a descriptor drops the same rows and gives each entry back bit for bit
    given = BispectrumDescriptor(tag, L, {pq: desc.coupled(*pq) for pq in desc.entries})
    assert [r.tolist() for r in given.kept_rows] == [r.tolist() for r in desc.kept_rows]
    assert len(given.kept_rows[2]) == 0 and given.kept_rows[3].tolist() == [r for r in range(dim(3, tag)) if r not in (0, 2)]
    assert all(given[pq].tobytes() == desc[pq].tobytes() for pq in desc.pairs())


def _off_row_set():
    # one live row per degree, but row 0 rather than row l
    mats = [np.zeros((2 * ell + 1,) * 2, dtype=complex) for ell in range(4)]
    for ell, m in enumerate(random_bandlimited(3, SO3, seed=45).matrices):
        mats[ell][0] = m[ell]
    return CoefficientSet(SO3, 3, tuple(mats))


def _near_lift():
    mats = list(sphere_lift(random_sphere_function(6, 3, seed=42), 3).matrices)
    mats[2] = mats[2].copy()
    mats[2][0, 0] = 1e-300
    return CoefficientSet(SO3, 3, tuple(mats))


def _su2_one_row_per_degree():
    mats = [np.zeros((ell + 1,) * 2, dtype=complex) for ell in range(4)]
    for ell, m in enumerate(random_bandlimited(3, SU2, seed=45).matrices):
        mats[ell][ell] = m[ell]
    return CoefficientSet(SU2, 3, tuple(mats))


@pytest.mark.parametrize(
    "make",
    [lambda: random_bandlimited(5, SU2, require_real=True, seed=37),
     lambda: random_bandlimited(5, SO3, require_real=True, seed=37),
     _off_row_set, _near_lift, _su2_one_row_per_degree, lambda: _with_a_zero_degree(SU2)],
    ids=["SU2", "SO3", "off-row", "near-lift", "SU2-one-row", "SU2-zero-degree"],
)
def test_descriptor_couples_upper_triangle_only(make, couple_calls, live_rows_calls):
    # every set but a sphere lift is coupled, once per pair with p <= q, from one scan of its rows
    coeffs = make()
    build_descriptor(coeffs)
    L = coeffs.bandlimit
    assert sorted(couple_calls) == [(p, q) for p in range(L + 1) for q in range(p, L + 1)]
    assert live_rows_calls == [L + 1]


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
    dense, other_dense = (BispectrumDescriptor(SO3, 2, {pq: d.coupled(*pq) for pq in d.entries}) for d in (lift, other))
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
    # entries with every row disagree with a lift's one kept row per degree, and a lift's rows with every row
    with pytest.raises(DomainError, match=r"entry \(0, 1\)"):
        BispectrumDescriptor(SO3, 2, {pq: lift.coupled(*pq) for pq in lift.entries}, kept_rows=lift.kept_rows)
    with pytest.raises(DomainError, match=r"entry \(0, 1\)"):
        BispectrumDescriptor(SO3, 2, {pq: _kept_rows_of(lift, *pq) for pq in lift.entries})


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
        _lift_with_a_zero_degree,
    ],
    ids=["SO3", "SU2", "glyph-lift", "SO3-zero-degree", "SU2-zero-degree", "lift-zero-degree"],
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
            # and formed from the stored B(p, q), which is A(p, q) C on the in-band columns
            band = in_band(coeffs.tag, p, q, coeffs.bandlimit)
            coupled = (full @ clebsch_gordan(coeffs.tag, p, q).C)[:, band]
            assert np.linalg.norm(desc.coupled(p, q) - coupled) <= 1e-13 * max(np.linalg.norm(full), 1e-300)
        else:  # swapped from A(q, p)
            assert np.linalg.norm(full - direct) <= 1e-13 * max(np.linalg.norm(direct), 1e-300)


def _width(tag, p, q, L):
    band = in_band(tag, p, q, L)
    return band.stop - band.start


@pytest.mark.parametrize("L", [0, 1, 6])
def test_lift_descriptor_holds_one_row_per_entry(L):
    coeffs = sphere_lift(random_sphere_function(10, L, seed=47), L)
    desc = build_descriptor(coeffs)
    assert [r.tolist() for r in desc.kept_rows] == [[ell] for ell in range(L + 1)]
    assert sorted(desc.entries) == [(p, q) for p in range(L + 1) for q in range(p, L + 1)]
    # beta alone is stored, once and read-only: 106 values and 1,696 bytes at L = 6; each entry is a view of it
    beta = desc.beta
    assert beta.shape == (beta_count(L),) == ([1, 4, 106][[0, 1, 6].index(L)],) and not beta.flags.writeable
    assert lift_beta(desc) is beta
    assert np.array_equal(np.concatenate([desc.entries[pq] for pq in desc.entries]), beta)
    assert all(m.base is beta for m in desc.entries.values())
    assert sum(m.nbytes for m in desc.entries.values()) == beta.nbytes == 16 * beta_count(L)
    # the stored B(p, q) holds beta at columns (a, M = 0) of row p d_q + q and exactly 0.0 elsewhere
    at, row = lift_terms(L).position, np.concatenate([desc.stored(p, q)[p * (2 * q + 1) + q] for p, q in desc.entries])
    assert np.array_equal(row[at], beta) and not np.delete(row, at).any()
    assert all(np.count_nonzero(desc.stored(*pq).any(axis=1)) <= 1 for pq in desc.entries)
    generic = build_descriptor(random_bandlimited(L, SO3, require_real=True, seed=47))
    assert (generic.beta is None) == (L > 0)  # at L = 0 every SO3 set is a lift
    assert all(np.array_equal(r, np.arange(dim(ell, SO3))) for ell, r in enumerate(generic.kept_rows))
    assert sorted(generic.entries) == sorted(desc.entries)
    sizes = [(2 * p + 1) * (2 * q + 1) * _width(SO3, p, q, L) for p, q in generic.entries]
    assert sum(m.size for m in generic.entries.values()) == sum(sizes)


def test_indexing_a_pair_the_descriptor_lacks_is_a_domain_error():
    desc = build_descriptor(random_bandlimited(2, SU2, seed=48))
    for pq in ((-1, 0), (3, 0), (0, 3)):
        with pytest.raises(DomainError, match=re.escape(f"descriptor holds no pair {pq}")):
            desc[pq]
    fewer = BispectrumDescriptor(SU2, 2, {pq: m for pq, m in desc.entries.items() if pq != (1, 2)})
    for pq in ((1, 2), (2, 1)):
        with pytest.raises(DomainError, match=re.escape(f"descriptor holds no pair {pq}")):
            fewer[pq]


def _moved_hook(L):
    hook = apply_planar_motion(synthetic_glyphs(64)["hook"], PlanarMotion(0.6, 0.04, -0.03))
    return sphere_lift(lift_image(hook, 16), L)


@pytest.mark.parametrize(
    "make",
    [
        lambda: (random_bandlimited(4, SU2, require_real=True, seed=49), random_bandlimited(4, SU2, require_real=True, seed=50)),
        lambda: (random_bandlimited(4, SO3, seed=49), random_bandlimited(4, SO3, seed=50)),
        lambda: (sphere_lift(lift_image(synthetic_glyphs(64)["hook"], 16), 6), _moved_hook(6)),
    ],
    ids=["SU2", "SO3-generic", "glyph-lift"],
)
def test_comparisons_over_the_stored_half_equal_the_dense_ones_over_every_pair(make):
    # sum over all (L + 1)^2 pairs of d_p d_q ||A1(p, q) - A2(p, q)||^2, with A from indexing:
    # the stored half with weights (2 - delta_pq) d_p d_q must give the same
    c1, c2 = make()
    d1, d2 = build_descriptor(c1), build_descriptor(c2)
    L, tag = c1.bandlimit, c1.tag
    every = [(p, q) for p in range(L + 1) for q in range(L + 1)]
    gaps = [np.linalg.norm(d1[pq] - d2[pq]) for pq in every]
    dense = np.sqrt(sum(dim(p, tag) * dim(q, tag) * g**2 for (p, q), g in zip(every, gaps)))
    dense_gap = max(g / np.linalg.norm(d1[pq]) for pq, g in zip(every, gaps))
    assert descriptor_distance(d1, d2) == pytest.approx(dense, rel=1e-13, abs=0.0)
    assert descriptor_max_relative_gap(d1, d2) == pytest.approx(dense_gap, rel=1e-13, abs=0.0)


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
def test_triple_correlation_grid_reads_one_wigner_plan_per_rule(tag):
    # the outer rule and the samples' rule: one plan each, at the top degree, for every degree
    bandlimit = 4
    f = fourier_inverse(random_bandlimited(bandlimit, tag, require_real=True, seed=48), haar_quadrature(3 * bandlimit, tag))
    separable_factors.cache_clear()
    triple_correlation_grid(f, bandlimit)
    assert separable_factors.cache_info().misses <= 2
    bispectrum_via_oracle(f, 1, 2, bandlimit)
    assert separable_factors.cache_info().misses <= 2


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


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_oracle_reads_a_given_grid_bit_for_bit(tag):
    bandlimit = 2
    f = fourier_inverse(random_bandlimited(bandlimit, tag, require_real=True, seed=49), haar_quadrature(3 * bandlimit, tag))
    grid = triple_correlation_grid(f, bandlimit)
    for p in range(bandlimit + 1):
        for q in range(bandlimit + 1):
            assert bispectrum_via_oracle(f, p, q, bandlimit, grid).tobytes() == bispectrum_via_oracle(f, p, q, bandlimit).tobytes()


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
