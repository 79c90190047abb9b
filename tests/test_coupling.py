"""A descriptor's one-buffer coupling (``clebsch.couple_tables``) against the
per-pair coupling it replaced, and the typed refusal of non-finite sets."""

import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag

from bispect.bispectrum import bispectrum_matrix, build_descriptor
from bispect.clebsch import (_degree_rows, _in_band_cg, clebsch_gordan, coupling_layout, in_band,
                             in_band_clebsch_gordan, real_basis, real_clebsch_gordan)
from bispect.errors import DomainError
from bispect.groups import SO3, SU2
from bispect.harmonic import CoefficientSet, random_bandlimited
from bispect.sphere import random_sphere_function, sphere_lift
from bispect.wigner import dim


def _per_pair_couple(c, a, b, blocks, degrees):
    """[a (x) b] C [dsum_d blocks[d]] for one table C whose columns are the
    blocks of ``degrees``, computed as the per-pair route did: C times a^T, a
    real C as a float64 gemm on a complex a's [re, im] pairs, then times b^T,
    then one gemm per degree into a zeroed result."""
    dp, dq, n = a.shape[1], b.shape[1], c.shape[1]
    ct, x = c.reshape(dp, dq, n).transpose(1, 2, 0), np.ascontiguousarray(a.T)
    if c.dtype == np.float64 and x.dtype == np.complex128:
        t = (ct @ x.view(np.float64)).view(np.complex128)
    else:
        t = ct @ x
    t = (t.reshape(dq, n * len(a)).T @ b.T).reshape(n, len(a) * len(b)).T
    y = np.zeros((len(t), n), dtype=np.result_type(t, *blocks.values()))
    at = 0
    for d in degrees:
        cols = slice(at, at + len(blocks[d]))
        np.matmul(t[:, cols], blocks[d], out=y[:, cols])
        at = cols.stop
    return y


def _per_pair_entries(coeffs, real):
    """Every B(p, q), p <= q, on its kept rows, one pair at a time: in the real
    basis from F_R(l) = U_l F(l) U_l^+ taken one degree at a time and C_R, else
    from F(l) and the in-band columns of Racah's C."""
    tag, L = coeffs.tag, coeffs.bandlimit
    mats = coeffs.matrices
    if real:
        mats = [(real_basis(ell) @ m @ real_basis(ell).conj().T).real for ell, m in enumerate(mats)]
    rows = [m[np.flatnonzero(m.any(axis=1))] for m in mats]
    blocks = {a: m.conj().T for a, m in enumerate(mats)}
    out = {}
    for p in range(L + 1):
        for q in range(p, L + 1):
            if real:
                cg = real_clebsch_gordan(p, q, L)
                c = cg.C
            else:
                cg = clebsch_gordan(tag, p, q)
                c = cg.C[:, in_band(tag, p, q, L)]
            out[(p, q)] = _per_pair_couple(c, rows[p], rows[q], blocks, [a for a in cg.indices if a <= L])
    return out


def _rel(x, y):
    return float(np.linalg.norm(x - y)) / max(float(np.linalg.norm(y)), 1e-300)


def test_real_so3_entries_and_dropped_part_are_the_per_pair_bits():
    coeffs = random_bandlimited(6, SO3, require_real=True, seed=50)
    desc = build_descriptor(coeffs)
    assert desc.in_real_basis
    want = _per_pair_entries(coeffs, real=True)
    assert desc.entries.keys() == want.keys()
    for pq, entry in desc.entries.items():
        assert entry.dtype == np.float64 and entry.tobytes() == want[pq].tobytes()
    rotated = [real_basis(ell) @ m @ real_basis(ell).conj().T for ell, m in enumerate(coeffs.matrices)]
    scale = max(float(np.abs(m).max()) for m in rotated)
    assert desc.dropped_imag == max(float(np.abs(m.imag).max()) for m in rotated) / scale


def _with_a_zero_degree(tag, require_real=False):
    mats = [m.copy() for m in random_bandlimited(4, tag, require_real=require_real, seed=51).matrices]
    mats[1][0] = 0
    mats[2][:] = 0
    return CoefficientSet(tag, 4, tuple(mats))


@pytest.mark.parametrize(
    "make",
    [lambda: random_bandlimited(4, SU2, seed=52),
     lambda: random_bandlimited(5, SU2, seed=53),
     lambda: random_bandlimited(4, SO3, seed=54),
     lambda: _with_a_zero_degree(SU2),
     lambda: _with_a_zero_degree(SO3),
     lambda: _with_a_zero_degree(SO3, require_real=True),
     lambda: random_bandlimited(1, SO3, require_real=True, seed=56),
     lambda: random_bandlimited(0, SU2, seed=57),
     lambda: random_bandlimited(1, SU2, seed=58)],
    ids=["SU2-even-L", "SU2-odd-L", "SO3-complex", "SU2-zero-degree", "SO3-zero-degree", "SO3-real-zero-degree",
         "SO3-L1", "SU2-L0", "SU2-L1"],
)
def test_entries_match_the_per_pair_coupling(make):
    # an SO3 set at L = 0 is a sphere lift, which is not coupled
    coeffs = make()
    desc = build_descriptor(coeffs)
    want = _per_pair_entries(coeffs, real=desc.in_real_basis)
    assert desc.entries.keys() == want.keys()
    for pq, entry in desc.entries.items():
        assert entry.shape == want[pq].shape and entry.dtype == want[pq].dtype
        assert _rel(entry, want[pq]) <= 1e-15


@pytest.mark.parametrize("p, q", [(1, 4), (4, 1), (2, 2)])
def test_one_pair_through_bispectrum_matrix_matches_the_per_pair_coupling(p, q):
    coeffs = random_bandlimited(5, SU2, seed=59)
    cg = clebsch_gordan(SU2, p, q)
    band = in_band(SU2, p, q, 5)
    blocks = {a: m.conj().T for a, m in enumerate(coeffs.matrices)}
    rows = _per_pair_couple(cg.C[:, band], coeffs[p], coeffs[q], blocks, [a for a in cg.indices if a <= 5])
    assert _rel(bispectrum_matrix(coeffs, p, q), rows @ cg.C[:, band].T) <= 1e-15


def test_couple_with_real_blocks_zeroes_a_missing_degree_in_place(rng):
    # real factors, table and blocks couple in place in the one buffer; an inner degree left out is a zero block
    cg = clebsch_gordan(SO3, 2, 2)
    a, b = rng.standard_normal((2, 5)), rng.standard_normal((3, 5))
    given = {d: rng.standard_normal((dim(d, SO3),) * 2) for d in cg.indices if d != 2}
    got = cg.couple(a, b, given)
    middle = block_diag(*[given.get(d, np.zeros((dim(d, SO3),) * 2)) for d in cg.indices])
    want = np.kron(a, b) @ cg.C @ middle
    assert got.dtype == np.float64 and not got.flags.writeable
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_entries_are_read_only_views_of_one_buffer_of_the_same_bytes():
    # the benchmark's shape: a real SO3 set at L = 8, every row live
    desc = build_descriptor(random_bandlimited(8, SO3, require_real=True, seed=60))
    entries = list(desc.entries.values())
    assert sum(e.nbytes for e in entries) == 2_072_856
    assert not any(e.flags.writeable for e in entries)
    buffer = entries[0].base
    assert all(e.base is buffer for e in entries)
    # 81 degree rows by 3765 kept Kronecker rows, 15 % of it padding
    assert buffer.shape == (81, 3765) and buffer.nbytes == 2_439_720


def test_descriptor_builds_leave_the_dense_table_memo_empty():
    clebsch_gordan.cache_clear()
    for coeffs in (random_bandlimited(4, SU2, seed=61), random_bandlimited(4, SO3, seed=62),
                   random_bandlimited(4, SO3, require_real=True, seed=63)):
        build_descriptor(coeffs)
    assert clebsch_gordan.cache_info().currsize == 0


def test_in_band_tables_are_contiguous_complex_and_read_only():
    for tag in (SU2, SO3):
        cg = in_band_clebsch_gordan(tag, 2, 3, 4)
        full = clebsch_gordan(tag, 2, 3)
        band = in_band(tag, 2, 3, 4)
        assert cg.C.dtype == np.complex128 and cg.C.flags.c_contiguous and not cg.C.flags.writeable
        assert np.array_equal(cg.C, full.C[:, band]) and cg.indices == tuple(a for a in full.indices if a <= 4)
        assert in_band_clebsch_gordan(tag, 2, 3, 9) is in_band_clebsch_gordan(tag, 2, 3, 5)
    assert _in_band_cg.cache_info().maxsize is not None
    with pytest.raises(DomainError):
        in_band_clebsch_gordan(SO3, 3, 2, 4)


@pytest.mark.parametrize("tag", [SO3, SU2])
def test_every_pair_s_in_band_degrees_are_one_stretch_of_one_run(tag):
    for L in range(8):
        layout = coupling_layout(tag, L, False)
        runs = [degrees for degrees, _, _ in layout]
        assert len(runs) == (2 if tag == SU2 and L else 1)
        assert sorted(a for run in runs for a in run) == list(range(L + 1))
        for p in range(L + 1):
            for q in range(p, L + 1):
                kept = [a for a in clebsch_gordan(tag, p, q).indices if a <= L]
                run = next(run for run in runs if kept[0] in run)
                start = run.index(kept[0])
                assert list(run[start : start + len(kept)]) == kept
                rows, height = _degree_rows(tag, run)
                assert height == sum(dim(a, tag) for a in run)
                band = in_band(tag, p, q, L)
                assert rows[kept[-1]].stop - rows[kept[0]].start == band.stop - band.start
        # the layout holds each run with its pairs, in order, and their tables
        assert sorted(pq for _, run, _ in layout for pq in run) == [(p, q) for p in range(L + 1) for q in range(p, L + 1)]
        assert all(cg.indices[0] in degrees for degrees, _, tables in layout for cg in tables)
    assert _degree_rows.cache_info().maxsize is not None and coupling_layout.cache_info().maxsize is not None


def test_su2_keeps_one_buffer_per_parity():
    # a pair's in-band degrees share the parity of p + q, so a buffer per parity pads as little as SO3's one
    desc = build_descriptor(random_bandlimited(5, SU2, seed=64))
    buffers = {id(e.base): e.base for e in desc.entries.values()}
    assert len(buffers) == 2
    for buffer in buffers.values():
        assert not buffer.flags.writeable
    values = sum(e.nbytes for e in desc.entries.values())
    assert values == 38_032 and sum(b.nbytes for b in buffers.values()) == 43_488


def _with_entry(coeffs, ell, at, value):
    mats = [m.copy() for m in coeffs.matrices]
    mats[ell][at] = value
    return CoefficientSet(coeffs.tag, coeffs.bandlimit, tuple(mats))


@pytest.mark.parametrize(
    "coeffs, degree",
    [(_with_entry(random_bandlimited(3, SO3, seed=1), 1, (0, 0), np.nan), 1),
     (_with_entry(random_bandlimited(3, SO3, seed=1), 2, (0, 0), np.nan), 2),
     (_with_entry(random_bandlimited(3, SO3, require_real=True, seed=1), 2, (4, 1), np.nan), 2),
     (_with_entry(random_bandlimited(3, SU2, seed=1), 3, (1, 2), np.inf), 3),
     (_with_entry(sphere_lift(random_sphere_function(8, 3, seed=2), 3), 2, (2, 1), np.nan), 2)],
    ids=["SO3-nan-F1", "SO3-nan-F2", "real-SO3-nan-F2", "SU2-inf-F3", "lift-nan-F2"],
)
def test_a_non_finite_set_is_refused_naming_its_degree(coeffs, degree):
    # refused before det F(1) or any table is read: no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=rf"F\({degree}\) has a non-finite entry"):
            build_descriptor(coeffs)
        with pytest.raises(DomainError, match=rf"F\({degree}\) has a non-finite entry"):
            bispectrum_matrix(coeffs, 3, 1)
