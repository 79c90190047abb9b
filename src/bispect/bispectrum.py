"""Triple correlation and its Fourier transform, the matrix bispectrum.

The paper's descriptor entry at (p, q) is

    A(p, q) = [F(p) (x) F(q)] C_pq [F(a_1)^+ dsum ... dsum F(a_k)^+] C_pq^T

with the a_i the tensor-product decomposition degrees; degrees beyond the
bandlimit L give zero blocks.  C_pq is real orthogonal, so a descriptor
stores B(p, q) = A(p, q) C_pq = [F(p) (x) F(q)] C_pq [dsum_{a <= L} F(a)^+]
on the in-band columns only (``clebsch.in_band``) and for p <= q only: the
swap S from p (x) q to q (x) p rows gives C_qp = S C_pq Sigma, Sigma one
sign per block commuting with the middle factor, so A(q, p) = S A(p, q) S^T
exactly (``kron_swap``).  ``clebsch.couple_tables`` computes every B(p, q)
on the nonzero rows of F(p) and F(q) in one read-only buffer (on SU2 one
per parity of p + q), two gemms a pair and one a degree, and each entry is
a view of it; ``desc[(p, q)]`` forms the paper's A(p, q) on demand, B C^T
(``CGDecomposition.decouple``), swapped for p > q.  B and A have the same
Frobenius norm, so comparisons weigh each stored pair by (2 - delta_pq)
d_p d_q.  A set with a non-finite entry is refused, naming its degree,
before any of this.

A descriptor keeps, per degree l, rows rl, and per entry only the rows
rp (x) rq of B(p, q); the others are zero.  A sphere lift (SO3, every F(l)
zero off its m' = 0 row l, with entries a_l) keeps row l, so B(p, q) is
zero but for row p d_q + q, (a_p (x) a_q) C_pq [dsum F(a)^+], and as F(a)^+
is zero off its column a, block a of that row is zero but at its column
(a, M = 0): the classical spherical bispectrum

    beta(p, q, a) = (a_p (x) a_q) C_pq[:, block a] a_a^+ .

So a lift's descriptor stores its beta alone, 106 values at L = 6, summed
from the ``lift_terms`` table of C's nonzero entries with no coupling
and no scan of rows; ``desc[(p, q)]``, ``stored``, ``coupled`` and the
comparisons place it in B(p, q)'s row when asked.  Any other set, a
near-lift too, is coupled.

SO(3) irreducibles are of real type: in the real (cos/sin) basis U_l
(``clebsch.real_basis``) a real-valued function's F_R(l) = U_l F(l) U_l^+
are real.  So an SO3 set, a lift excepted, whose F_R have no imaginary part
above REAL_BASIS_TOL (1e-12) of their largest entry drops that part,
records its relative size as ``dropped_imag``, and stores in float64

    B_R(p, q) = [F_R(p) (x) F_R(q)] C_R [dsum F_R(a)^+],

C_R = (U_p (x) U_q) C_pq (dsum U_a^+) Phi^-1 the real orthogonal table of
``clebsch.real_clebsch_gordan``, with Phi = i on the blocks with p + q + a
odd.  B_R = (U_p (x) U_q) B (dsum U_a^+) Phi^-1 is B under unitary maps, so
two real-basis descriptors compare on their stored B_R; ``desc[(p, q)]``,
``coupled`` and a comparison with a standard-basis descriptor turn B_R back
to the paper's A and B.  Every other set (complex SO3 sets, SU2 sets, whose
half-integer irreducibles are quaternionic, and lifts) and every loaded
file is stored in the standard basis, in complex128.  Only the measured
imaginary part against REAL_BASIS_TOL picks the form.

A brute-force double-quadrature of the triple correlation against Wigner
matrices serves as the independent oracle for the formula at small
bandlimits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, PrecisionWarning, TagMismatchError
from .groups import SO3, SU2, GroupElement, QuadratureRule, haar_quadrature
from .harmonic import CoefficientSet, SampledFunction, fourier_forward
from .clebsch import (CGDecomposition, cg_indices, clebsch_gordan, couple_tables, coupling_layout, in_band, kron_swap,
                      lift_terms, real_basis, real_clebsch_gordan)
from .wigner import dim, wigner_all, wigner_stack_on_rule

# An SO3 set whose F_R(l) = U_l F(l) U_l^+ have no imaginary part above this
# fraction of their largest entry is coupled, and stored, in float64.
REAL_BASIS_TOL = 1e-12


def _table(tag: str, bandlimit: int, real: bool, p: int, q: int) -> CGDecomposition:
    """The C_pq, p <= q, a descriptor's entries are coupled with: C_R in the real basis, else Racah's."""
    return real_clebsch_gordan(p, q, bandlimit) if real else clebsch_gordan(tag, p, q)


def _check_finite(matrices) -> None:
    """Raise DomainError naming the first degree whose F(l) has a non-finite entry."""
    for ell, m in enumerate(matrices):
        if not np.isfinite(m).all():
            raise DomainError(f"F({ell}) has a non-finite entry")


@lru_cache(maxsize=8)
def _padded_real_basis(bandlimit: int) -> tuple[np.ndarray, np.ndarray]:
    """U_l and U_l^+ for l <= bandlimit, each zero-padded to (2L + 1, 2L + 1)
    and stacked; memoized, read-only."""
    u = np.zeros((bandlimit + 1, 2 * bandlimit + 1, 2 * bandlimit + 1), dtype=complex)
    for ell in range(bandlimit + 1):
        u[ell, : 2 * ell + 1, : 2 * ell + 1] = real_basis(ell)
    uh = np.ascontiguousarray(u.conj().transpose(0, 2, 1))
    for x in (u, uh):
        x.setflags(write=False)  # cached and shared by the whole process
    return u, uh


def _real_form(coeffs: CoefficientSet) -> tuple[list[np.ndarray], float] | None:
    """F_R(l) = U_l F(l) U_l^+ in float64 and the largest |Im F_R| they drop,
    relative to the largest |F_R| entry; None when that exceeds REAL_BASIS_TOL.
    Two batched products on the zero-padded stack of every F(l)."""
    L = coeffs.bandlimit
    u, uh = _padded_real_basis(L)
    f = np.zeros_like(u)
    for ell, m in enumerate(coeffs.matrices):
        f[ell, : 2 * ell + 1, : 2 * ell + 1] = m
    rotated = u @ f @ uh
    scale, imag = float(np.abs(rotated).max()), float(np.abs(rotated.imag).max())
    if not imag <= REAL_BASIS_TOL * scale:
        return None
    real = np.ascontiguousarray(rotated.real)
    return [real[ell, : 2 * ell + 1, : 2 * ell + 1] for ell in range(L + 1)], imag / scale if scale else 0.0


def _from_real(x: np.ndarray, p: int, q: int) -> np.ndarray:
    """(U_p (x) U_q)^+ x (U_p (x) U_q), for x with the Kronecker rows and columns of p (x) q."""
    up, uq = real_basis(p), real_basis(q)
    t = x.reshape(len(up), len(uq), len(up), len(uq))
    return np.einsum("ai,bk,abcd,cj,dl->ikjl", up.conj(), uq.conj(), t, up, uq, optimize=True).reshape(x.shape)


def _scatter(rows: np.ndarray, rp: np.ndarray, rq: np.ndarray, dp: int, dq: int) -> np.ndarray:
    """The (dp dq, n) array whose rows rp (x) rq are ``rows`` and whose other
    rows are zero; ``rows`` itself when rp and rq hold every row."""
    if len(rp) == dp and len(rq) == dq:
        return rows
    # row i d_q + k of an entry comes from row i of F(p) and row k of F(q)
    n = rows.shape[1]
    out = np.zeros((dp * dq, n), dtype=rows.dtype)
    out.reshape(dp, dq, n)[rp[:, None], rq] = rows.reshape(len(rp), len(rq), n)
    return out


def _gather(full: np.ndarray, rp: np.ndarray, rq: np.ndarray, dp: int, dq: int) -> np.ndarray:
    """Rows rp (x) rq of the (dp dq, n) ``full``, the inverse of ``_scatter``;
    ``full`` itself when rp and rq hold every row."""
    if len(rp) == dp and len(rq) == dq:
        return full
    n = full.shape[1]
    return full.reshape(dp, dq, n)[rp[:, None], rq].reshape(len(rp) * len(rq), n)


def _live_rows(matrices) -> list[tuple[np.ndarray, np.ndarray]]:
    """(indices, rows) of each F(l)'s nonzero rows; the rows are F(l) itself when every row is."""
    out = []
    for m in matrices:
        r = np.flatnonzero(m.any(axis=1))
        out.append((r, m if len(r) == len(m) else m[r]))
    return out


@lru_cache(maxsize=8)
def _lift_layout(bandlimit: int) -> tuple[dict[tuple[int, int], tuple[slice, np.ndarray, int]], tuple[np.ndarray, ...]]:
    """Where a lift at a bandlimit keeps its values, memoized, every array
    read-only: per pair p <= q, in ``lift_terms`` slot order, its beta slots,
    their columns (a, M = 0) in B(p, q)'s row p d_q + q and that row's in-band
    width; and [l], the lift row of each degree l."""
    L, terms = bandlimit, lift_terms(bandlimit)
    pairs, at = {}, 0
    for k, (p, q) in enumerate((p, q) for p in range(L + 1) for q in range(p, L + 1)):
        band, slots = in_band(SO3, p, q, L), slice(*terms.pair_start[k : k + 2].tolist())
        pairs[(p, q)] = slots, terms.position[slots] - at, band.stop - band.start
        at += band.stop - band.start
    rows = tuple(np.array([ell]) for ell in range(L + 1))
    for x in (*(cols for _, cols, _ in pairs.values()), *rows):
        x.setflags(write=False)  # cached and shared by the whole process
    return pairs, rows


def _lift_descriptor(coeffs: CoefficientSet) -> BispectrumDescriptor | None:
    """The descriptor of an SO3 set that keeps no row of any F(l) but row l, a
    sphere lift, its beta summed from ``lift_terms``; None for any other set.
    Its F(1) keeps one row of three, so its det F(1) is 0.0.  Raises
    DomainError for a lift with a non-finite entry."""
    x = np.concatenate([m[ell] for ell, m in enumerate(coeffs.matrices)])
    if np.count_nonzero(x) != sum(map(np.count_nonzero, coeffs.matrices)):
        return None
    finite = np.isfinite(x)
    if not finite.all():  # x[l^2 : (l + 1)^2] is row l of F(l)
        raise DomainError(f"F({math.isqrt(int(np.argmin(finite)))}) has a non-finite entry")
    L, terms = coeffs.bandlimit, lift_terms(coeffs.bandlimit)
    left, right, target = terms.factors
    beta = np.add.reduceat(terms.coef * x[left] * x[right] * x.conj()[target], terms.term_start)
    pairs, rows = _lift_layout(L)
    live = np.logical_or.reduceat(x != 0, np.arange(L + 1) ** 2).tolist()
    if not all(live):  # B(p, q) keeps no row when degree p or q keeps none
        for (p, q), (slots, _, _) in pairs.items():
            if not (live[p] and live[q]):
                beta[slots] = 0.0
    kept = tuple(r if keeps else r[:0] for r, keeps in zip(rows, live))
    return BispectrumDescriptor(SO3, L, det_f1=0.0 if L >= 1 else None, kept_rows=kept, beta=beta)


def bispectrum_matrix(coeffs: CoefficientSet, p: int, q: int) -> np.ndarray:
    """A(p, q) by the matrix formula: for p <= q read from the set's
    descriptor, so it is ``desc[(p, q)]`` bit for bit (a gemm's rounding
    depends on its width, so coupling the pair alone would not be); for
    p > q coupled directly.  Out-of-band degrees are zero blocks."""
    if p > coeffs.bandlimit or q > coeffs.bandlimit:
        raise DomainError("p and q must not exceed the bandlimit")
    if p <= q:
        return build_descriptor(coeffs)[(p, q)]
    _check_finite(coeffs.matrices)
    live, cg = _live_rows(coeffs.matrices), clebsch_gordan(coeffs.tag, p, q)
    rows = cg.couple(live[p][1], live[q][1], {a: m.conj().T for a, m in enumerate(coeffs.matrices) if a in cg.indices})
    return _scatter(cg.decouple(rows), live[p][0], live[q][0], dim(p, coeffs.tag), dim(q, coeffs.tag))


@dataclass(frozen=True, eq=False)
class BispectrumDescriptor:
    """B(p, q) for p <= q <= bandlimit, plus optional det side information.

    ``entries[(p, q)]`` holds the in-band columns of the rows rp (x) rq of
    B(p, q), with rl = ``kept_rows[l]`` the strictly increasing indices of
    the rows of degree l kept; the other rows are zero.  With ``kept_rows``
    None, the default, the entries are given with every row, and degree l
    keeps the rows nonzero in some B(l, q), as the first Kronecker factor,
    or in some B(p, l), as the second.  With ``dropped_imag`` None the
    entries are in the standard basis; a number marks an SO3 descriptor whose
    real entries are B_R(p, q), in the real basis (``build_descriptor``), and
    is the relative imaginary part dropped to get them.

    A sphere lift is given as its ``beta`` instead, in ``clebsch.lift_terms``
    slot order, with degree l keeping row l or, when ``kept_rows[l]`` is
    empty, nothing (default: every degree keeps its row).  It holds beta
    once, read-only, and ``entries[(p, q)]`` is the view of it holding the
    pair's beta(p, q, a), the values of row p d_q + q of B(p, q) at its
    columns (a, M = 0); every other value of B(p, q) is zero, and so is the
    beta of a pair whose degree keeps no row.  Entries given beside beta
    must hold those values.  ``desc[(p, q)]`` is the full A(p, q), in the
    standard basis, for either order of p and q, in every form."""

    tag: str
    bandlimit: int
    entries: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    det_f1: float | None = None
    kept_rows: tuple[np.ndarray, ...] | None = None
    dropped_imag: float | None = None
    beta: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.beta is not None:
            return self._hold_beta()
        if self.dropped_imag is not None and (self.tag != SO3 or any(map(np.iscomplexobj, self.entries.values()))):
            raise DomainError("only an SO3 descriptor holds real-basis entries, and they are real")
        dims = [dim(ell, self.tag) for ell in range(self.bandlimit + 1)]
        given = self.kept_rows
        kept = (tuple(np.arange(d) for d in dims) if given is None
                else tuple(np.asarray(r, dtype=int) for r in given))
        if len(kept) != self.bandlimit + 1:
            raise DomainError(f"kept_rows needs {self.bandlimit + 1} degrees, found {len(kept)}")
        for ell, (r, d) in enumerate(zip(kept, dims)):
            rows = r.tolist()  # a short list: plain comparisons beat numpy calls here
            if r.ndim != 1 or any(j <= i for i, j in zip(rows, rows[1:])) or (rows and (rows[0] < 0 or rows[-1] >= d)):
                raise DomainError(f"kept_rows[{ell}] must be strictly increasing within 0..{d - 1}")
        for (p, q), m in self.entries.items():
            if not 0 <= p <= q <= self.bandlimit:
                raise DomainError(f"pair {(p, q)} lies outside 0 <= p <= q <= {self.bandlimit}")
            band = in_band(self.tag, p, q, self.bandlimit)
            want = (len(kept[p]) * len(kept[q]), band.stop - band.start)
            if np.shape(m) != want:
                raise DomainError(f"entry {(p, q)} with its kept rows must be {want}, found {np.shape(m)}")
        if given is None:
            live = [np.zeros(d, dtype=bool) for d in dims]
            for (p, q), m in self.entries.items():
                nonzero = np.asarray(m).any(axis=1).reshape(dims[p], dims[q])
                live[p] |= nonzero.any(axis=1)
                live[q] |= nonzero.any(axis=0)
            kept = tuple(np.flatnonzero(r) for r in live)
            entries = {(p, q): _gather(np.asarray(m), kept[p], kept[q], dims[p], dims[q])
                       for (p, q), m in self.entries.items()}
            object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "kept_rows", kept)

    def _hold_beta(self) -> None:
        """Check a lift's beta and kept rows and make the entries views of beta."""
        L = self.bandlimit
        if self.tag != SO3 or self.dropped_imag is not None:
            raise DomainError("only an SO3 descriptor in the standard basis is given as a lift's beta")
        pairs, rows = _lift_layout(L)
        beta, size = np.array(self.beta, dtype=complex), len(lift_terms(L).term_start)
        if beta.shape != (size,):
            raise DomainError(f"a lift at bandlimit {L} needs {size} beta values, found shape {beta.shape}")
        kept = rows if self.kept_rows is None else tuple(np.asarray(r, dtype=int) for r in self.kept_rows)
        if len(kept) != L + 1:
            raise DomainError(f"kept_rows needs {L + 1} degrees, found {len(kept)}")
        for ell, r in enumerate(kept):
            if r.tolist() not in ([], [ell]):
                raise DomainError(f"kept_rows[{ell}] of a lift must be [] or [{ell}], found {r.tolist()}")
        if not all(map(len, kept)):
            for (p, q), (slots, _, _) in pairs.items():
                if not (len(kept[p]) and len(kept[q])) and beta[slots].any():
                    raise DomainError(f"beta of pair {(p, q)} must be zero: degree {p if len(kept[q]) else q} keeps no row")
        beta.setflags(write=False)
        entries = {pq: beta[slots] for pq, (slots, _, _) in pairs.items()}
        if self.entries and (self.entries.keys() != entries.keys()
                             or not all(np.array_equal(self.entries[pq], m) for pq, m in entries.items())):
            raise DomainError("entries given beside a lift's beta must be its per-pair values")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "kept_rows", kept)
        object.__setattr__(self, "entries", entries)

    def _rows(self, p: int, q: int) -> np.ndarray:
        """The stored rows rp (x) rq of B(p, q), p <= q: the entry, or a lift's
        one row, none when p or q keeps none, holding beta at its columns."""
        if self.beta is None:
            return self.entries[(p, q)]
        _, columns, width = _lift_layout(self.bandlimit)[0][(p, q)]
        rows = np.zeros((len(self.kept_rows[p]) * len(self.kept_rows[q]), width), dtype=complex)
        rows[:, columns] = self.entries[(p, q)]
        return rows

    @property
    def in_real_basis(self) -> bool:
        """Whether the entries are B_R, in the real basis."""
        return self.dropped_imag is not None

    def table(self, p: int, q: int) -> CGDecomposition:
        """The table entry (p, q), p <= q, is coupled with: C_R in the real basis, else C_pq."""
        return _table(self.tag, self.bandlimit, self.in_real_basis, p, q)

    def __getitem__(self, pq: tuple[int, int]) -> np.ndarray:
        p, q = pq
        lo, hi = min(p, q), max(p, q)
        if (lo, hi) not in self.entries:
            raise DomainError(f"descriptor holds no pair {(p, q)}")
        rows = self.table(lo, hi).decouple(self._rows(lo, hi))
        if p > q:  # A(p, q) = S A(q, p) S^T, on the kept rows; in either basis
            rows = kron_swap(rows, dim(q, self.tag), dim(p, self.tag), len(self.kept_rows[q]), len(self.kept_rows[p]))
        full = _scatter(rows, self.kept_rows[p], self.kept_rows[q], dim(p, self.tag), dim(q, self.tag))
        return _from_real(full, p, q) if self.in_real_basis else full

    def stored(self, p: int, q: int) -> np.ndarray:
        """The stored B(p, q), p <= q, with every row, in the descriptor's basis; the rows not kept are zero."""
        return _scatter(self._rows(p, q), self.kept_rows[p], self.kept_rows[q], dim(p, self.tag), dim(q, self.tag))

    def coupled(self, p: int, q: int) -> np.ndarray:
        """B(p, q), p <= q, in the standard basis, with every row."""
        if self.in_real_basis:
            return (self[(p, q)] @ clebsch_gordan(SO3, p, q).C)[:, in_band(SO3, p, q, self.bandlimit)]
        return self.stored(p, q)

    def pairs(self) -> list[tuple[int, int]]:
        """Every (p, q) that indexing gives A(p, q) for: the stored pairs and their swaps."""
        return sorted({pair for p, q in self.entries for pair in ((p, q), (q, p))})


def build_descriptor(coeffs: CoefficientSet) -> BispectrumDescriptor:
    """Assemble the descriptor, each degree keeping the nonzero rows of its F(l).

    A sphere lift stores its beta alone, from ``lift_terms``.  Any other SO3 set
    whose F_R(l) = U_l F(l) U_l^+ (``clebsch.real_basis``) have an imaginary
    part within REAL_BASIS_TOL of their largest entry, as a real-valued
    function's do, drops it, records it as ``dropped_imag`` and stores
    B_R(p, q) = [F_R(p) (x) F_R(q)] C_R [dsum F_R(a)^+] in float64
    (``clebsch.real_clebsch_gordan``); every other set, SU2 included, stores
    its complex B(p, q).  SO3 sets with a (near-)real det F(1) store it as
    side information for the reconstruction sign branch."""
    tag, L = coeffs.tag, coeffs.bandlimit
    lift = _lift_descriptor(coeffs) if tag == SO3 else None
    if lift is not None:
        return lift
    _check_finite(coeffs.matrices)
    det_f1 = None
    if tag != SU2 and L >= 1:
        det = complex(np.linalg.det(coeffs[1]))
        if abs(det.imag) <= 1e-8 * max(1.0, abs(det.real)):
            det_f1 = float(det.real)
    real = _real_form(coeffs) if tag == SO3 else None
    mats, dropped = real or (coeffs.matrices, None)
    live = _live_rows(mats)
    blocks = {a: m.conj().T for a, m in enumerate(mats)}
    entries = {}
    for degrees, run, tables in coupling_layout(tag, L, dropped is not None):  # one buffer per run
        entries.update(zip(run, couple_tables(tables, [(live[p][1], live[q][1]) for p, q in run], blocks, degrees)))
    pairs = [(p, q) for p in range(L + 1) for q in range(p, L + 1)]
    return BispectrumDescriptor(tag, L, {pq: entries[pq] for pq in pairs}, det_f1, tuple(r for r, _ in live), dropped)


def _compared_blocks(d1: BispectrumDescriptor, d2: BispectrumDescriptor):
    """((2 - delta_pq) d_p d_q, block of d1, block of d2) per stored pair: each
    B(p, q) on the union of both descriptors' kept rows, never dense; with
    one descriptor in the real basis and one not, both in the standard basis.
    Raises unless both share group, bandlimit and entry set."""
    if (d1.tag, d1.bandlimit) != (d2.tag, d2.bandlimit):
        raise TagMismatchError("descriptors differ in group or bandlimit")
    if sorted(d1.entries) != sorted(d2.entries):
        raise DomainError("descriptors carry different entry sets")
    if d1.in_real_basis != d2.in_real_basis:
        d1, d2 = (BispectrumDescriptor(d.tag, d.bandlimit, {pq: d.coupled(*pq) for pq in d.entries}) if d.in_real_basis
                  else d for d in (d1, d2))
    union = [np.union1d(r1, r2) for r1, r2 in zip(d1.kept_rows, d2.kept_rows)]
    at = [[np.searchsorted(u, r) for u, r in zip(union, d.kept_rows)] for d in (d1, d2)]
    for p, q in sorted(d1.entries):
        b1, b2 = (_scatter(d._rows(p, q), a[p], a[q], len(union[p]), len(union[q])) for d, a in zip((d1, d2), at))
        yield (2 - (p == q)) * dim(p, d1.tag) * dim(q, d1.tag), b1, b2


def descriptor_distance(d1: BispectrumDescriptor, d2: BispectrumDescriptor) -> float:
    """Dimension-weighted Frobenius distance over every A(p, q); zero iff entrywise equal."""
    return float(np.sqrt(sum(w * float(np.linalg.norm(b1 - b2) ** 2) for w, b1, b2 in _compared_blocks(d1, d2))))


def descriptor_max_relative_gap(d1: BispectrumDescriptor, d2: BispectrumDescriptor) -> float:
    """Worst per-entry Frobenius gap relative to the first descriptor's scale;
    A(q, p) has the gap of A(p, q)."""
    gaps = (float(np.linalg.norm(b1 - b2)) / max(float(np.linalg.norm(b1)), 1e-300) for _, b1, b2 in _compared_blocks(d1, d2))
    return max([0.0, *gaps])


# ---------------------------------------------------------------------------
# Triple correlation (the brute-force side of the dual route)
# ---------------------------------------------------------------------------


def _translated_samples(coeffs: CoefficientSet, shifts: list[np.ndarray], rule: QuadratureRule) -> np.ndarray:
    """Rows u[j, i] = f(g_i x_j) = sum_ell dim Tr[D_ell(x_j) F(ell) D_ell(g_i)], one gemm per degree.

    shifts[ell] stacks D_ell(x_j) over the shifts x_j, shape (n, dim, dim)."""
    n = shifts[0].shape[0]
    u = np.zeros((n, rule.size), dtype=complex)
    for ell, dx in enumerate(shifts):
        d = dim(ell, coeffs.tag)
        # Tr[M D] = sum_uv M^T[v, u] D[v, u]: both flattened over (v, u)
        left = (dx @ coeffs[ell]).transpose(0, 2, 1).reshape(n, d * d)
        u += d * (left @ wigner_stack_on_rule(ell, coeffs.tag, rule, coeffs.bandlimit).reshape(rule.size, d * d).T)
    return u


def triple_correlation(
    f: SampledFunction, g1: GroupElement, g2: GroupElement, bandlimit: int
) -> complex:
    """a3(g1, g2) = sum_i w_i conj(f_i) f(g_i g1) f(g_i g2).

    Off-node evaluations go through the bandlimited synthesis, which is
    exact when f is bandlimited at ``bandlimit`` and its rule is exact for
    triple products (rule bandlimit >= 3 * bandlimit).
    """
    if f.rule.bandlimit < 3 * bandlimit:
        warnings.warn(
            f"rule bandlimit {f.rule.bandlimit} < 3*{bandlimit}; triple correlation approximate",
            PrecisionWarning,
            stacklevel=2,
        )
    coeffs = fourier_forward(f, bandlimit)
    u = _translated_samples(coeffs, wigner_all(bandlimit, f.tag, [g1, g2]), f.rule)
    return complex(np.sum(f.rule.weights * np.conj(f.values) * u[0] * u[1]))


def triple_correlation_grid(f: SampledFunction, bandlimit: int) -> np.ndarray:
    """a3(g_j, g_k) as an (n, n) array, on the n nodes of ``haar_quadrature(bandlimit, f.tag)``."""
    outer_rule = haar_quadrature(bandlimit, f.tag)
    coeffs = fourier_forward(f, bandlimit)
    shifts = [wigner_stack_on_rule(ell, f.tag, outer_rule, bandlimit) for ell in range(bandlimit + 1)]
    u = _translated_samples(coeffs, shifts, f.rule)
    wf = f.rule.weights * np.conj(f.values)
    # a3[j, k] = sum_i (w_i conj(f_i)) U[j, i] U[k, i], one gemm
    return (u * wf[None, :]) @ u.T


def bispectrum_via_oracle(
    f: SampledFunction, p: int, q: int, bandlimit: int, grid: np.ndarray | None = None
) -> np.ndarray:
    """A(p, q) by the defining double integral of the triple correlation.

    Independent of the matrix formula (no Clebsch-Gordan data); meant for
    small bandlimits only.  ``grid`` is ``triple_correlation_grid(f,
    bandlimit)``, built here when None: pass it to read several pairs of
    one function from one grid.
    """
    a3 = triple_correlation_grid(f, bandlimit) if grid is None else grid
    outer = haar_quadrature(bandlimit, f.tag)  # memoized: the rule a3 is tabulated on
    dp = wigner_stack_on_rule(p, f.tag, outer, bandlimit)  # the plan a3 was tabulated with
    dq = wigner_stack_on_rule(q, f.tag, outer, bandlimit)
    w = outer.weights
    # sum_{a,b} w_a w_b a3[a,b]  D_p(g_a)^+ (x) D_q(g_b)^+
    left = np.einsum("a,b,ab,aij->bij", w, w, a3, np.conj(dp.transpose(0, 2, 1)), optimize=True)
    return np.einsum("bij,bkl->ikjl", left, np.conj(dq.transpose(0, 2, 1)), optimize=True).reshape(
        dim(p, f.tag) * dim(q, f.tag), -1
    )


# ---------------------------------------------------------------------------
# Support closure (the dual-side hypothesis of the completeness theorem)
# ---------------------------------------------------------------------------


@dataclass
class ClosureReport:
    closed: bool
    witness: tuple[int, int, int] | None = None  # (p, q, missing degree)
    conjugation_self_dual: dict[int, float] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.closed


def support_closure_check(support: set[int], tag: str, check_conjugation: bool = False) -> ClosureReport:
    """Is the degree set closed under tensor-product decomposition?

    A finite support stands for the window of an infinite degree set, so a
    missing decomposition degree is only a violation when it falls inside
    the window, taken as one dual-index step past the support's maximum:
    the even SU2 set {0, 2, 4} is closed (6 lies beyond its window), while
    {0, 1} is not (2 falls inside and is absent).

    Every SU2/SO3 irreducible is equivalent to its conjugate (degree map
    ell -> ell), so conjugation closure is automatic; with
    ``check_conjugation`` the self-duality is re-verified numerically for
    small degrees and the similarity defect recorded in the report.
    """
    support = set(int(x) for x in support)
    if 0 not in support:
        raise DomainError("support must contain degree 0 (the trivial representation)")
    window = max(support) + 1
    witness = next(((p, q, a) for p in sorted(support) for q in sorted(support) for a in cg_indices(tag, p, q)
                    if a <= window and a not in support), None)
    report = ClosureReport(witness is None, witness)
    if check_conjugation:
        report.conjugation_self_dual = {
            ell: _conjugation_similarity_defect(tag, ell) for ell in range(min(max(support), 4) + 1)
        }
    return report


def _conjugation_similarity_defect(tag: str, ell: int) -> float:
    """How far conj(D_ell) is from being unitarily similar to D_ell (0 = similar)."""
    rule = haar_quadrature(ell, tag)
    dstack = wigner_stack_on_rule(ell, tag, rule)
    rng = np.random.default_rng(ell + 17)
    d = dim(ell, tag)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    # T = dim * integral conj(D) X D^+ intertwines conj(D) with D; by Schur it
    # is a multiple of the similarity when the two are equivalent
    t = d * np.einsum("n,nij,jk,nlk->il", rule.weights, np.conj(dstack), x, np.conj(dstack), optimize=True)
    svals = np.linalg.svd(t, compute_uv=False)
    if svals[0] < 1e-12:
        return 1.0
    return float((svals[0] - svals[-1]) / svals[0])
