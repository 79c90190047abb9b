"""Clebsch-Gordan decompositions, subgroup projections, duality checks.

Tensor products of irreducibles decompose multiplicity-free on SU(2) and
SO(3), so each unitary change of basis C_pq is determined block by block up
to a single phase.  The real Condon-Shortley coefficients <j1 m1 j2 m2|J M>
are the eigenvectors of the total J^2 on each total-M sector of p x q, a
symmetric tridiagonal matrix in m1; one batched eigenproblem per pair gives
every block, with no quadrature and no random trials.  Each eigenvector
takes the Condon-Shortley sign: its entry with the largest m1 (m1 = j1 or
m2 = -j2), where Racah's formula has a single positive term, is positive.
Every stored block is then Racah's closed form, sign included.

Only this module reads C's layout (Kronecker-ordered rows, column blocks in
cg_indices order, so the degrees a <= L are the last columns, ``in_band``);
other modules go through ``couple_tables``, which builds the coupled forms
[a (x) b] C [dsum M_d] that a descriptor stores for every pair at once,
``CGDecomposition.couple``, the same routine on one table,
``CGDecomposition.decouple``, its trailing C^+, ``CGDecomposition.block``,
``kron_solve``, ``kron_swap`` and ``lift_terms``, the memoized, read-only
term table of a sphere lift's beta(p, q, a), their slots per pair and their
places in B(p, q)'s rows.

``couple_tables`` fills one buffer G per run of ``coupling_layout``: on
SO3 one, its rows the degree blocks a = L..0; on SU2 one per parity, since a
pair's in-band degrees share the parity of p + q.  Each pair's in-band
degrees are then one run of G's rows, and G's columns are each pair's kept
Kronecker rows, pair after pair.  Per pair two gemms write
([F(p)_r (x) F(q)_r] C)^T into its rows and columns, reading the contiguous
in-band C as (d_p, d_q n); then one in-place gemm per degree applies the
middle factor to that degree's rows, for every pair at once, and each entry
is the transposed view of its block.  At SO3 L = 8 with every row kept G is
81 x 3765 float64, 2,439,720 bytes for 2,072,856 bytes of entry values, and
a build makes 45 x 2 + 9 matmul calls where coupling pair by pair made
45 x 2 + 215, one per pair and in-band degree.  On the benchmark's SO3 L = 8
inputs a build takes about 1.8 ms in a loop of builds against 2.2 ms pair by
pair, and the so3-l8-roundtrip op's median fell from 5.38 to 5.02 ms over
ten alternating fresh-process pairs at seed 7, nine of them better, and by
4.9-6.3 % in two runs of ten at seed 0, ten and seven better (2 vCPUs,
OpenBLAS 0.3.31, 2 threads).  A descriptor's runs, pairs and tables are
memoized per (tag, L, basis) (``coupling_layout``), the rows of each degree
per degree order (``_degree_rows``).  The tables are contiguous and in band:
C_R (``real_clebsch_gordan``) for real-basis descriptors, Racah's C in
complex128 (``in_band_clebsch_gordan``) for the others; neither fills the
``clebsch_gordan`` memo.

The real (cos/sin) basis of an SO3 degree l is the unitary U_l
(``real_basis``): with m ascending, row l is e_0, and for m > 0 row l + m is
(e_-m + (-1)^m e_m)/sqrt 2 and row l - m is i (e_-m - (-1)^m e_m)/sqrt 2.
U_l D_l U_l^+ is real, and with this U the blocks of (U_p (x) U_q) C
(dsum U_a^+) with p + q + a even are real and the odd ones imaginary, so
``real_clebsch_gordan`` divides each odd block by Phi = i and gets the real
orthogonal C_R, memoized per (p, q, min(L, p + q)) for p <= q on the in-band
columns only.  It is built from C with U's two nonzeros a row, as flips,
never by dense products.

The subgroup throughout is H = rotations about the z-axis (for SU2, its
diagonal circle preimage).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import BispectError, DomainError, TagMismatchError
from .groups import SO3, SU2, GroupElement
from .wigner import dim, j2_of, m_values, wigner_all


def cg_indices(tag: str, p: int, q: int) -> tuple[int, ...]:
    """Ordered degrees in the decomposition of degree-p x degree-q."""
    if p < 0 or q < 0:
        raise DomainError("degrees must be nonnegative")
    step = 2 if tag == SU2 else 1
    return tuple(range(p + q, abs(p - q) - 1, -step))


@dataclass(frozen=True, eq=False)
class CGDecomposition:
    tag: str
    p: int
    q: int
    C: np.ndarray
    indices: tuple[int, ...]
    block_slices: tuple[slice, ...] = field(init=False, repr=False)  # C's columns per degree, in indices order

    def __post_init__(self):
        ends = np.cumsum([dim(a, self.tag) for a in self.indices]).tolist()
        object.__setattr__(self, "block_slices", tuple(map(slice, [0, *ends[:-1]], ends)))

    def block(self, a: int) -> np.ndarray:
        """Columns of C belonging to target degree a."""
        i = self.indices.index(a)
        return self.C[:, self.block_slices[i]]

    def couple(self, a: np.ndarray | None, b: np.ndarray | None, blocks: Mapping[int, np.ndarray]) -> np.ndarray:
        """The coupled form [a (x) b] C' [dsum_d M_d] from {degree d: M_d},
        computed left to right; C' is C from the first given degree's columns on.

        a and b are rows of the two factors, shapes (k_a, d_p) and (k_b, d_q),
        or None for the identity; result row r k_b + s comes from a[r] and
        b[s].  Blocks stacked (N, d, d) give stacked results.  A missing
        degree is a zero block.  ``couple_tables`` on C' alone; the result
        is a read-only view."""
        first = next(i for i, d in enumerate(self.indices) if d in blocks)
        c = np.ascontiguousarray(self.C[:, self.block_slices[first].start:])
        a = np.eye(dim(self.p, self.tag)) if a is None else a
        b = np.eye(dim(self.q, self.tag)) if b is None else b
        degrees = self.indices[first:]
        return couple_tables([CGDecomposition(self.tag, self.p, self.q, c, degrees)], [(a, b)], blocks, degrees)[0]

    def decouple(self, y: np.ndarray) -> np.ndarray:
        """y C'^+ for a coupled form y of width n, C' being C's last n columns:
        ``couple``'s rows in Kronecker columns.  Run transposed so that a real C
        is one float64 gemm; the result is a transposed view."""
        return _real_times(self.C[:, self.C.shape[1] - y.shape[-1]:].conj(), y.swapaxes(-1, -2)).swapaxes(-1, -2)


def _real_times(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """c @ x; a real c times a complex x runs as one float64 gemm on x's
    [re, im] pairs, so c is never copied to complex."""
    if c.dtype != np.float64 or x.dtype != np.complex128:
        return c @ x
    return (c @ np.ascontiguousarray(x).view(np.float64)).view(np.complex128)


@lru_cache(maxsize=4)
def coupling_layout(tag: str, bandlimit: int, real: bool) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...],
                                                                         tuple[CGDecomposition, ...]], ...]:
    """What a descriptor's ``couple_tables`` reads, one buffer per run of
    degrees a <= bandlimit: the run, down from its top degree, its pairs
    p <= q in order and their tables, C_R (``real_clebsch_gordan``) when
    ``real``, else Racah's in-band C (``in_band_clebsch_gordan``).  SO3 has
    one run; SU2 has one per parity, as a pair's in-band degrees share the
    parity of p + q, so each pair's in-band degrees are one stretch of its
    run and its buffer pads it only by degrees of its own parity.  Memoized
    per (tag, bandlimit, real); it keeps its tables alive."""
    pairs = [(p, q) for p in range(bandlimit + 1) for q in range(p, bandlimit + 1)]
    tables = {(p, q): real_clebsch_gordan(p, q, bandlimit) if real else in_band_clebsch_gordan(tag, p, q, bandlimit)
              for p, q in pairs}
    step = 2 if tag == SU2 else 1
    layout = []
    for top in range(bandlimit, max(bandlimit - step, -1), -1):
        degrees = tuple(range(top, -1, -step))
        run = tuple(pq for pq in pairs if tables[pq].indices[0] in degrees)
        layout.append((degrees, run, tuple(tables[pq] for pq in run)))
    return tuple(layout)


@lru_cache(maxsize=64)
def _degree_rows(tag: str, degrees: tuple[int, ...]) -> tuple[tuple[slice | None, ...], int]:
    """``couple_tables``' rows of each degree, indexed by degree, stacked in the
    order given, and their count; memoized per (tag, degrees)."""
    ends = np.cumsum([dim(d, tag) for d in degrees]).tolist()
    rows: list[slice | None] = [None] * (max(degrees) + 1)
    for d, end in zip(degrees, ends):
        rows[d] = slice(end - dim(d, tag), end)
    return tuple(rows), ends[-1]


def couple_tables(tables: Sequence[CGDecomposition], factors: Sequence[tuple[np.ndarray, np.ndarray]],
                  blocks: Mapping[int, np.ndarray], degrees: tuple[int, ...]) -> list[np.ndarray]:
    """[a (x) b] C [dsum_d M_d] for each table C and its factor rows (a, b),
    with M_d = blocks[d] and a missing degree a zero block; as read-only views
    of one buffer G.

    Each table's C is contiguous, and its columns are the blocks of its
    ``indices``, which must be a run of ``degrees``.  G's rows are the
    blocks of ``degrees`` in that order, and its columns the result rows
    r k_b + s of each table in turn.  Per table two gemms write
    ([a (x) b] C)^T into its rows and columns, the first reading C as
    (d_p, d_q n), the second one gemm per row of a; then one in-place gemm
    per degree applies M_d^T to that degree's rows of G, every table at
    once.  Each result is the transposed view of its block.  Stacked blocks
    (N, d, d) give stacked results, in a buffer of their own."""
    rows, height = _degree_rows(tables[0].tag, degrees)
    widths = [len(a) * len(b) for a, b in factors]
    ends = list(accumulate(widths))
    dtype = np.result_type(*{cg.C.dtype for cg in tables}, *{x.dtype for pair in factors for x in pair})
    g, spans = np.zeros((height, ends[-1]), dtype=dtype), []
    for cg, (a, b), end, width in zip(tables, factors, ends, widths):
        dq, n, top = b.shape[1], cg.C.shape[1], rows[cg.indices[0]].start
        spans.append((slice(top, top + n), slice(end - width, end)))
        t = (a @ cg.C.reshape(a.shape[1], dq * n)).reshape(len(a), dq, n)
        # the block holds [c, r, s] = sum_k t[r, k, c] b[s, k]
        np.matmul(t.transpose(0, 2, 1), b.T, out=g[spans[-1]].reshape(n, len(a), len(b)).transpose(1, 0, 2))
    stack = np.broadcast_shapes(*(m.shape[:-2] for m in blocks.values()))
    dtype = np.result_type(g, *blocks.values())
    out = g if not stack and dtype == g.dtype else np.zeros((*stack, *g.shape), dtype=dtype)
    for d in degrees:
        if d in blocks:
            np.matmul(blocks[d].swapaxes(-1, -2), g[rows[d]], out=out[..., rows[d], :])
        elif out is g:
            g[rows[d]] = 0.0
    out.setflags(write=False)  # its views are the results
    return [out[..., r, c].swapaxes(-1, -2) for r, c in spans]


def kron_solve(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[a (x) b]^-1 x, one factor at a time.

    x has Kronecker-ordered rows, row i * d_b + k; a (x) b is never formed."""
    da, db = a.shape[0], b.shape[0]
    t = np.linalg.solve(a, x.reshape(da, -1)).reshape(da, db, -1)
    return np.linalg.solve(b, t).reshape(da * db, -1)  # b broadcasts over the da slices


def kron_swap(x: np.ndarray, da: int, db: int, ka: int | None = None, kb: int | None = None) -> np.ndarray:
    """S' x S^T for x with the Kronecker rows and columns of a (x) b, a of
    shape (ka, da) and b of shape (kb, db), square by default; S' and S
    swap the row and column factors to b (x) a.

    S' [a (x) b] S^T = b (x) a: row i * kb + k moves to row k * ka + i, and
    column j * db + l to column l * da + j."""
    ka, kb = da if ka is None else ka, db if kb is None else kb
    return x.reshape(ka, kb, da, db).transpose(1, 0, 3, 2).reshape(ka * kb, da * db)


def _build_cg(tag: str, p: int, q: int) -> CGDecomposition:
    """Condon-Shortley coefficients from J^2 on each total-M sector of p x q.

    Kron row i * (jq + 1) + k carries m1 = i - jp/2 and m2 = k - jq/2 (jp, jq
    doubled spins); sector s holds the rows with i + k = s, i.e. total
    M = s - (jp + jq)/2.  On a sector J^2 = J1^2 + J2^2 + 2 J1z J2z + J1+ J2-
    + J1- J2+ is a symmetric tridiagonal matrix in m1 with the distinct
    eigenvalues J(J+1), so one batched eigh over all sectors, padded to a
    common size, yields every coefficient.
    """
    jp, jq = j2_of(p, tag), j2_of(q, tag)
    n = min(jp, jq) + 1
    s = np.arange(jp + jq + 1)[:, None]
    lo = np.maximum(0, s - jq)
    size = np.minimum(jp, s) - lo + 1
    r = np.arange(n)[None, :]
    live = r < size
    i = lo + r
    k = s - i

    # padded rows get eigenvalues above (j1 + j2)(j1 + j2 + 1), so the live
    # ones come first; J1+ J2- takes row r to r + 1 and vanishes at the
    # sector's last row
    m1, m2 = i - jp / 2, k - jq / 2
    diag = np.where(live, jp * (jp + 2) / 4 + jq * (jq + 2) / 4 + 2 * m1 * m2, (jp + jq + 2) ** 2)
    off = np.sqrt(np.where(live, (jp - i) * (i + 1) * k * (jq - k + 1), 0)[:, :-1])
    h = np.zeros((s.size, n, n))
    h[:, r[0], r[0]] = diag
    h[:, r[0, :-1], r[0, 1:]] = h[:, r[0, 1:], r[0, :-1]] = off
    vecs = np.linalg.eigh(h)[1] * live[:, :, None]
    # C puts each sector in rows and columns of its own, so it is orthogonal
    # exactly when every sector's eigenvectors are orthonormal
    gram = vecs.transpose(0, 2, 1) @ vecs
    if np.max(np.abs(gram - live[:, :, None] * np.eye(n))) > 1e-10:  # pragma: no cover
        raise BispectError(f"assembled CG matrix not unitary for {tag} ({p},{q})")
    # Condon-Shortley: the entry with the largest m1 is positive
    last = np.take_along_axis(vecs, (size - 1)[:, :, None], axis=1)
    vecs = vecs * np.where(last < 0, -1.0, 1.0)

    # eigenvector c of sector s has total spin (jp + jq)/2 - t, so it is
    # column s - t of block t in cg_indices order
    t = np.where(live, size - 1 - r, 0)
    row = i * (jq + 1) + k
    col = t * (jp + jq + 1) - t * (t - 1) + s - t
    si, ri, ci = np.nonzero(live[:, :, None] & live[:, None, :])
    c = np.zeros(((jp + 1) * (jq + 1),) * 2)
    c[row[si, ri], col[si, ci]] = vecs[si, ri, ci]
    c.setflags(write=False)  # cached and shared by the whole process
    return CGDecomposition(tag, p, q, c, cg_indices(tag, p, q))


@lru_cache(maxsize=None)
def clebsch_gordan(tag: str, p: int, q: int) -> CGDecomposition:
    """Unitary C with D_p(g) (x) D_q(g) = C [direct sum D_a(g)] C^dagger, memoized per (tag, p, q)."""
    if tag not in (SU2, SO3):
        raise TagMismatchError(f"unknown group tag {tag!r}")
    return _build_cg(tag, p, q)


@lru_cache(maxsize=4096)  # runs per entry each time a descriptor is constructed
def in_band(tag: str, p: int, q: int, bandlimit: int) -> slice:
    """C_pq's columns for the degrees a <= bandlimit, p and q not above it: the
    last ones, as cg_indices runs down from p + q.  The k degrees above, p + q
    - i step for i < k, have dimension c a + 1 with c step = 2, so they take
    k (c (p + q) + 1) - k (k - 1) columns."""
    step = 2 if tag == SU2 else 1
    k = max(0, -(-(p + q - bandlimit) // step))
    return slice(k * ((3 - step) * (p + q) + 1) - k * (k - 1), dim(p, tag) * dim(q, tag))


_SQRT_HALF = np.sqrt(0.5)
# Re(i^(r - c)) for the phase exponents r, c in 0..2 that C_R's rows and columns carry
_RE_I_POWER = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])


@lru_cache(maxsize=256)
def _real_basis(ell: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(U_ell, own, mirror, odd), memoized per degree and read-only: U_ell[j, j] =
    i^odd own and U_ell[j, 2 ell - j] = i^odd mirror, own and mirror real, so
    U_ell = diag(i^odd) R with R real and two nonzeros a row.  odd is 1 on the
    sin rows j < ell."""
    if ell < 0:
        raise DomainError("degree must be nonnegative")
    j = np.arange(2 * ell + 1)
    sign = 1.0 - 2.0 * (np.abs(j - ell) % 2)  # (-1)^m
    own = np.where(j == ell, 1.0, np.where(j > ell, sign, 1.0) * _SQRT_HALF)
    mirror = np.where(j == ell, 0.0, np.where(j > ell, 1.0, -sign) * _SQRT_HALF)
    odd = (j < ell).astype(int)
    u = np.zeros((j.size, j.size), dtype=complex)
    u[j, j] = own * 1j**odd
    u[j, j[::-1]] += mirror * 1j**odd
    for x in (u, own, mirror, odd):
        x.setflags(write=False)  # cached and shared by the whole process
    return u, own, mirror, odd


def real_basis(ell: int) -> np.ndarray:
    """U_ell, the unitary from the standard SO3 basis to the real (cos/sin) one,
    read-only.  With m ascending, row ell is e_0, and for m > 0 row ell + m is
    (e_-m + (-1)^m e_m)/sqrt 2 and row ell - m is i (e_-m - (-1)^m e_m)/sqrt 2;
    U_ell D_ell(g) U_ell^+ is real."""
    return _real_basis(ell)[0]


def real_clebsch_gordan(p: int, q: int, bandlimit: int) -> CGDecomposition:
    """C_R = (U_p (x) U_q) C_pq (dsum U_a^+) Phi^-1, SO3, p <= q, on the columns of
    the degrees a <= bandlimit only, with Phi = i on each block with p + q + a
    odd and 1 on the others: a real orthogonal table, so that F_R(a) = U_a
    F(a) U_a^+ couple as F(a) do with C.  Memoized per (p, q, min(bandlimit, p + q)),
    read-only."""
    if not 0 <= p <= q:
        raise DomainError(f"the real table needs 0 <= p <= q, got ({p}, {q})")
    return _real_cg(p, q, min(bandlimit, p + q))


@lru_cache(maxsize=512)
def _real_cg(p: int, q: int, top: int) -> CGDecomposition:
    """C_R from Racah's C, one factor at a time, never dense: as U = diag(i^odd) R,
    C_R is the real (R_p (x) R_q) C (dsum R_a^T) times Re i^(r - c), where row
    (i, k) carries r = odd_p[i] + odd_q[k] and column c of block a carries
    odd_a[c] + [p + q + a odd].  Where i^(r - c) is imaginary C_R is zero, as it is real.
    C is built here, not read from the memo, and freed once C_R exists."""
    cg = _build_cg(SO3, p, q)
    degrees = tuple(a for a in cg.indices if a <= top)
    dp, dq = 2 * p + 1, 2 * q + 1
    y = cg.C[:, in_band(SO3, p, q, top)].reshape(dp, dq, -1)
    # R's two nonzeros in row j sit at columns j and 2 ell - j: a flip
    _, own, mirror, odd_p = _real_basis(p)
    y = own[:, None, None] * y + mirror[:, None, None] * y[::-1]
    _, own, mirror, odd_q = _real_basis(q)
    y = own[:, None] * y + mirror[:, None] * y[:, ::-1]
    # and so do those of each block of columns
    widths = [2 * a + 1 for a in degrees]
    flip = np.concatenate([np.arange(end - 1, end - w - 1, -1) for w, end in zip(widths, np.cumsum(widths))])
    own, mirror, odd = (np.concatenate(x) for x in zip(*(_real_basis(a)[1:] for a in degrees)))
    y = own * y + mirror * y[..., flip]
    col = odd + np.repeat([(p + q + a) % 2 for a in degrees], widths)
    c_r = (y * _RE_I_POWER[(odd_p[:, None] + odd_q)[:, :, None], col]).reshape(dp * dq, -1)
    c_r.setflags(write=False)  # cached and shared by the whole process
    return CGDecomposition(SO3, p, q, c_r, degrees)


def in_band_clebsch_gordan(tag: str, p: int, q: int, bandlimit: int) -> CGDecomposition:
    """Racah's C_pq, p <= q, on the columns of the degrees a <= bandlimit only,
    contiguous and in complex128: the table a standard-basis descriptor is
    coupled with.  Its factors are complex, so the gemms with it run with no
    cast of the table.  Memoized per (tag, p, q, min(bandlimit, p + q)),
    read-only."""
    if tag not in (SU2, SO3):
        raise TagMismatchError(f"unknown group tag {tag!r}")
    if not 0 <= p <= q:
        raise DomainError(f"the in-band table needs 0 <= p <= q, got ({p}, {q})")
    return _in_band_cg(tag, p, q, min(bandlimit, p + q))


@lru_cache(maxsize=512)
def _in_band_cg(tag: str, p: int, q: int, top: int) -> CGDecomposition:
    """C's in-band columns; C is built here, not read from the memo, and freed once read."""
    cg = _build_cg(tag, p, q)
    c = cg.C[:, in_band(tag, p, q, top)].astype(complex)
    c.setflags(write=False)  # cached and shared by the whole process
    return CGDecomposition(tag, p, q, c, tuple(a for a in cg.indices if a <= top))


@dataclass(frozen=True, eq=False)
class LiftTerms:
    """The nonzero terms of a sphere lift's descriptor, SO3 at one bandlimit L.

    x concatenates the lift's harmonic rows, a_l at x[l^2 : (l + 1)^2] with
    n = -l..l ascending.  Slot s stands for one (p, q, a), p <= q <= L and a
    <= L in cg_indices order, and its terms run from ``term_start[s]`` to
    the next slot's start:

        beta[s] = sum over its terms t of
                  coef[t] x[factors[0, t]] x[factors[1, t]] conj(x[factors[2, t]]),

    which is (a_p (x) a_q) C_pq[:, block a] a_a^+, the classical spherical
    bispectrum; the terms are the nonzero entries of those blocks.  The
    slots of the k-th pair p <= q run from ``pair_start[k]`` to
    ``pair_start[k + 1]``.  Slot s is the value of B(p, q)'s row p d_q + q
    at column (a, M = 0) (``bispectrum``), ``position[s]`` in the in-band
    rows of every B(p, q), p <= q, concatenated."""

    bandlimit: int
    factors: np.ndarray  # (3, terms)
    coef: np.ndarray
    term_start: np.ndarray
    pair_start: np.ndarray
    position: np.ndarray


@lru_cache(maxsize=8)
def lift_terms(bandlimit: int) -> LiftTerms:
    """The ``LiftTerms`` at a bandlimit from C_pq's nonzero entries, memoized, every array
    read-only; each C_pq is built here, not read from the memo, and freed once read."""
    if bandlimit < 0:
        raise DomainError(f"bandlimit must be nonnegative, got {bandlimit}")
    L = bandlimit
    d = [dim(ell, SO3) for ell in range(L + 1)]
    factors, coef, position, pair_start, at = [], [], [], [0], 0
    for p in range(L + 1):
        for q in range(p, L + 1):
            cg, band = _build_cg(SO3, p, q), in_band(SO3, p, q, L)
            for a, sl in zip(cg.indices, cg.block_slices):
                if a > L:
                    continue
                # Kron row r = i d_q + k meets a_p[i] a_q[k]; block column c is a_a's entry c.
                # Every column of the orthogonal C is nonzero, so every slot has terms.
                r, c = np.nonzero(cg.C[:, sl])
                factors.append(np.stack([p * p + r // d[q], q * q + r % d[q], a * a + c]))
                coef.append(cg.C[r, sl.start + c])
                position.append(at + sl.start - band.start + a)  # column (a, M = 0)
            at += band.stop - band.start
            pair_start.append(len(position))
    term_start = np.cumsum([0, *(len(v) for v in coef[:-1])])
    arrays = (np.concatenate(factors, axis=1), np.concatenate(coef), term_start, np.array(pair_start), np.array(position))
    for x in arrays:
        x.setflags(write=False)  # cached and shared by the whole process
    return LiftTerms(L, *arrays)


def intertwiner_residual(cg: CGDecomposition, *elements: GroupElement) -> float:
    """Largest || D_p (x) D_q  -  C (dsum D_a) C^dagger ||_F over the elements."""
    d = wigner_all(cg.p + cg.q, cg.tag, elements)
    lhs = np.einsum("nij,nkl->nikjl", d[cg.p], d[cg.q]).reshape(len(elements), *cg.C.shape)
    rhs = cg.decouple(cg.couple(None, None, {a: d[a] for a in cg.indices}))
    return float(np.max(np.linalg.norm(lhs - rhs, axis=(1, 2)), initial=0.0))


# ---------------------------------------------------------------------------
# Projections onto the H-invariant subspace (H = z-axis rotations)
# ---------------------------------------------------------------------------


def subgroup_projection(tag: str, ell: int) -> np.ndarray:
    """P, the average of D_ell over H, which is diagonal in the z-y-z convention.

    The average of exp(-i m theta) over the circle is 1 at m = 0 and 0
    elsewhere, so P selects the m = 0 coordinate; odd SU2 degrees have no
    m = 0 (half-integer grid) and project to zero.
    """
    return np.diag((np.abs(m_values(ell, tag)) < 0.25).astype(float))


@dataclass
class CosetCheckReport:
    """Residuals of the two coset-homomorphism conditions at one element."""

    tag: str
    bandlimit: int
    tensor_residual: float  # product condition over all sigma, delta <= L
    unitary_residual: float  # P D (P D)^dagger = P over all alpha <= L

    @property
    def max_residual(self) -> float:
        return max(self.tensor_residual, self.unitary_residual)

    @property
    def passed(self) -> bool:
        return self.max_residual <= 1e-10


def verify_coset_homomorphism(g: GroupElement, bandlimit: int, corruption: float = 0.0) -> CosetCheckReport:
    """Check the duality conditions with evaluation at the coset of g.

    With omega realized as the matrices P_ell D_ell(g), the product
    condition reads

        (P_s D_s(g)) (x) (P_d D_d(g))
            = [P_s (x) P_d] C [dsum_a P_a D_a(g)] C^dagger

    and the conjugation condition reads (P_a D_a(g)) (P_a D_a(g))^dagger
    = P_a.  ``corruption`` adds that much off-unitary noise to every D as a
    negative control, drawn from a fixed seed.
    """
    tag = g.tag
    rng = np.random.default_rng(0)
    maxdeg = 2 * bandlimit
    dmats = {}
    for ell, dstack in enumerate(wigner_all(maxdeg, tag, [g])):
        d = dstack[0]
        if corruption:
            noise = rng.standard_normal(d.shape) + 1j * rng.standard_normal(d.shape)
            d = d + corruption * noise
        dmats[ell] = d
    projections = {ell: subgroup_projection(tag, ell) for ell in range(maxdeg + 1)}

    unitary_res = 0.0
    for ell in range(bandlimit + 1):
        pd = projections[ell] @ dmats[ell]
        unitary_res = max(unitary_res, float(np.max(np.abs(pd @ pd.conj().T - projections[ell]))))

    tensor_res = 0.0
    for s in range(bandlimit + 1):
        for dlt in range(bandlimit + 1):
            cg = clebsch_gordan(tag, s, dlt)
            lhs = np.kron(projections[s] @ dmats[s], projections[dlt] @ dmats[dlt])
            rhs = cg.decouple(cg.couple(projections[s], projections[dlt], {a: projections[a] @ dmats[a] for a in cg.indices}))
            tensor_res = max(tensor_res, float(np.max(np.abs(lhs - rhs))))

    return CosetCheckReport(tag, bandlimit, tensor_res, unitary_res)
