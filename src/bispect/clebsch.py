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
cg_indices order); other modules go through ``CGDecomposition.couple``, the
one coupling primitive, ``CGDecomposition.block``, ``kron_solve``,
``kron_swap`` and ``lift_terms``.  ``lift_terms(L)`` is the term table of a
sphere lift's descriptor at bandlimit L, read off C's nonzero entries: the
terms of each spherical bispectrum value beta(p, q, a), and the map from
beta to the one stored row of each A(p, q).  It is memoized per bandlimit
and its arrays are read-only.

The subgroup throughout is H = rotations about the z-axis (for SU2, its
diagonal circle preimage).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache

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
        """[a (x) b] C [dsum_d M_d] C^dagger from {degree d: M_d}, computed left to right.

        a and b are rows of the two factors, shapes (k_a, d_p) and (k_b, d_q),
        or None for the identity; result row r k_b + s comes from a[r] and
        b[s].  Blocks stacked (N, d, d) give stacked results.  A missing
        degree is a zero block: C's columns before the first given degree
        and after the last are never multiplied.  With a real C (every
        stored table) both products with C are float64 gemms on the complex
        factor's [re, im] pairs; the second runs transposed, so the result is
        a transposed view."""
        given = [(d, sl) for d, sl in zip(self.indices, self.block_slices) if d in blocks]
        lo, hi = given[0][1].start, given[-1][1].stop  # C's columns from the first given block to the last
        dp, dq, n = dim(self.p, self.tag), dim(self.q, self.tag), hi - lo
        a = np.eye(dp) if a is None else a
        b = np.eye(dq) if b is None else b
        # [a (x) b] C one factor at a time: t[k, c, r] = sum_i C[i k, c] a[r, i],
        # then t[r k_b + s, c] = sum_k b[s, k] t[k, c, r]
        t = _real_times(self.C.reshape(dp, dq, -1)[:, :, lo:hi].transpose(1, 2, 0), a.T)
        t = (t.reshape(dq, n * len(a)).T @ b.T).reshape(n, len(a) * len(b)).T
        y = np.zeros((*blocks[given[0][0]].shape[:-2], len(t), n), dtype=np.result_type(t, *blocks.values()))
        for d, sl in given:
            cols = slice(sl.start - lo, sl.stop - lo)
            np.matmul(t[:, cols], blocks[d], out=y[..., cols])
        # y C^dagger, run transposed so that C is the left factor
        return _real_times(self.C[:, lo:hi].conj(), y.swapaxes(-1, -2)).swapaxes(-1, -2)


def _real_times(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """c @ x; a real c times a complex x runs as one float64 gemm on x's
    [re, im] pairs, so c is never copied to complex."""
    if c.dtype != np.float64 or x.dtype != np.complex128:
        return c @ x
    return (c @ np.ascontiguousarray(x).view(np.float64)).view(np.complex128)


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
    bispectrum; the terms are the nonzero entries of those blocks.  The lift
    row of A(p, q) is sum_a beta(p, q, a) C_pq[:, (a, M = 0)]^T: position
    ``row_pos[t]`` gets ``row_coef[t] * beta[row_slot[t]]``, positions
    running through the (L + 1)^4 row values of every A(p, q), p, q <= L, in
    (p, q) order.  Only pairs with p <= q are summed; ``order`` gathers the
    whole vector from them, each A(q, p) row being the ``kron_swap`` of
    A(p, q)'s."""

    bandlimit: int
    factors: np.ndarray  # (3, terms)
    coef: np.ndarray
    row_slot: np.ndarray
    row_pos: np.ndarray
    row_coef: np.ndarray
    term_start: np.ndarray
    order: np.ndarray


@lru_cache(maxsize=8)
def lift_terms(bandlimit: int) -> LiftTerms:
    """The ``LiftTerms`` at a bandlimit from C_pq's nonzero entries, memoized, every array read-only."""
    if bandlimit < 0:
        raise DomainError(f"bandlimit must be nonnegative, got {bandlimit}")
    L = bandlimit
    d = [dim(ell, SO3) for ell in range(L + 1)]
    sizes = np.outer(d, d)
    start = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape)  # first position of each A(p, q) row
    order = np.arange((L + 1) ** 4)
    factors, coef, row_slot, row_pos, row_coef = ([] for _ in range(5))
    for p in range(L + 1):
        for q in range(L + 1):
            if q < p:
                src = np.arange(start[q, p], start[q, p] + sizes[q, p])[None, :]
                order[start[p, q] : start[p, q] + sizes[p, q]] = kron_swap(src, d[q], d[p], 1, 1)[0]
                continue
            cg = clebsch_gordan(SO3, p, q)
            for a, sl in zip(cg.indices, cg.block_slices):
                if a > L:
                    continue
                # Kron row r = i d_q + k meets a_p[i] a_q[k]; block column c is a_a's entry c.
                # Every column of the orthogonal C is nonzero, so every slot has terms.
                slot = len(coef)
                r, c = np.nonzero(cg.C[:, sl])
                v = cg.C[r, sl.start + c]
                zero = c == a  # column (a, M = 0)
                factors.append(np.stack([p * p + r // d[q], q * q + r % d[q], a * a + c]))
                coef.append(v)
                row_slot.append(np.full(np.count_nonzero(zero), slot))
                row_pos.append(start[p, q] + r[zero])
                row_coef.append(v[zero])
    arrays = [np.concatenate(x, axis=-1) for x in (factors, coef, row_slot, row_pos, row_coef)]
    term_start = np.cumsum([0, *(len(v) for v in coef[:-1])])
    for x in (*arrays, term_start, order):
        x.setflags(write=False)  # cached and shared by the whole process
    return LiftTerms(L, *arrays, term_start, order)


def intertwiner_residual(cg: CGDecomposition, *elements: GroupElement) -> float:
    """Largest || D_p (x) D_q  -  C (dsum D_a) C^dagger ||_F over the elements."""
    d = wigner_all(cg.p + cg.q, cg.tag, elements)
    lhs = np.einsum("nij,nkl->nikjl", d[cg.p], d[cg.q]).reshape(len(elements), *cg.C.shape)
    rhs = cg.couple(None, None, {a: d[a] for a in cg.indices})
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
            rhs = cg.couple(projections[s], projections[dlt], {a: projections[a] @ dmats[a] for a in cg.indices})
            tensor_res = max(tensor_res, float(np.max(np.abs(lhs - rhs))))

    return CosetCheckReport(tag, bandlimit, tensor_res, unitary_res)
