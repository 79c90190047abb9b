"""Triple correlation and its Fourier transform, the matrix bispectrum.

The descriptor entry at (p, q) is

    A(p, q) = [F(p) (x) F(q)] C_pq [F(a_1)^+ dsum ... dsum F(a_k)^+] C_pq^+

with the a_i the tensor-product decomposition degrees; degrees beyond the
bandlimit contribute zero blocks.  ``CGDecomposition.couple`` evaluates it
left to right on the nonzero rows of F(p) and F(q) only.

The descriptor computes only the entries with p <= q.  The swap S that
reorders Kronecker rows from p (x) q to q (x) p gives C_qp = S C_pq Sigma,
with Sigma one sign per block, and Sigma commutes with the block-diagonal
middle factor, so A(q, p) = S A(p, q) S^T exactly (``kron_swap``).

A descriptor keeps, per degree l, rows rl, and per entry only the rows
rp (x) rq of A(p, q); the others are zero and not stored.  Built from a
set, it keeps the nonzero rows of each F(l), every row for a generic set;
given dense entries, as from a file, the rows nonzero in some entry.  A
sphere lift (SO3, every F(l) zero off its m' = 0 row l, with entries a_l)
keeps one row per degree, so A(p, q) is zero except row p d_q + q, which
is a_p (x) a_q, and its one stored row is

    (a_p (x) a_q) C_pq [F(a_1)^+ dsum ... dsum F(a_k)^+] C_pq^+,

the classical spherical bispectrum, (L + 1)^4 values in all.  ``kron_swap``
swaps a kept block as it swaps a full one.  Indexing a descriptor returns
the full A(p, q), the stored array itself when every row is kept.

A brute-force double-quadrature of the triple correlation against Wigner
matrices serves as the independent oracle for the formula at small
bandlimits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PrecisionWarning, TagMismatchError
from .groups import SU2, GroupElement, QuadratureRule, haar_quadrature
from .harmonic import CoefficientSet, SampledFunction, fourier_forward
from .clebsch import cg_indices, clebsch_gordan, kron_swap
from .wigner import dim, wigner_all, wigner_stack_on_rule


def _entry(
    tag: str, live: list[tuple[np.ndarray, np.ndarray]], daggers: list[np.ndarray], p: int, q: int
) -> np.ndarray:
    """Rows rp (x) rq of A(p, q), from live[l] = (rl, rows of F(l) kept) as
    ``_live_rows`` gives them and the in-band F(a)^+, daggers[a]."""
    cg = clebsch_gordan(tag, p, q)
    return cg.couple(live[p][1], live[q][1], {a: daggers[a] for a in cg.indices if a < len(daggers)})


def _scatter(rows: np.ndarray, rp: np.ndarray, rq: np.ndarray, dp: int, dq: int) -> np.ndarray:
    """The (dp dq, n) array, the full A(p, q) when n = dp dq, whose rows rp (x) rq
    are ``rows`` and whose other rows are zero; ``rows`` itself when rp and rq hold every row."""
    if len(rp) == dp and len(rq) == dq:
        return rows
    # row i d_q + k of A(p, q) comes from row i of F(p) and row k of F(q)
    n = rows.shape[1]
    out = np.zeros((dp * dq, n), dtype=complex)
    out.reshape(dp, dq, n)[rp[:, None], rq] = rows.reshape(len(rp), len(rq), n)
    return out


def _gather(full: np.ndarray, rp: np.ndarray, rq: np.ndarray, dp: int, dq: int) -> np.ndarray:
    """Rows rp (x) rq of the (dp dq, dp dq) A(p, q), the inverse of ``_scatter``;
    ``full`` itself when rp and rq hold every row."""
    if len(rp) == dp and len(rq) == dq:
        return full
    n = dp * dq
    return full.reshape(dp, dq, n)[rp[:, None], rq].reshape(len(rp) * len(rq), n)


def _live_rows(coeffs: CoefficientSet) -> list[tuple[np.ndarray, np.ndarray]]:
    """(indices, rows) of each F(l)'s nonzero rows."""
    out = []
    for m in coeffs.matrices:
        r = np.flatnonzero(m.any(axis=1))
        out.append((r, m[r]))
    return out


def bispectrum_matrix(coeffs: CoefficientSet, p: int, q: int) -> np.ndarray:
    """A(p, q) by the matrix formula; out-of-band degrees are zero blocks."""
    if p > coeffs.bandlimit or q > coeffs.bandlimit:
        raise DomainError("p and q must not exceed the bandlimit")
    live = _live_rows(coeffs)
    rows = _entry(coeffs.tag, live, [m.conj().T for m in coeffs.matrices], p, q)
    return _scatter(rows, live[p][0], live[q][0], dim(p, coeffs.tag), dim(q, coeffs.tag))


@dataclass(frozen=True, eq=False)
class BispectrumDescriptor:
    """All A(p, q) for p, q <= bandlimit, plus optional det side information.

    ``entries[(p, q)]`` holds only the rows rp (x) rq of A(p, q), with rl =
    ``kept_rows[l]`` the strictly increasing indices of the rows of degree l
    kept; the other rows of A(p, q) are zero.  With ``kept_rows`` None, the
    default, the entries are given dense, and degree l keeps the rows nonzero
    in some A(l, q), as the first Kronecker factor, or in some A(p, l), as
    the second.  ``desc[(p, q)]`` is the full A(p, q)."""

    tag: str
    bandlimit: int
    entries: dict[tuple[int, int], np.ndarray]
    det_f1: float | None = None
    kept_rows: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        dims = [dim(ell, self.tag) for ell in range(self.bandlimit + 1)]
        given = self.kept_rows
        kept = (tuple(np.arange(d) for d in dims) if given is None
                else tuple(np.asarray(r, dtype=int) for r in given))
        if len(kept) != self.bandlimit + 1:
            raise DomainError(f"kept_rows needs {self.bandlimit + 1} degrees, found {len(kept)}")
        for ell, (r, d) in enumerate(zip(kept, dims)):
            if r.ndim != 1 or np.any(np.diff(r) <= 0) or (len(r) and (r[0] < 0 or r[-1] >= d)):
                raise DomainError(f"kept_rows[{ell}] must be strictly increasing within 0..{d - 1}")
        for (p, q), m in self.entries.items():
            if not (0 <= p <= self.bandlimit and 0 <= q <= self.bandlimit):
                raise DomainError(f"pair {(p, q)} lies outside 0..{self.bandlimit}")
            want = (len(kept[p]) * len(kept[q]), dims[p] * dims[q])
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

    def __getitem__(self, pq: tuple[int, int]) -> np.ndarray:
        p, q = pq
        return _scatter(self.entries[pq], self.kept_rows[p], self.kept_rows[q], dim(p, self.tag), dim(q, self.tag))

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.entries.keys())


def build_descriptor(coeffs: CoefficientSet) -> BispectrumDescriptor:
    """Assemble the full descriptor; SO3 sets with a (near-)real det F(1)
    store it as side information for the reconstruction sign branch.

    Each degree keeps the nonzero rows of its F(l), one row on a sphere
    lift, and every row of a generic set.  Entries with p <= q come from the
    formula on those rows; A(q, p) = S A(p, q) S^T swaps the kept block."""
    det_f1 = None
    if coeffs.tag != SU2 and coeffs.bandlimit >= 1:
        det = complex(np.linalg.det(coeffs[1]))
        if abs(det.imag) <= 1e-8 * max(1.0, abs(det.real)):
            det_f1 = float(det.real)
    live, daggers = _live_rows(coeffs), [m.conj().T for m in coeffs.matrices]
    entries = {}
    for p in range(coeffs.bandlimit + 1):
        for q in range(coeffs.bandlimit + 1):
            if q < p:  # row q, computed earlier, holds A(q, p)
                kq, kp = len(live[q][1]), len(live[p][1])
                entries[(p, q)] = kron_swap(entries[(q, p)], dim(q, coeffs.tag), dim(p, coeffs.tag), kq, kp)
            else:
                entries[(p, q)] = _entry(coeffs.tag, live, daggers, p, q)
    return BispectrumDescriptor(coeffs.tag, coeffs.bandlimit, entries, det_f1, tuple(r for r, _ in live))


def _compared_blocks(d1: BispectrumDescriptor, d2: BispectrumDescriptor):
    """(p, q, block of d1, block of d2) per pair: the stored blocks placed on
    the union of both descriptors' kept rows, never the dense A(p, q).
    Raises unless both share group, bandlimit and entry set."""
    if (d1.tag, d1.bandlimit) != (d2.tag, d2.bandlimit):
        raise TagMismatchError("descriptors differ in group or bandlimit")
    if d1.pairs() != d2.pairs():
        raise DomainError("descriptors carry different entry sets")
    union = [np.union1d(r1, r2) for r1, r2 in zip(d1.kept_rows, d2.kept_rows)]
    at = [[np.searchsorted(u, r) for u, r in zip(union, d.kept_rows)] for d in (d1, d2)]
    for p, q in d1.pairs():
        b1, b2 = (_scatter(d.entries[(p, q)], a[p], a[q], len(union[p]), len(union[q])) for d, a in zip((d1, d2), at))
        yield p, q, b1, b2


def descriptor_distance(d1: BispectrumDescriptor, d2: BispectrumDescriptor) -> float:
    """Dimension-weighted Frobenius distance; zero iff entrywise equal."""
    total = 0.0
    for p, q, b1, b2 in _compared_blocks(d1, d2):
        total += dim(p, d1.tag) * dim(q, d1.tag) * float(np.linalg.norm(b1 - b2) ** 2)
    return float(np.sqrt(total))


def descriptor_max_relative_gap(d1: BispectrumDescriptor, d2: BispectrumDescriptor) -> float:
    """Worst per-entry Frobenius gap relative to the first descriptor's scale."""
    gap = 0.0
    for _, _, b1, b2 in _compared_blocks(d1, d2):
        gap = max(gap, float(np.linalg.norm(b1 - b2)) / max(float(np.linalg.norm(b1)), 1e-300))
    return gap


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
        u += d * (left @ wigner_stack_on_rule(ell, coeffs.tag, rule).reshape(rule.size, d * d).T)
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
    shifts = [wigner_stack_on_rule(ell, f.tag, outer_rule) for ell in range(bandlimit + 1)]
    u = _translated_samples(coeffs, shifts, f.rule)
    wf = (f.rule.weights * np.conj(f.values)).astype(np.complex128)
    u = u.astype(np.complex128)
    # a3[j, k] = sum_i (w_i conj(f_i)) U[j, i] U[k, i], one gemm
    return (u * wf[None, :]) @ u.T


def bispectrum_via_oracle(f: SampledFunction, p: int, q: int, bandlimit: int) -> np.ndarray:
    """A(p, q) by the defining double integral of the triple correlation.

    Independent of the matrix formula (no Clebsch-Gordan data); meant for
    small bandlimits only.
    """
    a3 = triple_correlation_grid(f, bandlimit)
    outer = haar_quadrature(bandlimit, f.tag)  # memoized: the rule a3 is tabulated on
    dp = wigner_stack_on_rule(p, f.tag, outer)
    dq = wigner_stack_on_rule(q, f.tag, outer)
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
    witness = None
    for p in sorted(support):
        for q in sorted(support):
            for a in cg_indices(tag, p, q):
                if a <= window and a not in support:
                    witness = (p, q, a)
                    break
            if witness:
                break
        if witness:
            break
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
