"""Clebsch-Gordan decompositions, subgroup projections, duality checks.

Tensor products of irreducibles decompose multiplicity-free on SU(2) and
SO(3), so each unitary change of basis C_pq is determined block by block up
to a single phase.  The blocks are found numerically by integrating an
intertwiner transfer map over the group; on the z-y-z product grid the
circle averages collapse to m-selection rules, leaving only a small
Gauss-Legendre quadrature in cos(beta).  The block phase is fixed by making
the first significant entry of the block's first column real and positive,
which pins the stored matrices to one reproducible convention.

The subgroup throughout is H = rotations about the z-axis (for SU2, its
diagonal circle preimage).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BispectError, DomainError, TagMismatchError
from .groups import SO3, SU2, GroupElement
from .wigner import dim, j2_of, little_d_stack, m_values, wigner_matrix


def cg_indices(tag: str, p: int, q: int) -> list[int]:
    """Ordered degrees in the decomposition of degree-p x degree-q."""
    if p < 0 or q < 0:
        raise DomainError("degrees must be nonnegative")
    step = 2 if tag == SU2 else 1
    return list(range(p + q, abs(p - q) - 1, -step))


@dataclass(frozen=True)
class CGDecomposition:
    tag: str
    p: int
    q: int
    C: np.ndarray
    indices: list[int]

    @property
    def block_slices(self) -> list[slice]:
        out, off = [], 0
        for a in self.indices:
            d = dim(a, self.tag)
            out.append(slice(off, off + d))
            off += d
        return out

    def block(self, a: int) -> np.ndarray:
        """Columns of C belonging to target degree a."""
        i = self.indices.index(a)
        return self.C[:, self.block_slices[i]]


_CG_CACHE: dict[tuple[str, int, int], CGDecomposition] = {}


def _beta_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return np.arccos(x[::-1]).copy(), (w[::-1] / 2.0).copy()


def _cg_transfer(dp, dq, da, w, m2p, m2q, j2a, x):
    """Beta-quadrature of the intertwiner transfer map for one target block.

    T[(i,k), m] = sum_b w_b  dp[b,i,j] dq[b,k,l] da[b, row, col] x[j,l]
    where row is fixed by m_i + m_k and col by m_j + m_l (the alpha/gamma
    averages of the full group integral collapse to these selection rules on
    the z-y-z product grid).  Index bookkeeping uses doubled m values so both
    integer and half-integer spins stay in integer arithmetic.
    """
    nb, dimp, _ = dp.shape
    dimq = dq.shape[1]
    dima = da.shape[1]
    msum = m2p[:, None] + m2q[None, :]  # doubled m sums, (dimp, dimq)
    t = msum + j2a
    ok = (t >= 0) & (t <= 2 * j2a) & (t % 2 == 0)
    idx = np.where(ok, t // 2, 0)
    # da sliced to row/col determined by the (i,k) and (j,l) sums
    da_sel = da[:, idx[:, :, None, None], idx[None, None, :, :]]  # (nb, dimp, dimq, dimp, dimq)
    mask = ok[:, :, None, None] & ok[None, None, :, :]
    prod = dp[:, :, None, :, None] * dq[:, None, :, None, :] * da_sel * mask
    t_ik = np.einsum("b,bikjl,jl->ik", w, prod, x, optimize=True)
    out = np.zeros((dimp * dimq, dima))
    rows = np.arange(dimp * dimq)
    out[rows[ok.ravel()], idx.ravel()[ok.ravel()]] = t_ik.ravel()[ok.ravel()]
    return out


def _build_cg(tag: str, p: int, q: int) -> CGDecomposition:
    indices = cg_indices(tag, p, q)
    dp_, dq_ = dim(p, tag), dim(q, tag)
    if p == 0 or q == 0:
        return CGDecomposition(tag, p, q, np.eye(dp_ * dq_), indices)

    # triple products of little-d's are polynomials of degree <= p+q in
    # cos(beta), so p+q+1 Gauss-Legendre nodes integrate them exactly
    betas, bw = _beta_rule(p + q + 1)
    planes = little_d_stack(j2_of(p + q, tag), betas)
    dp = planes[j2_of(p, tag)]
    dq = planes[j2_of(q, tag)]
    m2p = np.round(2 * m_values(p, tag)).astype(np.int64)
    m2q = np.round(2 * m_values(q, tag)).astype(np.int64)

    blocks = []
    # deterministic across processes (no salted string hashing)
    rng = np.random.default_rng(1_000_003 * (p + 1) + 1_009 * (q + 1) + (0 if tag == SU2 else 1))
    for a in indices:
        da = planes[j2_of(a, tag)]
        dima = dim(a, tag)
        for _ in range(16):
            x = rng.standard_normal((dp_, dq_))
            t = _cg_transfer(dp, dq, da, bw, m2p, m2q, j2_of(a, tag), x)
            gram = t.T @ t
            scale = np.sqrt(np.trace(gram) / dima)
            # reject marginal draws: a small transfer scale amplifies roundoff
            if scale > 0.05 * np.linalg.norm(x) / np.sqrt(dima) and np.max(
                np.abs(gram / scale**2 - np.eye(dima))
            ) < 1e-11:
                break
        else:  # pragma: no cover - would need a pathological rng stream
            raise BispectError(f"CG transfer degenerate for {tag} ({p},{q})->{a}")
        block = t / scale
        # fix the block sign via the first significant entry of column 0
        col = block[:, 0]
        lead = col[np.argmax(np.abs(col) > 1e-9 * np.max(np.abs(col)))]
        if lead < 0:
            block = -block
        blocks.append(block)

    c = np.concatenate(blocks, axis=1)
    if np.max(np.abs(c.T @ c - np.eye(dp_ * dq_))) > 1e-10:  # pragma: no cover
        raise BispectError(f"assembled CG matrix not unitary for {tag} ({p},{q})")
    return CGDecomposition(tag, p, q, c, indices)


def clebsch_gordan(tag: str, p: int, q: int) -> CGDecomposition:
    """Unitary C with D_p(g) (x) D_q(g) = C [direct sum D_a(g)] C^dagger."""
    if tag not in (SU2, SO3):
        raise TagMismatchError(f"unknown group tag {tag!r}")
    key = (tag, p, q)
    if key not in _CG_CACHE:
        _CG_CACHE[key] = _build_cg(tag, p, q)
    return _CG_CACHE[key]


def direct_sum(mats: list[np.ndarray]) -> np.ndarray:
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=np.result_type(*[m.dtype for m in mats]))
    off = 0
    for m in mats:
        d = m.shape[0]
        out[off : off + d, off : off + d] = m
        off += d
    return out


def intertwiner_residual(cg: CGDecomposition, g: GroupElement) -> float:
    """|| D_p (x) D_q  -  C (dsum D_a) C^dagger ||_F at one element."""
    lhs = np.kron(wigner_matrix(cg.p, cg.tag, g), wigner_matrix(cg.q, cg.tag, g))
    ds = direct_sum([wigner_matrix(a, cg.tag, g) for a in cg.indices])
    return float(np.linalg.norm(lhs - cg.C @ ds @ cg.C.conj().T))


# ---------------------------------------------------------------------------
# Projections onto the H-invariant subspace (H = z-axis rotations)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupProjection:
    tag: str
    ell: int
    P: np.ndarray
    rank: int


def subgroup_projection(tag: str, ell: int) -> SubgroupProjection:
    """Average of D_ell over H, which is diagonal in the z-y-z convention.

    The average of exp(-i m theta) over the circle is 1 at m = 0 and 0
    elsewhere, so P selects the m = 0 coordinate; odd SU2 degrees have no
    m = 0 (half-integer grid) and project to zero.
    """
    m = m_values(ell, tag)
    diag = (np.abs(m) < 0.25).astype(float)
    return SubgroupProjection(tag, ell, np.diag(diag), int(diag.sum()))


@dataclass
class CosetCheckReport:
    """Residuals of the two coset-homomorphism conditions at one element."""

    tag: str
    bandlimit: int
    tensor_residual: float  # product condition over all sigma, delta <= L
    unitary_residual: float  # P D (P D)^dagger = P over all alpha <= L
    tolerance: float = 1e-10
    per_pair: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return max(self.tensor_residual, self.unitary_residual)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def verify_coset_homomorphism(
    g: GroupElement, bandlimit: int, corruption: float = 0.0, seed: int = 0
) -> CosetCheckReport:
    """Check the duality conditions with evaluation at the coset of g.

    With omega realized as the matrices P_ell D_ell(g), the product
    condition reads

        (P_s D_s(g)) (x) (P_d D_d(g))
            = [P_s (x) P_d] C [dsum_a P_a D_a(g)] C^dagger

    and the conjugation condition reads (P_a D_a(g)) (P_a D_a(g))^dagger
    = P_a.  ``corruption`` adds that much off-unitary noise to every D as a
    negative control.
    """
    tag = g.tag
    rng = np.random.default_rng(seed)
    maxdeg = 2 * bandlimit
    dmats = {}
    for ell in range(maxdeg + 1):
        d = wigner_matrix(ell, tag, g)
        if corruption:
            noise = rng.standard_normal(d.shape) + 1j * rng.standard_normal(d.shape)
            d = d + corruption * noise
        dmats[ell] = d
    projections = {ell: subgroup_projection(tag, ell).P for ell in range(maxdeg + 1)}

    unitary_res = 0.0
    for ell in range(bandlimit + 1):
        pd = projections[ell] @ dmats[ell]
        unitary_res = max(unitary_res, float(np.max(np.abs(pd @ pd.conj().T - projections[ell]))))

    tensor_res = 0.0
    per_pair = {}
    for s in range(bandlimit + 1):
        for dlt in range(bandlimit + 1):
            cg = clebsch_gordan(tag, s, dlt)
            lhs = np.kron(projections[s] @ dmats[s], projections[dlt] @ dmats[dlt])
            ds = direct_sum([projections[a] @ dmats[a] for a in cg.indices])
            rhs = np.kron(projections[s], projections[dlt]) @ cg.C @ ds @ cg.C.conj().T
            r = float(np.max(np.abs(lhs - rhs)))
            per_pair[(s, dlt)] = r
            tensor_res = max(tensor_res, r)

    return CosetCheckReport(tag, bandlimit, tensor_res, unitary_res, per_pair=per_pair)
