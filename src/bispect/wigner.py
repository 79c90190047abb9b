"""Wigner matrices: the irreducible unitary representations of SU(2)/SO(3).

Degrees follow the dimension-based indexing: for SU2 the degree-ell
representation has dimension ell + 1 (spin ell/2), for SO3 dimension
2*ell + 1 (spin ell).  Internally everything is bookkept by the doubled
spin j2 = 2j, so integer and half-integer spins share one code path.
Row and column indices run over m = -j ... +j ascending.

The little-d planes are built by a half-integer-step recursion in the spin
(seeded at spin 0), which stays factorial-free; Wigner's direct summation
formula is kept as an independent cross-check.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import DomainError, TagMismatchError
from .groups import SU2, GroupElement, QuadratureRule, to_euler


def dim(ell: int, tag: str) -> int:
    if ell < 0:
        raise DomainError("degree must be nonnegative")
    return ell + 1 if tag == SU2 else 2 * ell + 1


def j2_of(ell: int, tag: str) -> int:
    """Doubled spin of the degree-ell representation: dim = 2j + 1."""
    return dim(ell, tag) - 1


def m_values(ell: int, tag: str) -> np.ndarray:
    """Ascending m grid; half-integers for odd SU2 degrees."""
    j2 = j2_of(ell, tag)
    return (np.arange(j2 + 1) - j2 / 2.0) if j2 % 2 else (np.arange(j2 + 1) - j2 // 2).astype(float)


def little_d_direct(j2: int, beta: float) -> np.ndarray:
    """Little-d by Wigner's explicit sum: the reference the recursion is tested against."""
    n = j2 + 1
    out = np.zeros((n, n))
    c = np.cos(beta / 2.0)
    s = np.sin(beta / 2.0)
    f = factorial
    for i in range(n):  # row, doubled m' = 2*i - j2
        for k in range(n):  # col, doubled m = 2*k - j2
            # integer combinations j +/- m etc., all guaranteed integral
            jpmp, jmmp = i, j2 - i
            jpm, jmm = k, j2 - k
            pref = np.sqrt(float(f(jpmp) * f(jmmp) * f(jpm) * f(jmm)))
            mp_minus_m = i - k
            lo = max(0, -mp_minus_m)
            hi = min(jpm, jmmp)
            acc = 0.0
            for t in range(lo, hi + 1):
                num = (-1.0) ** (mp_minus_m + t)
                cexp = j2 + k - i - 2 * t  # 2j + m - m' - 2t
                sexp = mp_minus_m + 2 * t
                acc += num * c**cexp * s**sexp / (f(jpm - t) * f(t) * f(mp_minus_m + t) * f(jmmp - t))
            out[i, k] = pref * acc
    return out


def _half_step(src: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Advance a little-d stack (nb, n, n) at spin s to spin s + 1/2."""
    nb, n, _ = src.shape
    up = np.sqrt(np.arange(1.0, n + 1.0))
    dn = np.sqrt(np.arange(float(n), 0.0, -1.0))
    w = src / n
    cc = c[:, None, None]
    ss = s[:, None, None]
    out = np.zeros((nb, n + 1, n + 1))
    out[:, :-1, :-1] += (dn[:, None] * dn[None, :]) * w * cc
    out[:, 1:, :-1] -= (up[:, None] * dn[None, :]) * w * ss
    out[:, :-1, 1:] += (dn[:, None] * up[None, :]) * w * ss
    out[:, 1:, 1:] += (up[:, None] * up[None, :]) * w * cc
    return out


def _little_d_planes(j2max: int, betas: np.ndarray) -> Iterator[np.ndarray]:
    """Yield d^(j2/2)(beta) for j2 = 0..j2max, each (nb, j2+1, j2+1); a caller
    that keeps only some of them holds no more than two others at a time."""
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    c = np.cos(betas / 2.0)
    s = np.sin(betas / 2.0)
    plane = np.ones((betas.size, 1, 1))
    yield plane
    for _ in range(j2max):
        plane = _half_step(plane, c, s)
        yield plane


def little_d_stack(j2max: int, betas: np.ndarray) -> list[np.ndarray]:
    """Planes d^(j2/2)(beta) for j2 = 0..j2max; entry j2 has shape (nb, j2+1, j2+1)."""
    return list(_little_d_planes(j2max, betas))


def wigner_all(lmax: int, tag: str, elements: list[GroupElement]) -> list[np.ndarray]:
    """D_ell(g) for every degree ell <= lmax at every element, z-y-z convention.

    Entry ell has shape (N, dim, dim).  One little-d recursion runs over all
    the elements' betas; the alpha/gamma phases are applied per degree.
    """
    if any(g.tag != tag for g in elements):
        raise TagMismatchError(f"element tag does not match {tag}")
    ang = np.array([to_euler(g) for g in elements]).reshape(-1, 3)
    planes = little_d_stack(j2_of(lmax, tag), ang[:, 1])
    out = []
    for ell in range(lmax + 1):
        ph = np.exp(-1j * ang[:, 0::2, None] * m_values(ell, tag))  # alpha, gamma phases: (N, 2, dim)
        out.append(ph[:, 0, :, None] * planes[j2_of(ell, tag)] * ph[:, 1, None, :])
    return out


def wigner_matrix(ell: int, tag: str, g: GroupElement) -> np.ndarray:
    """D_ell(g) in the z-y-z convention, unitary, dim x dim."""
    return wigner_all(ell, tag, [g])[ell][0]


@lru_cache(maxsize=4)
def separable_factors(
    tag: str, bandlimit: int, rule: QuadratureRule
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[np.ndarray, slice], ...]]:
    """The transform plan: D_ell[m', m] = e^{-i m' alpha} d_ell(beta)[m', m] e^{-i m gamma} on a product rule.

    Returns e^{i m alpha} (n_alpha, 2L+1) and e^{i m gamma} (n_gamma, 2L+1)
    over m = -L..L on SO3 and doubled m = -L..L (m = -L/2..L/2 in steps of
    1/2) on SU2, so one grid of columns serves every degree; and for each
    degree ell <= L its little-d planes (nb, dim, dim) with the slice of its
    m in those columns (every column on SO3, every second on SU2).  The
    half-step recursion passes through the half-integer spins on SO3, but
    only the planes a degree reads are kept.

    Memoized on (tag, bandlimit, rule); rules compare by identity, so a rule
    built by hand gets its own entry even when its axes equal a memoized
    rule's.  Every array is read-only.  One plan holds nb * sum_ell dim^2
    float64 planes and (n_alpha + n_gamma) * (2L+1) complex128 phases: with
    the rule of bandlimit 2L (nb = 2L+1, n_alpha = n_gamma = 4L+2), 132 KB of
    planes at SO3 L=8 (17 * 969 * 8 bytes) and 378 MB at SO3 L=64
    (129 * 366,145 * 8 bytes; SU2 at L=64 holds 97 MB).  At most four plans
    are kept, so the memo holds at most four times the largest plan built.
    """
    j2max = j2_of(bandlimit, tag)  # DomainError below degree 0
    su2 = tag == SU2
    m = np.arange(-bandlimit, bandlimit + 1) / (2.0 if su2 else 1.0)
    # SO3 degree ell is spin ell (j2 = 2 ell): the odd j2 are only steps of the recursion
    planes = [plane for j2, plane in enumerate(_little_d_planes(j2max, rule.betas)) if su2 or j2 % 2 == 0]
    step = 2 if su2 else 1
    degrees = tuple((plane, slice(bandlimit - ell, bandlimit + ell + 1, step)) for ell, plane in enumerate(planes))
    ea, eg = np.exp(1j * np.outer(rule.alphas, m)), np.exp(1j * np.outer(rule.gammas, m))
    for arr in (ea, eg, *planes):
        arr.setflags(write=False)  # cached and shared by the whole process
    return ea, eg, degrees


def wigner_stack_on_rule(ell: int, tag: str, rule: QuadratureRule, plan_bandlimit: int | None = None) -> np.ndarray:
    """D_ell at every rule node, shape (size, dim, dim), product-grid order.

    The product of the phases and degree-ell planes of the memoized plan
    ``separable_factors(tag, plan_bandlimit, rule)``, at bandlimit ell by
    default; a loop over the degrees up to L passes L, so that one plan
    serves them all.  The stack is the same from any plan.  It is not
    cached: the transforms never build it, and at degree ell it takes
    size * dim^2 complex entries.
    """
    if rule.tag != tag:
        raise TagMismatchError("rule tag does not match requested tag")
    top = ell if plan_bandlimit is None else plan_bandlimit
    if not 0 <= ell <= top:
        raise DomainError(f"degree {ell} lies outside the plan's 0..{top}")
    ea, eg, degrees = separable_factors(tag, top, rule)
    planes, band = degrees[ell]
    stack = np.conj(ea[:, None, None, band, None]) * planes[None, :, None] * np.conj(eg[None, None, :, None, band])
    return stack.reshape(rule.size, *planes.shape[1:])


# Fixed unitary relating the SO3 degree-1 matrix to the rotation itself:
# D_1(g) = CARTESIAN_TO_SPHERICAL @ g @ CARTESIAN_TO_SPHERICAL^dagger.
# Rows are the m = -1, 0, +1 spherical components of a Cartesian vector.
CARTESIAN_TO_SPHERICAL = np.array(
    [
        [1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0), 0.0],
        [0.0, 0.0, 1.0],
        [-1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0), 0.0],
    ]
)

# Fixed permutation relating the SU2 degree-1 matrix to the element itself:
# D_1(g) = SWAP @ su2_matrix(g) @ SWAP.
SU2_BASIS_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
