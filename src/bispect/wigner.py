"""Wigner matrices: the irreducible unitary representations of SU(2)/SO(3).

Degrees follow the dimension-based indexing: for SU2 the degree-ell
representation has dimension ell + 1 (spin ell/2), for SO3 dimension
2*ell + 1 (spin ell).  Internally everything is bookkept by the doubled
spin j2 = 2j, so integer and half-integer spins share one code path.
Row and column indices run over m = -j ... +j ascending.

Every little-d matrix is Risbo's factorization (T. Risbo, J. Geodesy 70,
1996), d^j(beta) = Delta_j E(beta) Delta_j^T up to fixed signs, E diagonal in
e^(-i k beta) and Delta_j = d^j(pi/2) memoized once per spin, built by a
factorial-free half-integer-step recursion in the spin; Wigner's direct
summation formula is kept as an independent cross-check.
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
    return np.arange(j2 + 1) - j2 / 2.0


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
    """Planes d^(j2/2)(beta) for j2 = 0..j2max by the recursion; entry j2 has shape (nb, j2+1, j2+1)."""
    return list(_little_d_planes(j2max, betas))


_RIGHT_ANGLE = np.array([np.pi / 2])  # b = fl(pi/2) = pi/2 - cos(b)


@lru_cache(maxsize=256)
def _delta(j2: int) -> tuple[np.ndarray, ...]:
    """Delta = d^(j2/2)(pi/2) and the factors ``little_d`` reads from it: (plane,
    k, cos_left, sin_left, right, odd), read-only, memoized per doubled spin j2
    (SO3 degree l and SU2 degree 2 l share it): 22 KB for the spins of SO3
    L=8, 7.8 MB for those of SO3 L=64, 118 MB for all j2 < 256.

    plane is the recursion at b, two half-steps on from the memoized j2 - 2;
    Delta is plane moved the last cos(b) along d' = d (J- - J+)/2.  With H
    its columns at k = m >= 0, cos_left = diag(s) H, sin_left = diag(s') H
    and right = (diag(s) H diag(w))^T, w = 2 where k > 0, row i having
    s_i = (-1)^floor(i/2) and s'_i = (-1)^i s_i: entry (i, i') takes the
    sign s_i s_i' where m' - m is even and s'_i s_i' where it is odd, which
    ``odd`` marks."""
    if j2 < 2:
        *_, plane = _little_d_planes(j2, _RIGHT_ANGLE)
    else:
        cs = np.cos(_RIGHT_ANGLE / 2.0), np.sin(_RIGHT_ANGLE / 2.0)
        plane = _half_step(_half_step(_delta(j2 - 2)[0], *cs), *cs)
    m = np.arange(j2) - j2 / 2.0
    g = 0.5 * np.sqrt((j2 / 2.0 - m) * (j2 / 2.0 + m + 1.0))  # <m + 1| J+ |m> / 2
    half = (plane[0] + np.cos(_RIGHT_ANGLE[0]) * (plane[0] @ (np.diag(g, 1) - np.diag(g, -1))))[:, (j2 + 1) // 2:]
    i = np.arange(j2 + 1)
    s = 1.0 - 2.0 * (i // 2 % 2)
    k = np.arange(half.shape[1]) + (j2 % 2) / 2.0
    right = (s[:, None] * half * np.where(k > 0, 2.0, 1.0)).T.copy()
    factors = (plane, k, s[:, None] * half, (s - 2.0 * s * (i % 2))[:, None] * half, right,
               np.subtract.outer(i, i) % 2 == 1)
    for x in factors:
        x.setflags(write=False)  # cached and shared by the whole process
    return factors


def little_d(j2: int, betas: np.ndarray) -> np.ndarray:
    """d^(j2/2)(beta) at each beta of a 1-d float array, (nb, j2+1, j2+1):

        d[m', m] = Re sum_k Delta[m', k] Delta[m, k] i^(m - m') e^(-i k beta),

    in float64 over k >= 0 (the terms at -k equal those at k), of cos(k beta)
    where m' - m is even and of sin(k beta) where it is odd: two gemms a beta."""
    _, k, cos_left, sin_left, right, odd = _delta(j2)
    kb = betas[:, None, None] * k
    d = (cos_left * np.cos(kb)) @ right
    np.copyto(d, (sin_left * np.sin(kb)) @ right, where=odd)
    return d


def wigner_all(lmax: int, tag: str, elements: list[GroupElement]) -> list[np.ndarray]:
    """D_ell(g) for every degree ell <= lmax at every element, z-y-z convention.

    Entry ell has shape (N, dim, dim): ``little_d`` over all the elements'
    betas, degree by degree, between the alpha and gamma phases.
    """
    j2_of(lmax, tag)  # DomainError below degree 0
    if any(g.tag != tag for g in elements):
        raise TagMismatchError(f"element tag does not match {tag}")
    ang = np.array([to_euler(g) for g in elements]).reshape(-1, 3)
    turns, betas = -1j * ang[:, 0::2], ang[:, 1]
    out = []
    for ell in range(lmax + 1):
        ph = np.exp(np.multiply.outer(turns, m_values(ell, tag)))  # alpha, gamma phases: (N, 2, dim)
        out.append(ph[:, 0, :, None] * little_d(j2_of(ell, tag), betas) * ph[:, 1, None, :])
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
    m in those columns (every column on SO3, every second on SU2), from ``little_d``.

    Memoized on (tag, bandlimit, rule); rules compare by identity, so a rule
    built by hand gets its own entry even when its axes equal a memoized
    rule's.  Every array is read-only.  One plan holds nb * sum_ell dim^2
    float64 planes and (n_alpha + n_gamma) * (2L+1) complex128 phases: with
    the rule of bandlimit 2L (nb = 2L+1, n_alpha = n_gamma = 4L+2), 132 KB of
    planes at SO3 L=8 (17 * 969 * 8 bytes) and 378 MB at SO3 L=64
    (129 * 366,145 * 8 bytes; SU2 at L=64 holds 97 MB), built cold in about
    0.75 s at a 491 MB peak (2 shared cores, OpenBLAS).  At most four plans are kept, so
    the memo holds at most four times the largest plan built.
    """
    j2_of(bandlimit, tag)  # DomainError below degree 0
    su2 = tag == SU2
    m = np.arange(-bandlimit, bandlimit + 1) / (2.0 if su2 else 1.0)
    planes = [little_d(j2_of(ell, tag), rule.betas) for ell in range(bandlimit + 1)]
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
