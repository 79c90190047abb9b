"""Fourier analysis on SU(2)/SO(3): transforms, translation, generators.

Coefficient convention: F(ell) = integral of f(g) D_ell(g)^dagger dg, so a
left translation f(x g) multiplies each coefficient by D_ell(x) on the
right.  The inverse series is sum_ell c_ell Tr[F(ell) D_ell(g)] with
c_ell = dim(ell).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BispectError, DomainError, PrecisionWarning, TagMismatchError
from .groups import GroupElement, QuadratureRule, haar_quadrature
from .wigner import dim, separable_factors, wigner_all


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Complex samples of a function at the nodes of a quadrature rule.

    Unlike the other value objects it holds a view of the caller's values,
    not a copy (they reach 460 MB at rule bandlimit 192)."""

    tag: str
    rule: QuadratureRule
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex).view()  # freeze a view, not the caller's array
        if vals.shape != (self.rule.size,):
            raise DomainError("value count must equal the rule's node count")
        if self.tag != self.rule.tag:
            raise TagMismatchError("sample tag does not match rule tag")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """The family {F(ell)} of Fourier coefficient matrices up to a bandlimit."""

    tag: str
    bandlimit: int
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.bandlimit < 0:
            raise DomainError(f"bandlimit must be nonnegative, got {self.bandlimit}")
        mats = []
        for ell, mat in enumerate(self.matrices):
            m = np.array(mat, dtype=complex)
            d = dim(ell, self.tag)
            if m.shape != (d, d):
                raise DomainError(f"matrix at degree {ell} must be {d}x{d}, got {m.shape}")
            m.setflags(write=False)
            mats.append(m)
        if len(mats) != self.bandlimit + 1:
            raise DomainError("need one matrix per degree 0..bandlimit")
        object.__setattr__(self, "matrices", tuple(mats))

    def __getitem__(self, ell: int) -> np.ndarray:
        return self.matrices[ell]


def fourier_forward(f: SampledFunction, bandlimit: int) -> CoefficientSet:
    """F(ell) = sum_i w_i f(g_i) D_ell(g_i)^dagger for ell <= bandlimit.

    Exact when f is bandlimited at ``bandlimit`` and the rule's bandlimit is
    at least twice that; otherwise a PrecisionWarning is issued and the
    result is the quadrature approximation.  Two gemms run the gamma and
    alpha circle sums once for all degrees, against the memoized plan of
    ``separable_factors``; each degree is then a beta quadrature.
    """
    if f.rule.bandlimit < 2 * bandlimit:
        warnings.warn(
            f"rule bandlimit {f.rule.bandlimit} < 2*{bandlimit}; coefficients are approximate",
            PrecisionWarning,
            stacklevel=2,
        )
    rule = f.rule
    ea, eg, degrees = separable_factors(f.tag, bandlimit, rule)
    na, nb, nm = rule.alphas.size, rule.betas.size, ea.shape[1]
    v = (rule.weights * f.values).reshape(na * nb, rule.gammas.size)
    g = (ea.T @ (v @ eg).reshape(na, nb * nm)).reshape(nm, nb, nm).transpose(1, 0, 2)  # g[b, m', m]
    mats = [(planes * g[:, band, band]).sum(axis=0).T for planes, band in degrees]
    return CoefficientSet(f.tag, bandlimit, tuple(mats))


def fourier_inverse(coeffs: CoefficientSet, rule: QuadratureRule | None = None) -> SampledFunction:
    """Evaluate sum_ell dim(ell) Tr[F(ell) D_ell(g_i)] on a rule's nodes.

    Each degree adds its beta planes into h[m', b, m]; two gemms over the
    gamma and alpha circles follow.
    """
    if rule is None:
        rule = haar_quadrature(2 * coeffs.bandlimit, coeffs.tag)
    if rule.tag != coeffs.tag:
        raise TagMismatchError("rule tag does not match coefficient tag")
    ea, eg, degrees = separable_factors(coeffs.tag, coeffs.bandlimit, rule)
    nb, nm = rule.betas.size, ea.shape[1]
    h = np.zeros((nm, nb, nm), dtype=complex)
    for ell, (planes, band) in enumerate(degrees):
        h[band, :, band] += dim(ell, coeffs.tag) * planes.transpose(1, 0, 2) * coeffs[ell].T[:, None, :]
    t = (h.reshape(nm * nb, nm) @ np.conj(eg).T).reshape(nm, nb * rule.gammas.size)  # t[m', (b, c)]
    return SampledFunction(coeffs.tag, rule, (np.conj(ea) @ t).reshape(-1))


def evaluate_at(coeffs: CoefficientSet, elements: list[GroupElement]) -> np.ndarray:
    """Pointwise Fourier series evaluation at arbitrary group elements."""
    out = np.zeros(len(elements), dtype=complex)
    for ell, dstack in enumerate(wigner_all(coeffs.bandlimit, coeffs.tag, elements)):
        out += dim(ell, coeffs.tag) * np.einsum("uv,ivu->i", coeffs[ell], dstack)
    return out


def translate(coeffs: CoefficientSet, x: GroupElement) -> CoefficientSet:
    """Coefficients of g -> f(x g):  F(ell) -> F(ell) D_ell(x)."""
    dmats = wigner_all(coeffs.bandlimit, coeffs.tag, [x])
    mats = tuple(f @ d[0] for f, d in zip(coeffs.matrices, dmats))
    return CoefficientSet(coeffs.tag, coeffs.bandlimit, mats)


def quadrature_inner(f: SampledFunction, h: SampledFunction) -> complex:
    """<f, h> = sum_i w_i f_i conj(h_i)."""
    if f.tag != h.tag:
        raise TagMismatchError("samples live on different groups")
    if f.rule is not h.rule and f.rule.bandlimit != h.rule.bandlimit:
        raise DomainError("samples must share a quadrature rule")
    return complex(np.sum(f.rule.weights * f.values * np.conj(h.values)))


def coefficient_inner(a: CoefficientSet, b: CoefficientSet) -> complex:
    """Dimension-weighted trace inner product matching quadrature_inner."""
    if (a.tag, a.bandlimit) != (b.tag, b.bandlimit):
        raise TagMismatchError("coefficient sets differ in group or bandlimit")
    total = 0.0 + 0.0j
    for ell in range(a.bandlimit + 1):
        total += dim(ell, a.tag) * np.sum(a[ell] * np.conj(b[ell]))
    return complex(total)


def max_condition(coeffs: CoefficientSet) -> float:
    return max(float(np.linalg.cond(coeffs[ell])) for ell in range(coeffs.bandlimit + 1))


# condition-number policy: generator keeps drawing until below the target,
# consumers reject outright above the hard ceiling
COND_TARGET = 1e4
COND_REJECT = 1e8
MAX_RETRIES = 64  # draws random_bandlimited makes for a well-conditioned set


def random_bandlimited(
    bandlimit: int,
    tag: str,
    require_nonsingular: bool = False,
    require_real: bool = False,
    seed: int = 0,
) -> CoefficientSet:
    """Seeded random coefficient set, optionally well-conditioned / real-origin.

    Real origin functions are produced by transforming real white noise on
    the nodes of a bandlimit-matched rule: the discrete transform commutes
    with conjugation, so the coefficient-level reality constraint holds
    exactly (and with it, on SU2, the nonnegative determinant at degree 1).
    """
    rng = np.random.default_rng(seed)
    rule = haar_quadrature(bandlimit, tag) if require_real else None
    for _ in range(MAX_RETRIES):
        if require_real:
            # scaled so coefficient entries come out O(1/sqrt(dim)), matching
            # the complex branch
            noise = rng.standard_normal(rule.size) * np.sqrt(rule.size)
            samples = SampledFunction(tag, rule, noise.astype(complex))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PrecisionWarning)
                coeffs = fourier_forward(samples, bandlimit)
        else:
            mats = []
            for ell in range(bandlimit + 1):
                d = dim(ell, tag)
                mats.append((rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2 * d))
            coeffs = CoefficientSet(tag, bandlimit, tuple(mats))
        if not require_nonsingular or max_condition(coeffs) <= COND_TARGET:
            return coeffs
    raise BispectError("could not draw a well-conditioned coefficient set")  # pragma: no cover
