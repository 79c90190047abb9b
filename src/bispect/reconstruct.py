"""Recovering coefficient sets from bispectrum descriptors.

The driver inverts the descriptor degree by degree: the mean from the cube
root of A(0, 0), the degree-1 matrix from a square root of
A(0, 1)/F(0) = F(1) F(1)^+ (positive root on SU2, where real origin
functions force a nonnegative determinant; sign-matched root on SO3 using
the stored det side information), and each higher degree from block l of
the stored coupled entry B(1, l-1) = [F(1) (x) F(l-1)] C [dsum F(a)^+]:

    F(l)^+ = C[:, block l]^T [F(1) (x) F(l-1)]^-1 B(1, l-1)[:, block l] .

A descriptor in the real basis runs the same steps in float64 on its B_R
and C_R, recovering F_R(l) = U_l F(l) U_l^+, and turns each back to F(l).

Every recovered set equals the true one up to one right factor D_ell(x),
the group translation the descriptor cannot see; ``find_alignment``
recovers that x when ground truth is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    MissingSideInfoError,
    NoAlignmentError,
    NotPositiveSemidefiniteError,
    SingularCoefficientError,
    SingularMatrixError,
    TagMismatchError,
    ZeroMeanError,
)
from .groups import SO3, SU2, TWO_PI, GroupElement, from_euler, gamma_period, haar_quadrature, su2_matrix, wrap_angle
from .harmonic import COND_REJECT, CoefficientSet, evaluate_at, fourier_inverse, translate
from .bispectrum import BispectrumDescriptor
from .clebsch import kron_solve, real_basis
from .wigner import CARTESIAN_TO_SPHERICAL, SU2_BASIS_SWAP

_HERMITICITY_TOL = 1e-10


def _check_hermitian(m: np.ndarray) -> np.ndarray:
    scale = max(float(np.linalg.norm(m)), 1.0)
    if np.max(np.abs(m - m.conj().T)) > _HERMITICITY_TOL * scale:
        raise DomainError("matrix is not Hermitian within tolerance")
    return 0.5 * (m + m.conj().T)


def _inexact(m) -> np.ndarray:
    """m as a float64 array when real, else complex128."""
    return np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)


def positive_sqrt(hm: np.ndarray) -> np.ndarray:
    """Unique Hermitian PSD square root; mildly negative eigenvalues clamp to 0."""
    hm = _check_hermitian(_inexact(hm))
    vals, vecs = np.linalg.eigh(hm)
    scale = max(float(vals[-1]), 0.0)
    if vals[0] < -1e-10 * max(scale, 1.0):
        raise NotPositiveSemidefiniteError(f"eigenvalue {vals[0]:.3e} is significantly negative")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def signed_sqrt(hm: np.ndarray, target_det: float) -> np.ndarray:
    """Hermitian square root whose determinant sign matches ``target_det``.

    A negative target flips the sign of the square root of the smallest
    eigenvalue (ties broken by the first index), which keeps R R = hm while
    reaching the requested determinant.  A real hm gives a real root.
    """
    hm = _check_hermitian(_inexact(hm))
    vals, vecs = np.linalg.eigh(hm)
    if vals[0] <= 0 or vals[-1] / vals[0] > COND_REJECT:
        raise SingularMatrixError("signed_sqrt needs a nonsingular PSD matrix")
    root = np.sqrt(vals)
    mag = float(np.prod(root))
    if abs(abs(target_det) - mag) > 1e-6 * mag:
        raise DomainError(
            f"|target_det|={abs(target_det):.6e} does not match sqrt(det)={mag:.6e}"
        )
    if target_det < 0:
        root[0] = -root[0]  # eigh sorts ascending: index 0 is the smallest
    return (vecs * root) @ vecs.conj().T


def polar_decompose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = H U with H Hermitian positive definite and U unitary.

    From A = V S W^H: H = V S V^H and U = V W^H."""
    v, svals, wh = np.linalg.svd(np.asarray(a, dtype=complex))
    if svals[-1] <= 0 or svals[0] / svals[-1] > COND_REJECT:
        raise SingularMatrixError("polar decomposition needs a well-conditioned matrix")
    return (v * svals) @ v.conj().T, v @ wh


@dataclass(frozen=True)
class AlignmentWitness:
    x: GroupElement
    per_ell_residuals: tuple[float, ...]

    @property
    def max_residual(self) -> float:
        return max(self.per_ell_residuals)


@dataclass
class ReconstructionReport:
    recovered: CoefficientSet
    condition_numbers: dict[int, float] = field(default_factory=dict)
    witness: AlignmentWitness | None = None


def _project_su2(v: np.ndarray) -> GroupElement:
    """Nearest SU2 element to a 2x2 matrix given in the degree-1 basis."""
    u = SU2_BASIS_SWAP @ v @ SU2_BASIS_SWAP  # back to the self-representation
    _, w = polar_decompose(u)
    det = complex(np.linalg.det(w))
    w = w / np.sqrt(det)  # principal branch lands next to the input
    quat = np.array(
        [0.5 * (w[0, 0] + w[1, 1]).real, -0.5 * (w[0, 1] + w[1, 0]).imag,
         0.5 * (w[1, 0] - w[0, 1]).real, 0.5 * (w[1, 1] - w[0, 0]).imag]
    )
    x = GroupElement(SU2, quat / np.linalg.norm(quat))
    gap = float(np.max(np.abs(u - su2_matrix(x))))
    if gap > 1e-3:
        raise NoAlignmentError(f"degree-1 quotient is {gap:.3e} away from SU(2)")
    return x


def _project_so3(v: np.ndarray) -> GroupElement:
    """Nearest SO3 element to a 3x3 matrix given in the degree-1 basis."""
    u = CARTESIAN_TO_SPHERICAL
    r = (u.conj().T @ v @ u).real
    _, w = polar_decompose(r)
    w = w.real
    if np.linalg.det(w) < 0:
        raise NoAlignmentError("degree-1 quotient has determinant -1")
    gap = float(np.max(np.abs(v - u @ w @ u.conj().T)))
    if gap > 1e-3:
        raise NoAlignmentError(f"degree-1 quotient is {gap:.3e} away from SO(3)")
    return GroupElement(SO3, w)


def find_alignment(truth: CoefficientSet, recovered: CoefficientSet) -> AlignmentWitness:
    """Find x with recovered(ell) = truth(ell) D_ell(x) for all degrees.

    Needs a nonsingular degree-1 coefficient; rank-deficient sets (sphere
    lifts) fall back to a correlation search over the group followed by a
    local refinement.
    """
    if (truth.tag, truth.bandlimit) != (recovered.tag, recovered.bandlimit):
        raise TagMismatchError("coefficient sets differ in group or bandlimit")
    if truth.bandlimit < 1:
        raise DomainError("alignment needs at least degree 1")
    f1 = truth[1]
    well_posed = np.linalg.cond(f1) < 1e6
    if well_posed:
        v = np.linalg.solve(f1, recovered[1])
        x = _project_su2(v) if truth.tag == SU2 else _project_so3(v)
    else:
        x = _correlation_alignment(truth, recovered)
    residuals = tuple(
        float(np.linalg.norm(r - t)) / max(float(np.linalg.norm(f)), 1e-300)
        for f, r, t in zip(truth.matrices, recovered.matrices, translate(truth, x).matrices)
    )
    if max(residuals) > 1e-3:
        raise NoAlignmentError(f"residual {max(residuals):.3e} after alignment")
    return AlignmentWitness(x, residuals)


def _correlation_alignment(truth: CoefficientSet, recovered: CoefficientSet) -> GroupElement:
    """Maximize Re sum_ell dim <recovered, truth D(x)> over the group."""
    from scipy.optimize import minimize

    tag = truth.tag
    # score(x) = Re sum_ell dim <recovered, truth D(x)> = Re sum_ell dim Tr[K_ell D(x)],
    # the real part of the inverse transform of {K_ell}
    k = CoefficientSet(tag, truth.bandlimit, tuple(r.conj().T @ f for r, f in zip(recovered.matrices, truth.matrices)))

    rule = haar_quadrature(max(8, truth.bandlimit), tag)
    scores = fourier_inverse(k, rule).values.real
    ia, ib, ic = np.unravel_index(int(np.argmax(scores)), (rule.alphas.size, rule.betas.size, rule.gammas.size))
    a0, b0, c0 = rule.alphas[ia], rule.betas[ib], rule.gammas[ic]

    def element(angles) -> GroupElement:
        """Wrap the optimizer's unconstrained angles into the canonical ranges."""
        a, b, c = angles
        return from_euler((wrap_angle(a, TWO_PI), float(np.clip(b, 0.0, np.pi)), wrap_angle(c, gamma_period(tag))), tag)

    def neg_score(angles):
        return -evaluate_at(k, [element(angles)])[0].real

    res = minimize(neg_score, np.array([a0, b0, c0]), method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
    return element(res.x)


def _reconstruct(desc: BispectrumDescriptor, ground_truth: CoefficientSet | None) -> ReconstructionReport:
    tag, L = desc.tag, desc.bandlimit
    for pq in [(0, 0), (0, 1)][:L + 1] + [(1, ell - 1) for ell in range(2, L + 1)]:
        if pq not in desc.entries:
            raise DomainError(f"descriptor lacks A{pq}, which reconstruction reads")

    # read in the stored basis; B(0, 0) = A(0, 0), as C_00 = C_R = [1]
    a00 = complex(desc.stored(0, 0).ravel()[0])
    if abs(a00) < 1e-300:
        raise ZeroMeanError("A(0,0) = 0: the mean coefficient cannot be recovered")
    f0 = np.cbrt(a00.real)  # real origin: real cube root, sign preserved
    mats = [np.array([[f0 + 0.0j]])]
    conds = {0: 1.0}

    if L >= 1:
        gram = desc.table(0, 1).decouple(desc.stored(0, 1)) / f0
        if tag == SO3:
            if desc.det_f1 is None:
                raise MissingSideInfoError("SO3 reconstruction needs det F(1) side information")
            if desc.det_f1 == 0:
                raise MissingSideInfoError("det F(1) side information must be nonzero")
            f1 = signed_sqrt(gram, desc.det_f1)
        else:
            f1 = positive_sqrt(gram)  # det F(1) >= 0 for real origin on SU2
        cond1 = float(np.linalg.cond(f1))
        if cond1 > COND_REJECT:
            raise SingularCoefficientError(1)
        mats.append(f1)
        conds[1] = cond1

    for ell in range(2, L + 1):
        cg = desc.table(1, ell - 1)
        # degree ell = 1 + (ell - 1) leads cg_indices, and every degree of B(1, ell - 1) is in band
        b = desc.stored(1, ell - 1)[:, cg.block_slices[0]]
        f_ell = (cg.block(ell).T @ kron_solve(mats[1], mats[ell - 1], b)).conj().T
        cond = float(np.linalg.cond(f_ell))
        if not np.isfinite(cond) or cond > COND_REJECT:
            raise SingularCoefficientError(ell)
        mats.append(f_ell)
        conds[ell] = cond

    if desc.in_real_basis:  # F(l) = U_l^+ F_R(l) U_l
        mats = [real_basis(ell).conj().T @ m @ real_basis(ell) for ell, m in enumerate(mats)]
    recovered = CoefficientSet(tag, L, tuple(mats))
    report = ReconstructionReport(recovered, conds)
    if ground_truth is not None:
        report.witness = find_alignment(ground_truth, recovered)
    return report


def reconstruct_su2(
    desc: BispectrumDescriptor, ground_truth: CoefficientSet | None = None
) -> ReconstructionReport:
    """Recover a real-origin SU2 coefficient set up to a left translation."""
    if desc.tag != SU2:
        raise TagMismatchError("descriptor is not SU2")
    return _reconstruct(desc, ground_truth)


def reconstruct_so3(
    desc: BispectrumDescriptor, ground_truth: CoefficientSet | None = None
) -> ReconstructionReport:
    """SO3 variant: the degree-1 square root sign comes from det side info."""
    if desc.tag != SO3:
        raise TagMismatchError("descriptor is not SO3")
    return _reconstruct(desc, ground_truth)


def check_sphere_witness(x: GroupElement) -> bool:
    """Does x normalize the z-axis circle H?  x R_z(t) x^-1 turns by t about
    x z, so it lies in H exactly when x z = +-z: the first two entries of
    x's third column vanish, to 1e-9."""
    if x.tag != SO3:
        raise TagMismatchError("sphere witnesses live in SO3")
    return bool(max(abs(x.data[0, 2]), abs(x.data[1, 2])) <= 1e-9)
