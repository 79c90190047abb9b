"""Elements of SU(2) and SO(3), Euler parameterizations, and Haar quadrature.

SU(2) elements are stored as unit quaternions (w, x, y, z) and composed by
the Hamilton product; SO(3) elements are stored as 3x3 rotation matrices.
Conversion between the two uses the standard 2-to-1 covering.  All Euler
angles follow the z-y-z convention: g = R_z(alpha) R_y(beta) R_z(gamma),
with gamma running over [0, 4*pi) for SU(2) and [0, 2*pi) for SO(3).  Both
groups build an element from its angles, and read the angles back, through
the element's quaternion (one of the two, for SO(3)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, TagMismatchError

SU2 = "SU2"
SO3 = "SO3"

_NORM_TOL = 1e-12
TWO_PI = 2.0 * np.pi


class EulerAngles(NamedTuple):
    """z-y-z Euler triple (alpha, beta, gamma) in radians."""

    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A point of SU(2) (unit quaternion) or SO(3) (rotation matrix)."""

    tag: str
    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=float)  # freeze a copy: the caller may write to its array
        if self.tag == SU2:
            if arr.shape != (4,):
                raise DomainError("SU2 element needs a quaternion of shape (4,)")
            if abs(np.dot(arr, arr) - 1.0) > 64 * _NORM_TOL:
                raise DomainError("quaternion is not unit length")
        elif self.tag == SO3:
            if arr.shape != (3, 3):
                raise DomainError("SO3 element needs a 3x3 matrix")
            if np.max(np.abs(arr.T @ arr - np.eye(3))) > 1e-10:
                raise DomainError("matrix is not orthogonal")
            if abs(np.linalg.det(arr) - 1.0) > 1e-10:
                raise DomainError("matrix determinant is not +1")
        else:
            raise TagMismatchError(f"unknown group tag {self.tag!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)


def identity(tag: str) -> GroupElement:
    if tag == SU2:
        return GroupElement(SU2, np.array([1.0, 0.0, 0.0, 0.0]))
    return GroupElement(SO3, np.eye(3))


def _quat_multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group product g1 * g2."""
    if g1.tag != g2.tag:
        raise TagMismatchError(f"cannot compose {g1.tag} with {g2.tag}")
    if g1.tag == SU2:
        q = _quat_multiply(g1.data, g2.data)
        return GroupElement(SU2, q / np.linalg.norm(q))
    return GroupElement(SO3, g1.data @ g2.data)


def inverse(g: GroupElement) -> GroupElement:
    if g.tag == SU2:
        w, x, y, z = g.data
        return GroupElement(SU2, np.array([w, -x, -y, -z]))
    return GroupElement(SO3, g.data.T)


def quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    """Covering map: unit quaternion -> rotation matrix (v -> q v q*)."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_matrix(g: GroupElement) -> np.ndarray:
    """3x3 rotation matrix of g (through the covering map for SU2)."""
    if g.tag == SU2:
        return quaternion_to_matrix(g.data)
    return np.array(g.data)


def su2_matrix(g: GroupElement) -> np.ndarray:
    """2x2 special-unitary matrix of an SU2 element: w*I - i(x sx + y sy + z sz)."""
    if g.tag != SU2:
        raise TagMismatchError("su2_matrix needs an SU2 element")
    w, x, y, z = g.data
    return np.array(
        [
            [w - 1j * z, -y - 1j * x],
            [y - 1j * x, w + 1j * z],
        ]
    )


def distance(g1: GroupElement, g2: GroupElement) -> float:
    """Chordal metric: quaternion 2-norm gap for SU2, Frobenius gap for SO3."""
    if g1.tag != g2.tag:
        raise TagMismatchError("distance needs matching group tags")
    return float(np.linalg.norm(g1.data - g2.data))


def random_element(tag: str, rng: np.random.Generator) -> GroupElement:
    """Haar-distributed random element."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    if tag == SU2:
        return GroupElement(SU2, q)
    return GroupElement(SO3, quaternion_to_matrix(q))


def z_rotation(theta: float, tag: str = SO3) -> GroupElement:
    if tag == SU2:
        return GroupElement(SU2, np.array([np.cos(theta / 2), 0.0, 0.0, np.sin(theta / 2)]))
    c, s = np.cos(theta), np.sin(theta)
    return GroupElement(SO3, np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))


# ---------------------------------------------------------------------------
# Euler conversions
# ---------------------------------------------------------------------------


def gamma_period(tag: str) -> float:
    return 4.0 * np.pi if tag == SU2 else TWO_PI


def from_euler(angles: tuple[float, float, float], tag: str) -> GroupElement:
    """Build the element R_z(alpha) R_y(beta) R_z(gamma) from its quaternion."""
    a, b, c = angles
    if not (0.0 <= a < TWO_PI):
        raise DomainError(f"alpha={a} outside [0, 2*pi)")
    if not (0.0 <= b <= np.pi):
        raise DomainError(f"beta={b} outside [0, pi]")
    if not (0.0 <= c < gamma_period(tag)):
        raise DomainError(f"gamma={c} outside [0, {gamma_period(tag):.3f})")
    cb, sb = np.cos(b / 2), np.sin(b / 2)
    s, d = (a + c) / 2, (a - c) / 2
    q = np.array([cb * np.cos(s), -sb * np.sin(d), sb * np.cos(d), cb * np.sin(s)])
    return GroupElement(SU2, q) if tag == SU2 else GroupElement(SO3, quaternion_to_matrix(q))


def wrap_angle(x: float, period: float) -> float:
    """x reduced into [0, period); an x just below 0 gives 0, never period."""
    y = math.fmod(x, period)
    if y < 0:
        y += period
    if y >= period:  # fmod rounding at the boundary
        y -= period
    return y


def _matrix_quaternion(r: np.ndarray) -> tuple[float, float, float, float]:
    """A unit quaternion covering the rotation r (either sign), by Shepperd's method:
    the row of products 4 q_i q_j whose 4 q_i^2 is largest, normalized."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r.tolist()
    tr = r00 + r11 + r22
    rows = (
        (1.0 + tr, r21 - r12, r02 - r20, r10 - r01),
        (r21 - r12, 1.0 + 2.0 * r00 - tr, r01 + r10, r02 + r20),
        (r02 - r20, r01 + r10, 1.0 + 2.0 * r11 - tr, r12 + r21),
        (r10 - r01, r02 + r20, r12 + r21, 1.0 + 2.0 * r22 - tr),
    )
    row = rows[max(range(4), key=lambda i: rows[i][i])]
    n = math.hypot(*row)
    return tuple(v / n for v in row)


def to_euler(g: GroupElement) -> EulerAngles:
    """Canonical z-y-z angles of g, read from the half-angle phases of its quaternion.

    An SO3 element enters through a unit quaternion covering it, so both
    groups share one extraction; its gamma is then folded into [0, 2*pi).
    At the degeneracies (sin or cos of beta/2 below 1e-14) all the angle
    content goes into alpha, with beta exactly 0 or pi and gamma = 0, or
    2*pi on the far sheet of SU2.
    """
    w, x, y, z = g.data if g.tag == SU2 else _matrix_quaternion(g.data)
    u00 = complex(w, -z)  # upper-left entry of the SU2 matrix
    u10 = complex(y, -x)  # lower-left entry
    cb, sb = abs(u00), abs(u10)
    if sb < 1e-14:
        total = wrap_angle(-2.0 * np.angle(u00), 4.0 * np.pi)  # alpha + gamma
        alpha = wrap_angle(total, TWO_PI)
        beta, gamma = 0.0, total - alpha
    elif cb < 1e-14:
        diff = wrap_angle(2.0 * np.angle(u10), 4.0 * np.pi)  # alpha - gamma
        alpha = wrap_angle(diff, TWO_PI)
        beta, gamma = float(np.pi), wrap_angle(alpha - diff, 4.0 * np.pi)
    else:
        a, b = np.angle(u00), np.angle(u10)
        alpha0 = b - a
        alpha = wrap_angle(alpha0, TWO_PI)
        # adding 2*pi to alpha flips the sheet; compensate in gamma (period 4*pi)
        k = int(round((alpha - alpha0) / TWO_PI))
        beta = 2.0 * float(np.arctan2(sb, cb))
        gamma = wrap_angle(-a - b + TWO_PI * (k % 2), 4.0 * np.pi)
    return EulerAngles(alpha, beta, wrap_angle(gamma, gamma_period(g.tag)))


# ---------------------------------------------------------------------------
# Haar quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Product rule in z-y-z Euler angles, normalized to total weight 1.

    Exact for products of two Wigner matrix coefficients of degree up to the
    rule's bandlimit: uniform grids of 2L+2 points in alpha and gamma (the
    gamma grid covering [0, 4*pi) for SU2) and Gauss-Legendre with L+1 nodes
    in cos(beta).  Nodes run in product order, alpha slowest and gamma
    fastest.
    """

    tag: str
    bandlimit: int
    alphas: np.ndarray
    betas: np.ndarray
    gammas: np.ndarray
    beta_weights: np.ndarray
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("alphas", "betas", "gammas", "beta_weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        na, ng = self.alphas.size, self.gammas.size
        w = np.einsum("a,b,c->abc", np.full(na, 1.0 / na), self.beta_weights, np.full(ng, 1.0 / ng)).reshape(-1)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.alphas.size * self.betas.size * self.gammas.size

    @property
    def nodes(self) -> list[GroupElement]:
        """One element per node in product order, built anew on each read."""
        return [from_euler((a, b, c), self.tag) for a in self.alphas for b in self.betas for c in self.gammas]


def haar_rule_size(bandlimit: int) -> int:
    """Node count of ``haar_quadrature(bandlimit, tag)``, known without building the rule."""
    return (2 * bandlimit + 2) ** 2 * (bandlimit + 1)


@lru_cache(maxsize=64)
def haar_quadrature(bandlimit: int, tag: str) -> QuadratureRule:
    """Quadrature exact for coefficient products of degree <= bandlimit."""
    if bandlimit < 0:
        raise DomainError("bandlimit must be nonnegative")
    if tag not in (SU2, SO3):
        raise TagMismatchError(f"unknown group tag {tag!r}")
    n_circ = 2 * bandlimit + 2
    alphas = TWO_PI * np.arange(n_circ) / n_circ
    gammas = gamma_period(tag) * np.arange(n_circ) / n_circ
    x, wx = np.polynomial.legendre.leggauss(bandlimit + 1)
    betas = np.arccos(x[::-1]).copy()  # ascending beta
    beta_weights = (wx[::-1] / 2.0).copy()  # normalized: weights sum to 1
    return QuadratureRule(tag, bandlimit, alphas, betas, gammas, beta_weights)
