"""Planar glyphs, their sphere lifts, and invariant matching.

A grayscale image on the unit disk maps to the upper hemisphere by
r = sin(theta) with the azimuth preserved; the lower hemisphere is zero.
Planar rigid motions (rotate by alpha, translate by T with |T| <= 1)
correspond locally to rotations through the Euler angles (theta, phi, psi)
solving alpha = psi, t_x = sin(theta) cos(phi), t_y = sin(theta) sin(phi).
Since lifted descriptors are exactly rotation invariant, matching a moved
glyph against an index reduces to a nearest-descriptor search; the only
error budget is the local (not global) character of the plane-to-sphere
correspondence plus image interpolation.

This module alone knows how the glyph index is laid out.  The one row of
each B(p, q), p <= q, of a lift's descriptor holds the spherical bispectrum
beta(p, q, a) at its columns (a, M = 0) and zeros elsewhere
(``bispectrum``).  So a glyph is its beta, ``beta_count`` values (106 at
L = 6): a built lift stores it alone and ``lift_beta`` returns it as held;
a loaded one stores the rows, and ``lift_beta`` reads beta off them after
checking them.  A ``GlyphIndex`` keeps them beside its labels and the one
resolution its images were lifted at, which a query image must be lifted
at too.  A search is one vectorized Euclidean norm, equal to
``descriptor_distance`` against every glyph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, EmptyImageError, EmptyIndexError, TagMismatchError
from .groups import SO3, TWO_PI, GroupElement, from_euler, wrap_angle
from .bispectrum import BispectrumDescriptor, build_descriptor
from .clebsch import lift_terms
from .sphere import SphereFunction, check_resolution, sphere_grid, sphere_lift


@dataclass(frozen=True)
class PlanarMotion:
    """Rigid motion p -> R(alpha) p + (t_x, t_y) on the unit disk."""

    alpha: float
    t_x: float = 0.0
    t_y: float = 0.0

    def __post_init__(self):
        if np.hypot(self.t_x, self.t_y) > 1.0 + 1e-12:
            raise DomainError("translation must satisfy |T| <= 1")

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map plane points (..., 2) forward."""
        c, s = np.cos(self.alpha), np.sin(self.alpha)
        x = points[..., 0] * c - points[..., 1] * s + self.t_x
        y = points[..., 0] * s + points[..., 1] * c + self.t_y
        return np.stack([x, y], axis=-1)


def planar_motion_to_rotation(motion: PlanarMotion) -> GroupElement:
    """SO3 element solving alpha = psi, t_x = sin(theta) cos(phi), t_y = sin(theta) sin(phi).

    The composition is R_z(phi) R_y(theta) R_z(psi - phi): the pole is
    transported to the translation's direction without twist, then twisted
    by the planar rotation angle.  This is the order that makes the motion
    map a local isomorphism (moving the image then lifting agrees with
    lifting then rotating, to first order in the motion).
    """
    tnorm = float(np.hypot(motion.t_x, motion.t_y))  # PlanarMotion bounds it by 1 + 1e-12
    theta = float(np.arcsin(min(tnorm, 1.0)))
    phi = float(np.arctan2(motion.t_y, motion.t_x)) if tnorm > 1e-15 else 0.0
    psi = float(motion.alpha)
    return from_euler((wrap_angle(phi, TWO_PI), theta, wrap_angle(psi - phi, TWO_PI)), SO3)


def _bilinear_corners(shape: tuple[int, int], points: np.ndarray):
    """Where bilinear lookup at plane points reads an image of ``shape``: the
    corner rows ``y0, y1`` and columns ``x0, x1``, and the weights ``fx, fy``
    of the far corners.  Pixel centers cover the square [-1, 1]^2, row 0 at
    the top (y = +1), and corners clamp to the edge."""
    rows, cols = shape
    cx = np.clip((points[..., 0] + 1.0) * cols / 2.0 - 0.5, 0.0, cols - 1.0)
    cy = np.clip((1.0 - points[..., 1]) * rows / 2.0 - 0.5, 0.0, rows - 1.0)
    x0 = np.clip(np.floor(cx).astype(int), 0, cols - 1)
    y0 = np.clip(np.floor(cy).astype(int), 0, rows - 1)
    x1 = np.minimum(x0 + 1, cols - 1)
    y1 = np.minimum(y0 + 1, rows - 1)
    return y0, x0, y1, x1, cx - x0, cy - y0


def _sample_image(image: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Bilinear image lookup at plane points; clamp-to-edge inside [-1, 1]^2,
    zero beyond the square."""
    y0, x0, y1, x1, fx, fy = _bilinear_corners(image.shape, points)
    inside = (np.abs(points[..., 0]) <= 1.0) & (np.abs(points[..., 1]) <= 1.0)
    out = (
        image[y0, x0] * (1 - fx) * (1 - fy)
        + image[y0, x1] * fx * (1 - fy)
        + image[y1, x0] * (1 - fx) * fy
        + image[y1, x1] * fx * fy
    )
    return np.where(inside, out, 0.0)


@lru_cache(maxsize=8)
def _lift_stencil(shape: tuple[int, int], resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """``_bilinear_corners`` at a grid's upper-hemisphere points, memoized per
    (image shape, resolution) and read-only; 33 KB at resolution 16.

    ``corners`` (4, upper, 2B) holds the flat pixel indices of the corners
    (y0, x0), (y0, x1), (y1, x0), (y1, x1) and ``weights`` (4, upper, 2B)
    holds fx, fy, 1 - fx, 1 - fy, where the first ``upper`` theta rows of the
    grid are the hemisphere theta <= pi/2.  Every such point lies in the
    unit disk, so inside the square."""
    grid = sphere_grid(resolution)
    upper = int(np.count_nonzero(grid.thetas <= np.pi / 2.0))  # a prefix: thetas ascend
    points = grid.unit_vectors()[:upper, :, :2]  # sin(theta) (cos(phi), sin(phi))
    y0, x0, y1, x1, fx, fy = _bilinear_corners(shape, points)
    cols = shape[1]
    corners = np.stack([y0 * cols + x0, y0 * cols + x1, y1 * cols + x0, y1 * cols + x1])
    weights = np.stack([fx, fy, 1 - fx, 1 - fy])
    corners.setflags(write=False)  # cached and shared by the whole process
    weights.setflags(write=False)
    return corners, weights


def lift_image(image: np.ndarray, resolution: int) -> SphereFunction:
    """Map a disk image to the upper hemisphere: r = sin(theta), phi preserved.

    The pixels are read through ``_lift_stencil``, in ``_sample_image``'s
    order of terms and factors, so the values are its values.  A bool or
    non-integer resolution, or one below 2, and a NaN or infinite pixel
    anywhere in the image are DomainErrors."""
    image = np.asarray(image, dtype=float)
    check_resolution(resolution, 2)  # before any memo
    grid = sphere_grid(resolution)
    if image.ndim != 2 or image.size == 0:
        raise EmptyImageError("image must be a nonempty 2-d grayscale array")
    if not np.isfinite(image).all():
        raise DomainError("image has a non-finite pixel")
    corners, (fx, fy, gx, gy) = _lift_stencil(image.shape, grid.resolution)
    v00, v01, v10, v11 = np.take(image, corners)
    upper = corners.shape[1]
    vals = np.zeros(grid.shape)  # the lower hemisphere stays zero
    vals[:upper] = v00 * gx * gy + v01 * fx * gy + v10 * gx * fy + v11 * fx * fy
    if np.max(np.abs(vals[:upper])) == 0.0:
        raise EmptyImageError("image content inside the unit disk is empty")
    return SphereFunction(grid, vals)


def canvas_points(rows: int, cols: int) -> np.ndarray:
    """Pixel-center plane coordinates on [-1, 1]^2, row 0 at the top."""
    ys, xs = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    px = (xs + 0.5) * 2.0 / cols - 1.0
    py = 1.0 - (ys + 0.5) * 2.0 / rows
    return np.stack([px, py], axis=-1)


def apply_planar_motion(image: np.ndarray, motion: PlanarMotion) -> np.ndarray:
    """Pullback warp: output(p) = image(motion(p)), bilinearly interpolated."""
    image = np.asarray(image, dtype=float)
    return _sample_image(image, motion.apply(canvas_points(*image.shape)))


# ---------------------------------------------------------------------------
# Synthetic glyph set (procedurally drawn strokes)
# ---------------------------------------------------------------------------


def _segment_stroke(canvas_pts: np.ndarray, a, b, width: float) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = float(ab @ ab) or 1.0
    t = np.clip(((canvas_pts - a) @ ab) / denom, 0.0, 1.0)
    closest = a + t[..., None] * ab
    d = np.linalg.norm(canvas_pts - closest, axis=-1)
    return np.exp(-((d / width) ** 2))


def _arc_stroke(canvas_pts: np.ndarray, center, radius, ang0, ang1, width: float) -> np.ndarray:
    rel = canvas_pts - np.asarray(center, dtype=float)
    ang = np.mod(np.arctan2(rel[..., 1], rel[..., 0]) - ang0, 2 * np.pi)
    span = np.mod(ang1 - ang0, 2 * np.pi)
    d = np.abs(np.linalg.norm(rel, axis=-1) - radius)
    return np.where(ang <= span, np.exp(-((d / width) ** 2)), 0.0)


def _blob(canvas_pts: np.ndarray, center, width: float) -> np.ndarray:
    d = np.linalg.norm(canvas_pts - np.asarray(center, dtype=float), axis=-1)
    return np.exp(-((d / width) ** 2))


def synthetic_glyphs(size: int = 64) -> dict[str, np.ndarray]:
    """Five procedurally drawn glyphs on [-1, 1]^2, values in [0, 1].

    Strokes have Gaussian cross-sections so the band-limited sphere lift
    retains them faithfully; shapes were chosen for mutual separation of
    their invariant descriptors at desk scale.
    """
    pts = canvas_points(size, size)
    w = 0.12
    glyphs = {
        "bar": _segment_stroke(pts, (-0.02, -0.5), (0.02, 0.5), w),
        "cross": np.maximum(
            _segment_stroke(pts, (-0.4, -0.4), (0.4, 0.4), w),
            _segment_stroke(pts, (-0.4, 0.4), (0.4, -0.4), w),
        ),
        "hook": np.maximum(
            _segment_stroke(pts, (-0.3, 0.4), (-0.3, -0.3), w),
            _segment_stroke(pts, (-0.3, -0.3), (0.35, -0.3), w),
        ),
        "ring": _arc_stroke(pts, (0.0, 0.0), 0.42, -2.6, 2.3, w),
        "spot": _blob(pts, (0.1, 0.05), 0.38),
    }
    return {k: np.clip(v, 0.0, 1.0) for k, v in glyphs.items()}


# ---------------------------------------------------------------------------
# Index and matching
# ---------------------------------------------------------------------------


def beta_count(bandlimit: int) -> int:
    """Values in ``lift_beta`` at a bandlimit L, one per (p, q, a) with
    p <= q <= L and q - p <= a <= min(p + q, L): (2 L^3 + 9 L^2 + 14 L + 8) // 8."""
    return (2 * bandlimit**3 + 9 * bandlimit**2 + 14 * bandlimit + 8) // 8


def lift_beta(desc: BispectrumDescriptor) -> np.ndarray:
    """beta(p, q, a) of a lifted descriptor in ``lift_terms`` slot order: a
    built lift's ``desc.beta`` as held, read-only; for a descriptor given as
    entries, B(p, q)'s one stored row at its column (a, M = 0), zero for a
    degree that keeps no row.

    Raises TagMismatchError for an SU2 descriptor.  For one given as entries,
    raises DomainError if a degree keeps a row other than its lift row, a
    pair p <= q is missing or the rows hold more than 1e-10 of beta's norm
    off its columns."""
    if desc.tag != SO3:
        raise TagMismatchError("only SO3 descriptors can be sphere lifts")
    if desc.beta is not None:
        return desc.beta
    if desc.in_real_basis:
        raise DomainError("a real-basis descriptor is not a sphere lift's")
    for ell, r in enumerate(desc.kept_rows):
        if len(r) and r.tolist() != [ell]:
            raise DomainError(f"degree {ell} keeps rows {r.tolist()}, off its lift row {ell}; not a sphere lift")
    L = desc.bandlimit
    if len(desc.entries) != (L + 1) * (L + 2) // 2:
        raise DomainError("descriptor lacks a pair p <= q; not a whole sphere lift")
    stored = [desc.entries[(p, q)] for p in range(L + 1) for q in range(p, L + 1)]
    row = np.concatenate([m[0] if len(m) else np.zeros(m.shape[1], dtype=complex) for m in stored])
    at = lift_terms(L).position
    beta = row[at]
    row[at] = 0.0  # what is left lies off the beta columns
    if np.linalg.norm(row) > 1e-10 * np.linalg.norm(beta):
        raise DomainError("a stored row has values off its beta columns; not a sphere lift")
    return beta


@dataclass(frozen=True, eq=False)
class GlyphIndex:
    """Labelled glyphs lifted at one resolution; never empty (EmptyIndexError),
    and no label names two glyphs, no value is non-finite and the resolution
    is one ``lift_image`` accepts (DomainError).

    Row i of ``beta`` is the unweighted ``lift_beta`` of ``labels[i]``'s
    descriptor.  A numpy integer resolution is kept as the int."""

    bandlimit: int
    resolution: int
    labels: tuple[str, ...]
    beta: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_resolution(self.resolution, 2)
        labels = tuple(self.labels)
        if not labels:
            raise EmptyIndexError("a glyph index holds at least one glyph")
        if len(set(labels)) < len(labels):
            repeat = next(label for i, label in enumerate(labels) if label in labels[:i])
            raise DomainError(f"label {repeat!r} names more than one glyph")
        beta = np.array(self.beta, dtype=complex)
        want = (len(labels), beta_count(self.bandlimit))
        if beta.shape != want:
            raise DomainError(
                f"{want[0]} glyphs at bandlimit {self.bandlimit} need beta of shape {want}, found {beta.shape}"
            )
        bad = ~np.isfinite(beta).all(axis=1)
        if bad.any():
            raise DomainError(f"glyph {labels[int(np.argmax(bad))]!r} has a non-finite descriptor value")
        beta.setflags(write=False)
        object.__setattr__(self, "resolution", int(self.resolution))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "beta", beta)


def glyph_descriptor(image: np.ndarray, resolution: int, bandlimit: int) -> BispectrumDescriptor:
    return build_descriptor(sphere_lift(lift_image(image, resolution), bandlimit))


def build_glyph_index(
    images: dict[str, np.ndarray], resolution: int, bandlimit: int
) -> GlyphIndex:
    """Index the images under their labels in sorted order; EmptyIndexError if there are none."""
    labels = sorted(images)
    beta = np.zeros((len(labels), beta_count(bandlimit)), dtype=complex)
    for i, label in enumerate(labels):
        beta[i] = lift_beta(glyph_descriptor(images[label], resolution, bandlimit))
    return GlyphIndex(bandlimit, resolution, tuple(labels), beta)


@lru_cache(maxsize=8)
def _match_weights(bandlimit: int) -> np.ndarray:
    """sqrt((2 - delta_pq) d_p d_q) at each ``lift_beta`` slot, memoized per bandlimit and read-only."""
    L = bandlimit
    p, q = np.triu_indices(L + 1)  # beta(p, q, a) for q - p <= a <= min(p + q, L)
    weights = np.repeat(np.sqrt((2 - (p == q)) * (2 * p + 1) * (2 * q + 1)), np.minimum(p + q, L) - (q - p) + 1)
    weights.setflags(write=False)  # cached and shared by the whole process
    return weights


def match(query: BispectrumDescriptor, index: GlyphIndex) -> list[tuple[str, float]]:
    """Labels ranked by descriptor distance, ties broken by label order.

    The query must be a finite sphere lift (DomainError otherwise): its distance
    to each glyph is the norm of the difference of their beta, each weighted
    by sqrt((2 - delta_pq) d_p d_q), which is ``descriptor_distance``."""
    L = index.bandlimit
    if query.bandlimit != L:
        raise DomainError("query bandlimit does not match the index")
    query_beta = lift_beta(query)
    if not np.isfinite(query_beta).all():
        raise DomainError("query has a non-finite descriptor value")
    distances = np.linalg.norm((index.beta - query_beta) * _match_weights(L), axis=1).tolist()
    return sorted(zip(index.labels, distances), key=lambda pair: (pair[1], pair[0]))
