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

This module alone knows how the glyph index is laid out.  Each lifted
entry A(p, q) is zero but for row p d_q + q (the one-row identity in
``bispectrum``), the only row a lift's descriptor stores, whether built
or loaded.  ``lift_rows`` concatenates those rows, and a
``GlyphIndex`` keeps one (glyphs, (L + 1)^4) array of ``lift_rows``
beside its labels and the one resolution its images were lifted at,
which a query image must be lifted at too.  A search is
one vectorized Euclidean norm weighted by ``lift_weights``, equal to
``descriptor_distance`` against every glyph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EmptyImageError, EmptyIndexError, TagMismatchError
from .groups import SO3, TWO_PI, GroupElement, from_euler, wrap_angle
from .bispectrum import BispectrumDescriptor, build_descriptor
from .sphere import SphereFunction, sphere_grid, sphere_lift
from .wigner import dim


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


def _sample_image(image: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Bilinear image lookup at plane points; clamp-to-edge inside [-1, 1]^2,
    zero beyond the square."""
    rows, cols = image.shape
    inside = (np.abs(points[..., 0]) <= 1.0) & (np.abs(points[..., 1]) <= 1.0)
    # pixel centers cover the square [-1, 1]^2, row 0 at the top (y = +1)
    cx = np.clip((points[..., 0] + 1.0) * cols / 2.0 - 0.5, 0.0, cols - 1.0)
    cy = np.clip((1.0 - points[..., 1]) * rows / 2.0 - 0.5, 0.0, rows - 1.0)
    x0 = np.clip(np.floor(cx).astype(int), 0, cols - 1)
    y0 = np.clip(np.floor(cy).astype(int), 0, rows - 1)
    x1 = np.minimum(x0 + 1, cols - 1)
    y1 = np.minimum(y0 + 1, rows - 1)
    fx = cx - x0
    fy = cy - y0
    out = (
        image[y0, x0] * (1 - fx) * (1 - fy)
        + image[y0, x1] * fx * (1 - fy)
        + image[y1, x0] * (1 - fx) * fy
        + image[y1, x1] * fx * fy
    )
    return np.where(inside, out, 0.0)


def lift_image(image: np.ndarray, resolution: int) -> SphereFunction:
    """Map a disk image to the upper hemisphere: r = sin(theta), phi preserved."""
    image = np.asarray(image, dtype=float)
    if resolution < 2:
        raise DomainError("resolution must be >= 2")
    if image.ndim != 2 or image.size == 0:
        raise EmptyImageError("image must be a nonempty 2-d grayscale array")
    grid = sphere_grid(resolution)
    vals = _sample_image(image, grid.unit_vectors()[..., :2])  # sin(theta) (cos(phi), sin(phi))
    vals[grid.thetas > np.pi / 2.0, :] = 0.0  # lower hemisphere
    if np.max(np.abs(vals)) == 0.0:
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


def lift_row_count(bandlimit: int) -> int:
    """Values in ``lift_rows`` at a bandlimit: d_p d_q per A(p, q), (L + 1)^4 in all."""
    return (bandlimit + 1) ** 4


def lift_rows(desc: BispectrumDescriptor) -> np.ndarray:
    """The lift rows of a lifted descriptor's entries, concatenated in ``pairs()`` order.

    Row p d_q + q of each A(p, q), ``lift_row_count`` values in all: the one
    row each entry stores when every degree l keeps row l, and zeros for a
    degree that keeps none.  Raises DomainError if a degree keeps any other
    row, TagMismatchError for an SU2 descriptor."""
    if desc.tag != SO3:
        raise TagMismatchError("only SO3 descriptors can be sphere lifts")
    for ell, r in enumerate(desc.kept_rows):
        if len(r) and r.tolist() != [ell]:
            raise DomainError(f"degree {ell} keeps rows {r.tolist()}, off its lift row {ell}; not a sphere lift")
    stored = [desc.entries[pq] for pq in desc.pairs()]
    return np.concatenate([m[0] if len(m) else np.zeros(m.shape[1], dtype=complex) for m in stored])


def lift_weights(bandlimit: int) -> np.ndarray:
    """sqrt(d_p d_q) over each A(p, q)'s row in ``lift_rows`` order.

    lift_weights(L) * lift_rows(d) is a vector whose Euclidean distances
    are ``descriptor_distance``'s, for lifted descriptors of bandlimit L."""
    d = np.array([dim(ell, SO3) for ell in range(bandlimit + 1)])
    sizes = np.outer(d, d).ravel()
    return np.repeat(np.sqrt(sizes), sizes)


@dataclass(frozen=True, eq=False)
class GlyphIndex:
    """Labelled glyphs lifted at one resolution; never empty (EmptyIndexError),
    and no label names two glyphs and no row is non-finite (DomainError).

    Row i of ``rows`` is the unweighted ``lift_rows`` of ``labels[i]``'s
    descriptor."""

    bandlimit: int
    resolution: int
    labels: tuple[str, ...]
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        if not labels:
            raise EmptyIndexError("a glyph index holds at least one glyph")
        if len(set(labels)) < len(labels):
            repeat = next(label for i, label in enumerate(labels) if label in labels[:i])
            raise DomainError(f"label {repeat!r} names more than one glyph")
        rows = np.array(self.rows, dtype=complex)
        want = (len(labels), lift_row_count(self.bandlimit))
        if rows.shape != want:
            raise DomainError(
                f"{want[0]} glyphs at bandlimit {self.bandlimit} need rows of shape {want}, found {rows.shape}"
            )
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            raise DomainError(f"glyph {labels[int(np.argmax(bad))]!r} has a non-finite descriptor value")
        rows.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "rows", rows)


def glyph_descriptor(image: np.ndarray, resolution: int, bandlimit: int) -> BispectrumDescriptor:
    return build_descriptor(sphere_lift(lift_image(image, resolution), bandlimit))


def build_glyph_index(
    images: dict[str, np.ndarray], resolution: int, bandlimit: int
) -> GlyphIndex:
    """Index the images under their labels in sorted order; EmptyIndexError if there are none."""
    labels = sorted(images)
    rows = np.zeros((len(labels), lift_row_count(bandlimit)), dtype=complex)
    for i, label in enumerate(labels):
        rows[i] = lift_rows(glyph_descriptor(images[label], resolution, bandlimit))
    return GlyphIndex(bandlimit, resolution, tuple(labels), rows)


def match(query: BispectrumDescriptor, index: GlyphIndex) -> list[tuple[str, float]]:
    """Labels ranked by descriptor distance, ties broken by label order.

    The query must be a finite sphere lift (DomainError otherwise): its distance
    to each glyph is the weighted norm of the difference of their lift rows."""
    if query.bandlimit != index.bandlimit:
        raise DomainError("query bandlimit does not match the index")
    query_rows = lift_rows(query)
    if query_rows.shape != index.rows.shape[1:]:
        raise DomainError("query carries a different entry set than the index")
    if not np.isfinite(query_rows).all():
        raise DomainError("query has a non-finite descriptor value")
    distances = np.linalg.norm((index.rows - query_rows) * lift_weights(index.bandlimit), axis=1).tolist()
    return sorted(zip(index.labels, distances), key=lambda pair: (pair[1], pair[0]))
