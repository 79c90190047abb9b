import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bispect
from bispect import glyphs as glyphs_module
from bispect.bispectrum import BispectrumDescriptor, build_descriptor, descriptor_distance
from bispect.errors import DomainError, EmptyImageError, EmptyIndexError, PrecisionWarning, TagMismatchError
from bispect.groups import SO3, SU2, distance, identity, to_euler, z_rotation
from bispect.harmonic import CoefficientSet, random_bandlimited
from bispect.glyphs import (
    GlyphIndex,
    _lift_stencil,
    PlanarMotion,
    apply_planar_motion,
    build_glyph_index,
    canvas_points,
    beta_count,
    glyph_descriptor,
    lift_beta,
    lift_image,
    match,
    planar_motion_to_rotation,
    synthetic_glyphs,
)
from bispect.io import load_descriptor, load_glyph_index, save_descriptor, save_glyph_index
from bispect.sphere import SphereFunction, random_sphere_function, rotate_sphere, sphere_grid, sphere_lift


def test_zero_motion_is_identity_rotation():
    assert distance(planar_motion_to_rotation(PlanarMotion(0.0)), identity(SO3)) < 1e-15


def test_pure_rotation_maps_to_z_rotation():
    rot = planar_motion_to_rotation(PlanarMotion(0.8))
    assert distance(rot, z_rotation(0.8)) < 1e-12


def test_pure_translation_inverts_stated_relations():
    theta0 = 0.3
    rot = planar_motion_to_rotation(PlanarMotion(0.0, np.sin(theta0), 0.0))
    ang = to_euler(rot)
    assert abs(ang.beta - theta0) < 1e-12
    assert abs(ang.alpha) < 1e-12


def test_motion_translation_bound():
    with pytest.raises(DomainError):
        PlanarMotion(0.0, 0.9, 0.9)
    # |T| a rounding step past 1 passes the check and maps to the equator
    rot = planar_motion_to_rotation(PlanarMotion(0.3, 1.0 + 5e-13, 0.0))
    assert abs(to_euler(rot).beta - np.pi / 2) < 1e-12


def test_angles_just_below_zero_wrap_to_zero():
    # a plain modulo rounds -1e-17 up to 2*pi, outside from_euler's range
    assert distance(planar_motion_to_rotation(PlanarMotion(-1e-17)), identity(SO3)) < 1e-15
    rot = planar_motion_to_rotation(PlanarMotion(0.3, 0.5, -1e-17))
    assert distance(rot, planar_motion_to_rotation(PlanarMotion(0.3, 0.5, 0.0))) < 1e-15


def test_uniform_disk_lifts_to_upper_hemisphere():
    img = np.ones((64, 64))
    s = lift_image(img, 8)
    upper = s.grid.thetas < np.pi / 2
    assert np.max(np.abs(s.values[upper, :] - 1.0)) < 1e-12
    assert np.max(np.abs(s.values[~upper, :])) == 0.0


def test_centered_dot_concentrates_at_pole():
    pts = canvas_points(64, 64)
    img = np.exp(-(np.linalg.norm(pts, axis=-1) / 0.1) ** 2)
    s = lift_image(img, 16)
    vals = np.abs(s.values)
    polar_mass = vals[s.grid.thetas < 0.3, :].sum()
    rest = vals[s.grid.thetas >= 0.3, :].sum()
    assert polar_mass > 10 * rest


def test_empty_image_errors():
    with pytest.raises(EmptyImageError):
        lift_image(np.zeros((0, 0)), 8)
    with pytest.raises(EmptyImageError):
        lift_image(np.zeros((32, 32)), 8)


def test_motion_then_lift_matches_lift_then_rotate():
    # smooth test pattern; empirical tolerance for the local correspondence
    pts = canvas_points(64, 64)
    img = np.exp(-(np.linalg.norm(pts - np.array([-0.15, 0.1]), axis=-1) / 0.3) ** 2)
    img += 0.7 * np.exp(-(np.linalg.norm(pts - np.array([0.25, -0.1]), axis=-1) / 0.25) ** 2)
    for motion in (PlanarMotion(0.3), PlanarMotion(0.0, 0.05, -0.03), PlanarMotion(0.25, 0.06, 0.04)):
        moved = lift_image(apply_planar_motion(img, motion), 16)
        rotated = rotate_sphere(lift_image(img, 16), planar_motion_to_rotation(motion))
        assert np.max(np.abs(moved.values - rotated.values)) < 5e-2


def test_index_on_a_grid_too_coarse_for_its_bandlimit_warns():
    # a resolution-3 grid is exact only to bandlimit 2, so L = 6 rows are aliased
    with pytest.warns(PrecisionWarning, match="sphere resolution 3 <= bandlimit 6"):
        build_glyph_index(synthetic_glyphs(64), 3, 6)


def test_match_exact_query_is_rank_one_with_zero_distance():
    glyphs = synthetic_glyphs(64)
    index = build_glyph_index(glyphs, 8, 3)
    query = glyph_descriptor(glyphs["cross"], 8, 3)
    ranked = match(query, index)
    assert ranked[0][0] == "cross"
    assert ranked[0][1] < 1e-12
    assert len(ranked) == 5


def test_match_unseen_glyph_reports_distances():
    glyphs = synthetic_glyphs(64)
    index = build_glyph_index({k: v for k, v in glyphs.items() if k != "ring"}, 8, 3)
    ranked = match(glyph_descriptor(glyphs["ring"], 8, 3), index)
    assert len(ranked) == 4
    assert all(d > 0 for _, d in ranked)


def test_match_moved_glyph(rng):
    glyphs = synthetic_glyphs(64)
    index = build_glyph_index(glyphs, 16, 4)
    motion = PlanarMotion(1.1, 0.06, -0.04)
    moved = apply_planar_motion(glyphs["hook"], motion)
    ranked = match(glyph_descriptor(moved, 16, 4), index)
    assert ranked[0][0] == "hook"


def test_match_distances_equal_descriptor_distance():
    glyphs = synthetic_glyphs(64)
    index = build_glyph_index(glyphs, 16, 6)
    assert index.beta.shape == (5, 106)
    assert index.labels == tuple(sorted(glyphs)) and index.resolution == 16
    descs = {lab: glyph_descriptor(img, 16, 6) for lab, img in glyphs.items()}
    motions = [PlanarMotion(0.7, 0.05, -0.02), PlanarMotion(2.9, -0.08, 0.03)]
    for label in ("cross", "ring"):
        for motion in motions:
            query = glyph_descriptor(apply_planar_motion(glyphs[label], motion), 16, 6)
            ranked = match(query, index)
            want = {lab: descriptor_distance(query, desc) for lab, desc in descs.items()}
            assert [lab for lab, _ in ranked] == sorted(want, key=lambda lab: (want[lab], lab))
            for lab, dist in ranked:
                assert abs(dist - want[lab]) <= 1e-13 * want[lab]


def test_match_rejects_a_query_that_is_not_a_lift():
    index = build_glyph_index(synthetic_glyphs(32), 8, 3)
    with pytest.raises(DomainError, match="not a sphere lift"):
        match(build_descriptor(random_bandlimited(3, SO3)), index)
    with pytest.raises(TagMismatchError):
        match(build_descriptor(random_bandlimited(3, SU2)), index)


def test_glyph_index_checks_row_shape():
    index = build_glyph_index(synthetic_glyphs(32), 8, 1)
    for beta in (index.beta[:4], index.beta[:, :-1], np.zeros((5, beta_count(2)))):
        with pytest.raises(DomainError, match=r"5 glyphs at bandlimit 1 need beta of shape \(5, 4\)"):
            GlyphIndex(1, 8, index.labels, beta)


def test_glyph_index_rejects_a_repeated_label():
    # match would rank the label twice
    index = build_glyph_index(synthetic_glyphs(32), 8, 1)
    labels = index.labels[:3] + (index.labels[1],) + index.labels[4:]
    with pytest.raises(DomainError, match=f"label {index.labels[1]!r} names more than one glyph"):
        GlyphIndex(1, 8, labels, index.beta)


@pytest.mark.parametrize("resolution", [16.5, 16.0, True, np.float64(8.0), np.True_, "8", 1, 0])
def test_glyph_index_rejects_a_resolution_lift_image_refuses(resolution):
    # checked at construction, not when the first query is lifted at index.resolution
    index = build_glyph_index(synthetic_glyphs(32), 8, 1)
    with pytest.raises(DomainError, match="resolution must be"):
        GlyphIndex(1, resolution, index.labels, index.beta)
    with pytest.raises(DomainError, match="resolution must be"):
        lift_image(synthetic_glyphs(32)["ring"], resolution)


def test_glyph_index_accepts_a_numpy_integer_resolution(tmp_path):
    index = build_glyph_index(synthetic_glyphs(32), 8, 1)
    same = GlyphIndex(1, np.int64(8), index.labels, index.beta)
    assert type(same.resolution) is int and same.resolution == 8
    query = build_descriptor(sphere_lift(lift_image(synthetic_glyphs(32)["ring"], same.resolution), 1))
    assert match(query, same) == match(query, index)
    # built at a numpy integer resolution, the index saves and loads back
    path = str(tmp_path / "index.json")
    save_glyph_index(build_glyph_index(synthetic_glyphs(32), np.int64(8), 1), path)
    back = load_glyph_index(path)
    assert back.resolution == 8 and np.array_equal(back.beta, index.beta)
    assert match(query, back) == match(query, index)


@pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
def test_non_finite_glyph_values_are_rejected():
    # a NaN or infinite pixel, even outside the disk, is rejected before the image is sampled
    glyphs = synthetic_glyphs(32)
    for pixel in ((16, 16), (0, 0)):
        for value in (np.nan, np.inf):
            bad = glyphs["ring"].copy()
            bad[pixel] = value
            with pytest.raises(DomainError, match="non-finite pixel"):
                build_glyph_index({**glyphs, "ring": bad}, 8, 1)
    # one NaN sphere sample makes every distance NaN, ranked by label alone
    index = build_glyph_index(glyphs, 8, 1)
    sphere = lift_image(glyphs["ring"], 8)
    values = sphere.values.copy()
    values[3, 5] = np.nan
    with pytest.raises(DomainError, match="query has a non-finite descriptor value"):
        match(build_descriptor(sphere_lift(SphereFunction(sphere.grid, values), 1)), index)
    beta = index.beta.copy()
    beta[1, 3] = complex(0.0, np.inf)
    with pytest.raises(DomainError, match=f"glyph {index.labels[1]!r} has a non-finite descriptor value"):
        GlyphIndex(1, 8, index.labels, beta)


def test_empty_index_errors():
    with pytest.raises(EmptyIndexError):
        build_glyph_index({}, 8, 3)
    with pytest.raises(EmptyIndexError):
        GlyphIndex(3, 8, (), np.zeros((0, beta_count(3))))


def test_lift_rows_rejects_other_descriptors():
    with pytest.raises(DomainError, match="off its lift row"):
        lift_beta(build_descriptor(random_bandlimited(3, SO3, seed=41)))
    with pytest.raises(TagMismatchError):
        lift_beta(build_descriptor(random_bandlimited(1, SU2, seed=41)))
    # one off-row value, however small, makes a second live row
    mats = list(sphere_lift(random_sphere_function(6, 3, seed=42), 3).matrices)
    mats[2] = mats[2].copy()
    mats[2][0, 0] = 1e-300
    desc = build_descriptor(CoefficientSet(SO3, 3, tuple(mats)))
    with pytest.raises(DomainError):
        lift_beta(desc)
    # a lift's rows with a value off the beta columns, or with a pair missing, are not a lift's
    lift = build_descriptor(sphere_lift(random_sphere_function(6, 3, seed=42), 3))
    entries = {(p, q): lift.stored(p, q)[[p * (2 * q + 1) + q]] for p, q in lift.entries}  # each its one kept row
    assert np.array_equal(lift_beta(BispectrumDescriptor(SO3, 3, entries, kept_rows=lift.kept_rows)), lift_beta(lift))
    entries[(1, 2)][0, 0] = 1e-3 * np.abs(lift_beta(lift)).max()  # column (3, M = -3)
    with pytest.raises(DomainError, match="off its beta columns"):
        lift_beta(BispectrumDescriptor(SO3, 3, entries, kept_rows=lift.kept_rows))
    del entries[(1, 2)]
    with pytest.raises(DomainError, match="lacks a pair"):
        lift_beta(BispectrumDescriptor(SO3, 3, entries, kept_rows=lift.kept_rows))



def _lift_with_a_zero_degree():
    mats = list(sphere_lift(random_sphere_function(8, 4, seed=43), 4).matrices)
    mats[2] = np.zeros_like(mats[2])
    return CoefficientSet(SO3, 4, tuple(mats))


@pytest.mark.parametrize(
    "make",
    [lambda: sphere_lift(random_sphere_function(8, 4, seed=43), 4), _lift_with_a_zero_degree],
    ids=["lift", "lift-zero-degree"],
)
def test_lift_rows_read_the_same_from_kept_and_dense_entries(make):
    built = build_descriptor(make())
    dense = BispectrumDescriptor(SO3, 4, {pq: built.coupled(*pq) for pq in built.entries})
    assert [r.tolist() for r in dense.kept_rows] == [r.tolist() for r in built.kept_rows]
    assert np.array_equal(lift_beta(built), lift_beta(dense))
    assert lift_beta(built).shape == (beta_count(4),) == (42,)


def test_saved_lift_loads_with_its_lift_rows_and_matches_as_built(tmp_path):
    glyphs = synthetic_glyphs(64)
    index = build_glyph_index(glyphs, 16, 6)
    built = glyph_descriptor(apply_planar_motion(glyphs["hook"], PlanarMotion(0.4, 0.05, 0.02)), 16, 6)
    path = str(tmp_path / "query.json")
    save_descriptor(built, path)
    loaded = load_descriptor(path)
    assert [r.tolist() for r in loaded.kept_rows] == [[ell] for ell in range(7)]
    # the loaded one keeps one in-band row per pair p <= q, the built one its beta alone;
    # the dense entries of the file take 3,312,400 bytes
    assert sum(m.nbytes for m in loaded.entries.values()) == 13_216
    assert sum(m.nbytes for m in built.entries.values()) == built.beta.nbytes == 1_696 and loaded.beta is None
    for pq in built.pairs():
        assert np.linalg.norm(loaded[pq] - built[pq]) <= 1e-14 * np.linalg.norm(built[pq])
    beta = lift_beta(built)
    assert np.linalg.norm(lift_beta(loaded) - beta) <= 1e-14 * np.linalg.norm(beta)
    ranked_loaded, ranked_built = match(loaded, index), match(built, index)
    assert [lab for lab, _ in ranked_loaded] == [lab for lab, _ in ranked_built]
    for (_, a), (_, b) in zip(ranked_loaded, ranked_built):
        assert abs(a - b) <= 1e-13 * b
    # an entry with a value off its lift row keeps a second row of each degree: not a lift
    entries = {pq: loaded.coupled(*pq).copy() for pq in loaded.entries}
    entries[(1, 2)][0, 0] = 1e-300
    with pytest.raises(DomainError, match=r"degree 1 keeps rows \[0, 1\], off its lift row 1"):
        lift_beta(BispectrumDescriptor(SO3, 6, entries))


def test_saved_glyph_index_holds_the_beta_of_the_padded_rows_byte_for_byte(tmp_path):
    # lifts given as their rows, as before they held beta alone, read to the same index file
    glyphs = synthetic_glyphs(32)
    index = build_glyph_index(glyphs, 8, 3)
    padded = {}
    for label, image in glyphs.items():
        built = glyph_descriptor(image, 8, 3)
        entries = {(p, q): built.stored(p, q)[[p * (2 * q + 1) + q]] for p, q in built.entries}
        padded[label] = lift_beta(BispectrumDescriptor(SO3, 3, entries, kept_rows=built.kept_rows))
    labels = sorted(glyphs)
    paths = [str(tmp_path / name) for name in ("built.json", "padded.json")]
    save_glyph_index(index, paths[0])
    save_glyph_index(GlyphIndex(3, 8, tuple(labels), np.stack([padded[label] for label in labels])), paths[1])
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


def test_index_bandlimit_uniformity():
    glyphs = synthetic_glyphs(32)
    index = build_glyph_index(glyphs, 8, 3)
    with pytest.raises(DomainError):
        match(glyph_descriptor(glyphs["bar"], 8, 2), index)


def test_synthetic_glyphs_shapes():
    glyphs = synthetic_glyphs(64)
    assert len(glyphs) == 5
    for img in glyphs.values():
        assert img.shape == (64, 64)
        assert img.min() >= 0.0 and img.max() <= 1.0


def _bilinear_reference(image, points):
    """Bilinear lookup at plane points as one expression: clamp-to-edge inside
    [-1, 1]^2, zero beyond the square, pixel centers covering the square with
    row 0 at the top."""
    rows, cols = image.shape
    inside = (np.abs(points[..., 0]) <= 1.0) & (np.abs(points[..., 1]) <= 1.0)
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


def _reference_lift(image, resolution):
    """The bilinear lookup at every grid point, the lower hemisphere zeroed."""
    grid = sphere_grid(resolution)
    vals = _bilinear_reference(image, grid.unit_vectors()[..., :2])
    vals[grid.thetas > np.pi / 2.0, :] = 0.0
    return np.array(vals, dtype=complex)


def _edge_ink(rows, cols):
    # ink on the square's edge only: the clamped corners of the outermost points read it
    img = np.zeros((rows, cols))
    img[[0, -1], :] = 1.0
    img[:, [0, -1]] = 0.5
    return img


@pytest.mark.parametrize("shape", [(48, 64), (64, 48)])
@pytest.mark.parametrize("resolution", [17, 2])
def test_lift_image_is_the_bilinear_lookup_bit_for_bit(shape, resolution):
    image = np.random.default_rng(resolution).uniform(0.0, 1.0, shape)
    for img in (image, image[::-1], np.asfortranarray(image)):
        assert lift_image(img, resolution).values.tobytes() == _reference_lift(img, resolution).tobytes()


@pytest.mark.parametrize("resolution", [17, 16])
def test_lift_of_ink_on_the_square_edge_is_the_bilinear_lookup_bit_for_bit(resolution):
    for shape in ((48, 64), (64, 48)):
        img = _edge_ink(*shape)
        got = lift_image(img, resolution).values
        assert np.max(np.abs(got)) > 0.0
        assert got.tobytes() == _reference_lift(img, resolution).tobytes()


def test_planar_motion_warps_the_synthetic_glyphs_by_the_bilinear_lookup_bit_for_bit():
    # the benchmark makes its glyph queries with apply_planar_motion
    for k, img in enumerate(synthetic_glyphs(64).values()):
        motion = PlanarMotion(0.4 + k, 0.1 * np.cos(k), -0.1 * np.sin(k))
        want = _bilinear_reference(img, motion.apply(canvas_points(64, 64)))
        assert apply_planar_motion(img, motion).tobytes() == want.tobytes()


def test_lift_stencil_is_memoized_and_read_only():
    corners, weights = stencil = _lift_stencil((48, 64), 17)
    assert _lift_stencil((48, 64), 17) is stencil and _lift_stencil.cache_info().maxsize is not None
    upper = int(np.count_nonzero(sphere_grid(17).thetas <= np.pi / 2.0))
    assert corners.shape == weights.shape == (4, upper, 34)
    for arr in (corners, weights):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1


def test_lift_checks_its_image_when_the_stencil_is_memoized():
    image = synthetic_glyphs(64)["ring"]
    lift_image(image, 16)
    bad = image.copy()
    bad[32, 32] = np.nan
    with pytest.raises(DomainError, match="non-finite pixel"):
        lift_image(bad, 16)
    # ink only well outside the unit disk: the stencil never reads it
    outside = (np.linalg.norm(canvas_points(64, 64), axis=-1) > 1.1).astype(float)
    with pytest.raises(EmptyImageError, match="unit disk is empty"):
        lift_image(outside, 16)


def test_repeated_lifts_at_one_shape_and_resolution_build_the_stencil_once(monkeypatch):
    calls = []
    corners = glyphs_module._bilinear_corners
    monkeypatch.setattr(glyphs_module, "_bilinear_corners", lambda *args: calls.append(args) or corners(*args))
    _lift_stencil.cache_clear()
    image = synthetic_glyphs(40)["hook"]
    first = lift_image(image, 9)
    assert len(calls) == 1
    again = lift_image(image, 9)
    assert len(calls) == 1 and again.values.tobytes() == first.values.tobytes()


@pytest.mark.parametrize("resolution", [16.0, 8.5, True, np.float64(16.0), np.True_])
def test_lift_at_a_resolution_that_is_not_an_integer_is_a_domain_error(resolution):
    image = synthetic_glyphs(32)["ring"]
    lift_image(image, 16)
    misses = _lift_stencil.cache_info().misses
    with pytest.raises(DomainError, match="resolution must be an integer"):
        lift_image(image, resolution)
    assert _lift_stencil.cache_info().misses == misses


def test_lift_at_a_numpy_integer_resolution_is_the_lift_at_the_int():
    image = synthetic_glyphs(32)["ring"]
    got = lift_image(image, np.int64(16))
    assert got.grid is sphere_grid(16)
    assert got.values.tobytes() == lift_image(image, 16).values.tobytes()


_BENCHMARK_GLYPH_OP = """
import sys
import bispect
from bispect.glyphs import PlanarMotion, apply_planar_motion, build_glyph_index, lift_image, match, synthetic_glyphs
from bispect.io import load_glyph_index, save_glyph_index
from bispect.bispectrum import build_descriptor
from bispect.sphere import sphere_lift
glyphs = synthetic_glyphs(64)
save_glyph_index(build_glyph_index(glyphs, 16, 6), sys.argv[1])
index = load_glyph_index(sys.argv[1])
query = apply_planar_motion(glyphs["hook"], PlanarMotion(1.0, 0.05, -0.08))
assert match(build_descriptor(sphere_lift(lift_image(query, 16), 6)), index)[0][0] == "hook"
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_glyph_set_up_and_match_at_the_benchmark_sizes_load_no_scipy(tmp_path):
    # a scipy import on the sphere path once raised a glyph set-up's time and
    # peak memory by several percent; the memos filled on first use add none
    env = dict(os.environ, PYTHONPATH=str(Path(bispect.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", _BENCHMARK_GLYPH_OP, str(tmp_path / "index.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
