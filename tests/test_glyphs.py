import numpy as np
import pytest

from bispect.bispectrum import BispectrumDescriptor, build_descriptor, descriptor_distance
from bispect.errors import DomainError, EmptyImageError, EmptyIndexError, PrecisionWarning, TagMismatchError
from bispect.groups import SO3, SU2, distance, identity, to_euler, z_rotation
from bispect.harmonic import CoefficientSet, random_bandlimited
from bispect.glyphs import (
    GlyphIndex,
    PlanarMotion,
    apply_planar_motion,
    build_glyph_index,
    canvas_points,
    glyph_descriptor,
    lift_image,
    lift_rows,
    match,
    planar_motion_to_rotation,
    synthetic_glyphs,
)
from bispect.io import load_descriptor, save_descriptor
from bispect.sphere import random_sphere_function, rotate_sphere, sphere_lift


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
    assert index.rows.shape == (5, 7**4)
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
    for rows in (index.rows[:4], index.rows[:, :-1], np.zeros((5, 3**4))):
        with pytest.raises(DomainError, match=r"5 glyphs at bandlimit 1 need rows of shape \(5, 16\)"):
            GlyphIndex(1, 8, index.labels, rows)


def test_glyph_index_rejects_a_repeated_label():
    # match would rank the label twice
    index = build_glyph_index(synthetic_glyphs(32), 8, 1)
    labels = index.labels[:3] + (index.labels[1],) + index.labels[4:]
    with pytest.raises(DomainError, match=f"label {index.labels[1]!r} names more than one glyph"):
        GlyphIndex(1, 8, labels, index.rows)


@pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
def test_non_finite_glyph_values_are_rejected():
    # one NaN pixel in the disk makes every distance NaN, ranked by label alone
    glyphs = synthetic_glyphs(32)
    bad = glyphs["ring"].copy()
    bad[16, 16] = np.nan
    with pytest.raises(DomainError, match="glyph 'ring' has a non-finite descriptor value"):
        build_glyph_index({**glyphs, "ring": bad}, 8, 1)
    index = build_glyph_index(glyphs, 8, 1)
    with pytest.raises(DomainError, match="query has a non-finite descriptor value"):
        match(glyph_descriptor(bad, 8, 1), index)
    rows = index.rows.copy()
    rows[1, 3] = complex(0.0, np.inf)
    with pytest.raises(DomainError, match=f"glyph {index.labels[1]!r} has a non-finite descriptor value"):
        GlyphIndex(1, 8, index.labels, rows)


def test_empty_index_errors():
    with pytest.raises(EmptyIndexError):
        build_glyph_index({}, 8, 3)
    with pytest.raises(EmptyIndexError):
        GlyphIndex(3, 8, (), np.zeros((0, 4**4)))


def test_lift_rows_rejects_other_descriptors():
    with pytest.raises(DomainError, match="off its lift row"):
        lift_rows(build_descriptor(random_bandlimited(3, SO3, seed=41)))
    with pytest.raises(TagMismatchError):
        lift_rows(build_descriptor(random_bandlimited(1, SU2, seed=41)))
    # one off-row value, however small, makes a second live row
    mats = list(sphere_lift(random_sphere_function(6, 3, seed=42), 3).matrices)
    mats[2] = mats[2].copy()
    mats[2][0, 0] = 1e-300
    desc = build_descriptor(CoefficientSet(SO3, 3, tuple(mats)))
    with pytest.raises(DomainError):
        lift_rows(desc)



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
    dense = BispectrumDescriptor(SO3, 4, {pq: built[pq] for pq in built.pairs()})
    assert [r.tolist() for r in dense.kept_rows] == [r.tolist() for r in built.kept_rows]
    assert np.array_equal(lift_rows(built), lift_rows(dense))
    assert lift_rows(built).shape == (5**4,)


def test_saved_lift_loads_with_its_lift_rows_and_matches_as_built(tmp_path):
    glyphs = synthetic_glyphs(64)
    index = build_glyph_index(glyphs, 16, 6)
    built = glyph_descriptor(apply_planar_motion(glyphs["hook"], PlanarMotion(0.4, 0.05, 0.02)), 16, 6)
    path = str(tmp_path / "query.json")
    save_descriptor(built, path)
    loaded = load_descriptor(path)
    assert [r.tolist() for r in loaded.kept_rows] == [[ell] for ell in range(7)]
    assert sum(m.nbytes for m in loaded.entries.values()) == 38_416  # the dense entries take 3,312,400
    assert all(np.array_equal(loaded[pq], built[pq]) for pq in built.pairs())
    assert np.array_equal(lift_rows(loaded), lift_rows(built))
    assert match(loaded, index) == match(built, index)
    # a dense entry with a value off its lift row keeps a second row of each degree: not a lift
    entries = {pq: loaded[pq] for pq in loaded.pairs()}
    entries[(2, 1)][0, 0] = 1e-300
    with pytest.raises(DomainError, match=r"degree 1 keeps rows \[0, 1\], off its lift row 1"):
        lift_rows(BispectrumDescriptor(SO3, 6, entries))


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
