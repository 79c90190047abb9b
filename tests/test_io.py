import gc
import json
from pathlib import Path

import numpy as np
import pytest

from bispect.errors import FormatError, VersionError
from bispect.groups import SO3, SU2, haar_quadrature
from bispect.harmonic import CoefficientSet, SampledFunction, fourier_inverse, random_bandlimited
from bispect.bispectrum import build_descriptor
from bispect.clebsch import clebsch_gordan, in_band, lift_terms
from bispect.glyphs import GlyphIndex, build_glyph_index, synthetic_glyphs
from bispect.reconstruct import reconstruct_so3, reconstruct_su2
from bispect.sphere import random_sphere_function, sphere_grid
from bispect import io as bio

_DATA = Path(__file__).parent / "data"


def _close(a, b):
    """Same shape and within 1e-14 relative: an A(p, q) rebuilt from a file's A by way of the stored B."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(a)


def test_coefficients_round_trip(tmp_path):
    for tag in (SU2, SO3):
        coeffs = random_bandlimited(3, tag, require_real=True, seed=1)
        path = str(tmp_path / f"c_{tag}.json")
        bio.save_coefficients(coeffs, path)
        back = bio.load_coefficients(path)
        assert back.tag == tag and back.bandlimit == 3
        for ell in range(4):
            assert np.array_equal(coeffs[ell], back[ell])  # bit-identical


def test_descriptor_round_trip(tmp_path):
    coeffs = random_bandlimited(2, SO3, require_real=True, seed=2)
    desc = build_descriptor(coeffs)
    path = str(tmp_path / "d.json")
    bio.save_descriptor(desc, path)
    back = bio.load_descriptor(path)
    assert back.pairs() == desc.pairs()
    assert sorted(back.entries) == sorted(desc.entries) == [(p, q) for p in range(3) for q in range(p, 3)]
    assert back.det_f1 == desc.det_f1
    # a real SO3 set is built in the real basis; its file holds the standard A, which loads as such
    assert desc.in_real_basis and not back.in_real_basis
    for pq in desc.pairs():
        assert _close(desc[pq], back[pq])


def test_generic_descriptor_loads_with_every_row_as_decoded(tmp_path):
    desc = build_descriptor(random_bandlimited(6, SU2, require_real=True, seed=2))
    path = str(tmp_path / "d.json")
    bio.save_descriptor(desc, path)
    back = bio.load_descriptor(path)
    assert all(np.array_equal(r, np.arange(ell + 1)) for ell, r in enumerate(back.kept_rows))
    with open(path) as fh:
        items = json.load(fh)["entries"]
    assert len(items) == 49
    for item in items:
        p, q = item["p"], item["q"]
        decoded = np.array(item["matrix"], dtype=float).view(complex)[..., 0]
        assert decoded.tobytes() == desc[(p, q)].tobytes()  # the file holds the dense A(p, q)
        assert _close(decoded, back[(p, q)])
        if p <= q:  # stored as B(p, q) = A(p, q) C on the in-band columns, every row
            band = in_band(SU2, p, q, 6)
            assert back.entries[(p, q)].shape == ((p + 1) * (q + 1), band.stop - band.start)
            assert _close(back.entries[(p, q)], (decoded @ clebsch_gordan(SU2, p, q).C)[:, band])
        else:
            assert (p, q) not in back.entries


def test_descriptor_bandlimit_zero_single_entry(tmp_path):
    coeffs = random_bandlimited(0, SU2, require_real=True, seed=3)
    path = str(tmp_path / "d0.json")
    bio.save_descriptor(build_descriptor(coeffs), path)
    doc = json.load(open(path))
    assert len(doc["entries"]) == 1
    assert doc["entries"][0]["p"] == 0 and doc["entries"][0]["q"] == 0


def test_sphere_round_trip(tmp_path):
    s = random_sphere_function(6, 4, seed=4)
    path = str(tmp_path / "s.json")
    bio.save_sphere(s, path)
    back = bio.load_sphere(path)
    assert back.resolution == 6
    assert np.array_equal(s.values, back.values)


def test_samples_round_trip(tmp_path):
    rule = haar_quadrature(3, SU2)
    f = fourier_inverse(random_bandlimited(1, SU2, seed=5), rule)
    path = str(tmp_path / "f.json")
    bio.save_samples(f, path)
    back = bio.load_samples(path)
    assert back.rule.bandlimit == 3 and back.tag == SU2
    assert np.array_equal(f.values, back.values)


def test_glyph_index_round_trip(tmp_path):
    index = build_glyph_index(synthetic_glyphs(32), 8, 3)
    path = str(tmp_path / "idx.json")
    bio.save_glyph_index(index, path)
    doc = json.load(open(path))
    assert doc["format_version"] == 3
    assert all(set(g) == {"label", "source", "beta"} for g in doc["glyphs"])  # beta only
    assert all(len(g["beta"]) == 23 for g in doc["glyphs"])
    assert all(g["source"] == {"resolution": 8} for g in doc["glyphs"])
    back = bio.load_glyph_index(path)
    assert (back.bandlimit, back.resolution, back.labels) == (3, 8, index.labels)
    assert _same_bits(back.beta, index.beta)
    resaved = str(tmp_path / "idx2.json")
    bio.save_glyph_index(back, resaved)
    assert _same_bits(bio.load_glyph_index(resaved).beta, back.beta)
    # earlier writers left each glyph's det F(1), always 0.0 for a lift, and its
    # image shape in the source: both are ignored
    for g in doc["glyphs"]:
        g["det_f1"] = 0.0
        g["source"]["pixels"] = [32, 32]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    back = bio.load_glyph_index(path)
    assert (back.resolution, back.labels) == (8, index.labels)
    assert _same_bits(back.beta, index.beta)


def test_empty_glyph_index_does_not_load(tmp_path):
    path = str(tmp_path / "idx.json")
    _save_glyph_index(path)
    doc = json.load(open(path))
    doc["glyphs"] = []
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(FormatError, match="'glyphs' must hold at least one glyph"):
        bio.load_glyph_index(path)


def test_glyph_index_rows_are_checked(tmp_path):
    path = str(tmp_path / "idx.json")
    bio.save_glyph_index(build_glyph_index(synthetic_glyphs(32), 8, 1), path)
    doc = json.load(open(path))
    for beta, want in ((doc["glyphs"][0]["beta"][:-1], "needs 4 beta values"), ([["x", 0.0]] * 4, "not numeric")):
        doc["glyphs"][1]["beta"] = beta
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(FormatError, match=rf"{want}.*glyphs\[1\]\.beta"):
            bio.load_glyph_index(path)


def test_only_glyph_indexes_are_at_version_2(tmp_path):
    path = str(tmp_path / "idx.json")
    bio.save_glyph_index(build_glyph_index(synthetic_glyphs(32), 8, 1), path)
    doc = json.load(open(path))
    for version in (1, 2, 4):  # versions 1 and 2 stored dense descriptors and lift rows, and no longer load
        doc["format_version"] = version
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(VersionError, match=f"unsupported format_version {version}; rebuild .* 'bispect index'"):
            bio.load_glyph_index(path)
    _save_descriptor(path)
    doc = json.load(open(path))
    assert doc["format_version"] == 1
    doc["format_version"] = 2
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(VersionError):
        bio.load_descriptor(path)


def test_version_mismatch(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"format_version": 99, "kind": "coefficients"}, fh)
    with pytest.raises(VersionError):
        bio.load_coefficients(path)


@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "1.0"])
def test_version_must_be_a_json_integer(tmp_path, version):
    # both compare equal to 1, so a membership test alone would load them as version 1
    path = str(tmp_path / "c.json")
    _save_coefficients(path)
    doc = json.load(open(path))
    doc["format_version"] = version
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(VersionError, match="unsupported format_version"):
        bio.load_coefficients(path)


def test_wrong_kind(tmp_path):
    coeffs = random_bandlimited(1, SU2, seed=6)
    path = str(tmp_path / "c.json")
    bio.save_coefficients(coeffs, path)
    with pytest.raises(FormatError):
        bio.load_descriptor(path)


def test_malformed_json_reports_position(tmp_path):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as fh:
        fh.write('{"format_version": 1,\n  "kind": ???}\n')
    with pytest.raises(FormatError) as err:
        bio.load_coefficients(path)
    assert ":2:" in str(err.value)  # line number surfaces in the message


def test_missing_field_reports_name(tmp_path):
    path = str(tmp_path / "missing.json")
    with open(path, "w") as fh:
        json.dump({"format_version": 1, "kind": "coefficients", "group": "SU2"}, fh)
    with pytest.raises(FormatError) as err:
        bio.load_coefficients(path)
    assert "bandlimit" in str(err.value)


def test_pgm_round_trip(tmp_path):
    img = synthetic_glyphs(32)["cross"]
    path = str(tmp_path / "g.pgm")
    bio.write_pgm(img, path)
    back = bio.read_pgm(path)
    assert back.shape == img.shape
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12  # quantization only


def test_pgm_comment_header(tmp_path):
    path = str(tmp_path / "c.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    img = bio.read_pgm(path)
    assert img.shape == (2, 2)
    assert abs(img[0, 1] - 128 / 255) < 1e-12


def test_pgm_rejects_ascii_and_bad_maxval(tmp_path):
    p2 = str(tmp_path / "a.pgm")
    with open(p2, "wb") as fh:
        fh.write(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(FormatError):
        bio.read_pgm(p2)
    p16 = str(tmp_path / "b.pgm")
    with open(p16, "wb") as fh:
        fh.write(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(FormatError):
        bio.read_pgm(p16)


def test_pgm_truncated(tmp_path):
    path = str(tmp_path / "t.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(FormatError):
        bio.read_pgm(path)


# -- layout compatibility and exactness --------------------------------------


def _legacy_pairs(a):
    """The per-element encoding of earlier versions: [re, im] Python floats."""
    a = np.asarray(a)
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [_legacy_pairs(row) for row in a]


def _rewrite_indented(path):
    """Rewrite a file in the indented layout of earlier versions."""
    with open(path) as fh:
        doc = json.load(fh)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_indented_layout_loads_bit_identically(tmp_path):
    coeffs = random_bandlimited(2, SO3, require_real=True, seed=11)
    desc = build_descriptor(coeffs)
    sphere = random_sphere_function(6, 4, seed=12)
    samples = fourier_inverse(random_bandlimited(1, SU2, seed=13), haar_quadrature(3, SU2))
    index = build_glyph_index(synthetic_glyphs(32), 8, 2)

    cases = [
        (bio.save_coefficients, bio.load_coefficients, coeffs,
         lambda c: list(c.matrices), lambda d: d["matrices"]),
        (bio.save_descriptor, bio.load_descriptor, desc,
         lambda x: [x[pq] for pq in x.pairs()], lambda d: [e["matrix"] for e in d["entries"]]),
        (bio.save_sphere, bio.load_sphere, sphere, lambda s: [s.values], lambda d: [d["values"]]),
        (bio.save_samples, bio.load_samples, samples, lambda f: [f.values], lambda d: [d["values"]]),
        (bio.save_glyph_index, bio.load_glyph_index, index,
         lambda ix: list(ix.beta), lambda d: [g["beta"] for g in d["glyphs"]]),
    ]
    for i, (save, load, obj, arrays, doc_arrays) in enumerate(cases):
        compact, indented = str(tmp_path / f"c{i}.json"), str(tmp_path / f"i{i}.json")
        save(obj, compact)
        save(obj, indented)
        text = open(compact).read()
        assert text.count("\n") == 1 and text.endswith("\n")  # compact one-line JSON
        doc = _rewrite_indented(indented)
        assert doc == json.load(open(compact))  # same JSON values in both layouts
        assert doc_arrays(doc) == [_legacy_pairs(a) for a in arrays(obj)]
        # a descriptor file holds A exactly; loading stores B = A C, so A comes back within 1e-14
        same = _close if load is bio.load_descriptor else _same_bits
        for path in (compact, indented):
            for want, got in zip(arrays(obj), arrays(load(path)), strict=True):
                assert same(want, got)
        assert all(_same_bits(a, b) for a, b in zip(arrays(load(compact)), arrays(load(indented)), strict=True))


def test_round_trip_exact_for_extreme_floats(tmp_path):
    tiny = np.nextafter(0.0, 1.0)  # smallest subnormal
    values = [-0.0, tiny, -tiny, 2.2250738585072014e-308 / 3, 1e308, -1e308, np.finfo(float).max, np.inf, 0.1]
    z = np.empty(len(values), dtype=complex)
    z.real, z.imag = values, values[::-1]
    m1 = z[:4].reshape(2, 2)
    coeffs = CoefficientSet(SU2, 1, (np.array([[complex(-0.0, tiny)]]), m1))
    path = str(tmp_path / "c.json")
    bio.save_coefficients(coeffs, path)
    back = bio.load_coefficients(path)
    for want, got in zip(coeffs.matrices, back.matrices):
        assert _same_bits(want, got)
    assert np.signbit(back[0][0, 0].real)  # -0.0 keeps its sign
    rule = haar_quadrature(1, SU2)
    vals = np.resize(z, rule.size)
    f = SampledFunction(SU2, rule, vals)
    path = str(tmp_path / "f.json")
    bio.save_samples(f, path)
    assert _same_bits(f.values, bio.load_samples(path).values)


def test_json_default_rejects_other_types(tmp_path):
    with pytest.raises(TypeError):
        bio._json_default(object())
    with pytest.raises(TypeError):
        bio._json_default(np.zeros(3))  # real arrays are not silently written
    path = tmp_path / "x.json"
    with pytest.raises(TypeError):
        bio._dump_json({"values": np.zeros(2, dtype=complex), "stray": object()}, str(path))
    assert not path.exists()  # nothing written, not even a partial file
    with pytest.raises(TypeError):
        bio._dump_json({"n": np.int64(8)}, str(path))
    assert not path.exists()


def test_collector_state_restored(tmp_path):
    coeffs = random_bandlimited(1, SU2, seed=14)
    path = str(tmp_path / "c.json")
    assert gc.isenabled()
    bio.save_coefficients(coeffs, path)
    bio.load_coefficients(path)
    assert gc.isenabled()
    with pytest.raises(TypeError):
        bio._dump_json({"stray": object()}, path)
    assert gc.isenabled()
    gc.disable()
    try:
        bio.save_coefficients(coeffs, path)
        bio.load_coefficients(path)
        assert not gc.isenabled()
    finally:
        gc.enable()


# -- malformed descriptors and indexes ---------------------------------------


def _descriptor_file(tmp_path, edit):
    """An SO3 L=1 descriptor file (pairs (0,0), (0,1), (1,0), (1,1)) after `edit`."""
    coeffs = random_bandlimited(1, SO3, require_real=True, require_nonsingular=True, seed=15)
    path = str(tmp_path / "d.json")
    bio.save_descriptor(build_descriptor(coeffs), path)
    doc = json.load(open(path))
    edit(doc["entries"])
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


@pytest.mark.parametrize("key, value", [("p", 2), ("q", -1)])
def test_descriptor_pair_out_of_range(tmp_path, key, value):
    path = _descriptor_file(tmp_path, lambda entries: entries[1].update({key: value}))
    with pytest.raises(FormatError, match=r"entries\[1\]") as err:
        bio.load_descriptor(path)
    assert "outside 0..1" in str(err.value)


def test_descriptor_duplicate_pair(tmp_path):
    path = _descriptor_file(tmp_path, lambda entries: entries.append(dict(entries[2])))
    with pytest.raises(FormatError, match=r"entries\[4\]") as err:
        bio.load_descriptor(path)
    assert "(1, 0) appears twice" in str(err.value)


def test_descriptor_missing_pair(tmp_path):
    path = _descriptor_file(tmp_path, lambda entries: entries.pop(2))
    with pytest.raises(FormatError, match=r"\(1, 0\)"):
        bio.load_descriptor(path)


@pytest.mark.parametrize("i, side, want", [(0, 2, 1), (3, 3, 9)])
def test_descriptor_matrix_shape(tmp_path, i, side, want):
    square = [[[0.0, 0.0]] * side] * side
    path = _descriptor_file(tmp_path, lambda entries: entries[i].update({"matrix": square}))
    with pytest.raises(FormatError, match=rf"entries\[{i}\]\.matrix") as err:
        bio.load_descriptor(path)
    assert f"{want}x{want}" in str(err.value)


def _tampered_descriptor_file(tmp_path, tag, pq, edit):
    """An L=2 descriptor file whose dense A(p, q) is replaced by edit(A(p, q))."""
    path = str(tmp_path / "d.json")
    bio.save_descriptor(build_descriptor(random_bandlimited(2, tag, require_real=True, seed=16)), path)
    doc = json.load(open(path))
    item = next(e for e in doc["entries"] if (e["p"], e["q"]) == pq)
    a = np.array(item["matrix"], dtype=float).view(complex)[..., 0]
    item["matrix"] = np.stack([edit(a).real, edit(a).imag], -1).tolist()
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_descriptor_whose_swapped_entries_disagree_does_not_load(tmp_path, tag):
    # reconstruction reads B(1, 2) only, so a tampered A(2, 1) would otherwise go unseen
    path = _tampered_descriptor_file(tmp_path, tag, (2, 1), lambda a: a * (1 + 1e-8))
    with pytest.raises(FormatError, match=r"A\(2, 1\) is not the swap of A\(1, 2\)"):
        bio.load_descriptor(path)
    # a change within 1e-10 of the entry's norm is rounding, and loads
    bio.load_descriptor(_tampered_descriptor_file(tmp_path, tag, (2, 1), lambda a: a * (1 + 1e-12)))


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_descriptor_with_weight_above_the_bandlimit_does_not_load(tmp_path, tag):
    # A(2, 2) plus a component on the columns of degree 4 > L, which the stored form drops
    top = clebsch_gordan(tag, 2, 2).block(4)
    u = np.random.default_rng(17).standard_normal((top.shape[0], top.shape[1]))

    def out_of_band(scale):
        return lambda a: a + scale * np.linalg.norm(a) * (u @ top.T) / np.linalg.norm(u)

    path = _tampered_descriptor_file(tmp_path, tag, (2, 2), out_of_band(1e-8))
    with pytest.raises(FormatError, match=r"A\(2, 2\) has weight on degrees above the bandlimit 2"):
        bio.load_descriptor(path)
    bio.load_descriptor(_tampered_descriptor_file(tmp_path, tag, (2, 2), out_of_band(1e-12)))


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_version_1_descriptor_files_of_the_dense_format_load_and_reconstruct(tag):
    # files written before descriptors stored B = A C: a coefficient set and its dense A(p, q)
    name = tag.lower()
    coeffs = bio.load_coefficients(str(_DATA / f"v1_{name}_l2_coefficients.json"))
    path = str(_DATA / f"v1_{name}_l2_descriptor.json")
    desc = bio.load_descriptor(path)
    items = json.load(open(path))["entries"]
    assert len(items) == 9 and desc.pairs() == sorted((e["p"], e["q"]) for e in items)
    for item in items:
        assert _close(np.array(item["matrix"], dtype=float).view(complex)[..., 0], desc[(item["p"], item["q"])])
    report = (reconstruct_su2 if tag == SU2 else reconstruct_so3)(desc, ground_truth=coeffs)
    assert report.witness.max_residual < 1e-7  # the reconstruct suites' alignment bound


def test_descriptor_negative_bandlimit(tmp_path):
    path = str(tmp_path / "d.json")
    with open(path, "w") as fh:
        json.dump({"format_version": 1, "kind": "bispectrum_descriptor", "group": "SU2", "bandlimit": -1,
                   "entries": []}, fh)
    with pytest.raises(FormatError, match="nonnegative"):
        bio.load_descriptor(path)


def test_glyph_index_rejects_non_object_glyph(tmp_path):
    path = str(tmp_path / "idx.json")
    _save_glyph_index(path)
    doc = json.load(open(path))
    doc["glyphs"][1] = 5
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(FormatError, match=r"glyph must be an object.*glyphs\[1\]"):
        bio.load_glyph_index(path)


def _save_coefficients(path):
    bio.save_coefficients(random_bandlimited(1, SO3, seed=1), path)


def _save_descriptor(path):
    bio.save_descriptor(build_descriptor(random_bandlimited(1, SO3, require_real=True, seed=2)), path)


def _save_sphere(path):
    bio.save_sphere(random_sphere_function(6, 2, seed=3), path)


def _save_samples(path):
    bio.save_samples(fourier_inverse(random_bandlimited(1, SU2, seed=4), haar_quadrature(2, SU2)), path)


def _save_glyph_index(path):
    bio.save_glyph_index(build_glyph_index(synthetic_glyphs(32), 8, 1), path)


# (saver, loader, keys leading to the object that holds the field, field)
_INTEGER_FIELDS = {
    "coefficients-bandlimit": (_save_coefficients, bio.load_coefficients, (), "bandlimit"),
    "descriptor-bandlimit": (_save_descriptor, bio.load_descriptor, (), "bandlimit"),
    "descriptor-p": (_save_descriptor, bio.load_descriptor, ("entries", 1), "p"),
    "descriptor-q": (_save_descriptor, bio.load_descriptor, ("entries", 2), "q"),
    "sphere-resolution": (_save_sphere, bio.load_sphere, (), "resolution"),
    "samples-rule_bandlimit": (_save_samples, bio.load_samples, (), "rule_bandlimit"),
    "glyph_index-bandlimit": (_save_glyph_index, bio.load_glyph_index, (), "bandlimit"),
    "glyph_index-resolution": (_save_glyph_index, bio.load_glyph_index, ("glyphs", 0, "source"), "resolution"),
}


@pytest.mark.parametrize("field", sorted(_INTEGER_FIELDS))
@pytest.mark.parametrize("value", ["zero", 2.7, 1.0, True, None])
def test_integer_field_rejects_non_integers(tmp_path, field, value):
    # only JSON integers load: int() would truncate 2.7 and accept true
    save, load, keys, key = _INTEGER_FIELDS[field]
    path = str(tmp_path / "f.json")
    save(path)
    doc = json.load(open(path))
    holder = doc
    for k in keys:
        holder = holder[k]
    holder[key] = value
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(FormatError, match=rf"field '{key}' must be an integer"):
        load(path)


# a tiny file declaring a huge size: bandlimit 2000 has 4,004,001 pairs and
# 2,004,503,501 beta values per glyph, a resolution-2000 grid needs a
# 4000-point Legendre solve, rule bandlimit 40 has 275,684 nodes
_OVERSIZED = {
    "descriptor": (
        bio.load_descriptor,
        {"kind": "bispectrum_descriptor", "group": "SO3", "bandlimit": 2000, "entries": []},
        r"missing entry for pair \(0, 0\) \(4004001 missing\)",
    ),
    "glyph_index": (
        bio.load_glyph_index,
        {"format_version": 3, "kind": "glyph_index", "bandlimit": 2000,
         "glyphs": [{"label": "a", "source": {"resolution": 8}, "beta": [[0.0, 0.0]]}]},
        r"bandlimit 2000 needs 2004503501 beta values, found shape \(1,\).*glyphs\[0\]\.beta",
    ),
    "sphere": (
        bio.load_sphere,
        {"kind": "sphere_samples", "resolution": 2000, "values": [[[0.0, 0.0]]]},
        r"resolution 2000 needs 4000x4000 values, found shape \(1, 1\).*:values",
    ),
    "samples": (
        bio.load_samples,
        {"kind": "group_samples", "group": "SU2", "rule_bandlimit": 40, "values": [[0.0, 0.0]]},
        r"rule bandlimit 40 needs 275684 values, found 1.*:values",
    ),
}


@pytest.mark.parametrize("kind", sorted(_OVERSIZED))
def test_loader_checks_sizes_before_allocating(tmp_path, kind):
    load, doc, message = _OVERSIZED[kind]
    path = str(tmp_path / "f.json")
    with open(path, "w") as fh:
        json.dump({"format_version": 1, **doc}, fh)
    caches = (haar_quadrature, sphere_grid, clebsch_gordan, lift_terms)
    built = [f.cache_info().misses for f in caches]
    with pytest.raises(FormatError, match=message):
        load(path)
    assert [f.cache_info().misses for f in caches] == built
