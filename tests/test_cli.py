import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bispect.cli import main
from bispect.errors import DomainError
from bispect.groups import SU2, SO3, haar_quadrature
from bispect.harmonic import fourier_inverse, random_bandlimited
from bispect.bispectrum import build_descriptor
from bispect.glyphs import PlanarMotion, apply_planar_motion, glyph_descriptor, match, synthetic_glyphs
import bispect
from bispect import io as bio
from bispect import verify as bverify


@pytest.fixture()
def workdir(tmp_path):
    coeffs = random_bandlimited(3, SU2, require_real=True, require_nonsingular=True, seed=5)
    bio.save_coefficients(coeffs, str(tmp_path / "c.json"))
    f = fourier_inverse(coeffs, haar_quadrature(6, SU2))
    bio.save_samples(f, str(tmp_path / "samples.json"))
    for name, img in synthetic_glyphs(64).items():
        bio.write_pgm(img, str(tmp_path / f"{name}.pgm"))
    return tmp_path


def test_transform_round_trip(workdir):
    out = str(workdir / "c2.json")
    assert main(["transform", str(workdir / "samples.json"), "--bandlimit", "3", "--output", out]) == 0
    a = bio.load_coefficients(str(workdir / "c.json"))
    b = bio.load_coefficients(out)
    assert max(float(np.max(np.abs(a[l] - b[l]))) for l in range(4)) < 1e-10


def test_inverse_writes_samples(workdir):
    out = str(workdir / "s.json")
    assert main(["inverse", str(workdir / "c.json"), "--output", out]) == 0
    back = bio.load_samples(out)
    assert back.rule.bandlimit == 6


def test_inverse_reports_the_rule_it_used(workdir, capsys):
    out = str(workdir / "s.json")
    assert main(["inverse", str(workdir / "c.json"), "--output", out]) == 0
    assert "on the bandlimit-6 rule" in capsys.readouterr().out  # fourier_inverse's default, 2L
    assert main(["inverse", str(workdir / "c.json"), "--rule-bandlimit", "8", "--output", out]) == 0
    assert "on the bandlimit-8 rule" in capsys.readouterr().out
    assert bio.load_samples(out).rule.bandlimit == 8


def test_bispectrum_and_reconstruct(workdir):
    desc_path = str(workdir / "d.json")
    rec_path = str(workdir / "rec.json")
    assert main(["bispectrum", str(workdir / "c.json"), "--output", desc_path]) == 0
    assert main(["reconstruct", desc_path, "--output", rec_path]) == 0
    recovered = bio.load_coefficients(rec_path)
    original = bio.load_coefficients(str(workdir / "c.json"))
    from bispect.bispectrum import descriptor_max_relative_gap

    gap = descriptor_max_relative_gap(build_descriptor(original), build_descriptor(recovered))
    assert gap < 1e-7


def test_reconstruct_so3_det_flag(tmp_path):
    coeffs = random_bandlimited(2, SO3, require_real=True, require_nonsingular=True, seed=9)
    desc = build_descriptor(coeffs)
    path = str(tmp_path / "d.json")
    bio.save_descriptor(desc, path)
    out = str(tmp_path / "rec.json")
    assert main(["reconstruct", path, "--det-f1", str(desc.det_f1), "--output", out]) == 0


def test_lift_and_index_and_match(workdir):
    sphere_path = str(workdir / "sphere.json")
    assert main(["lift", str(workdir / "cross.pgm"), "--resolution", "12", "--output", sphere_path]) == 0
    idx = str(workdir / "idx.json")
    args = ["index"] + [f"{n}={workdir / n}.pgm" for n in ["bar", "cross", "hook", "ring", "spot"]]
    assert main(args + ["--resolution", "12", "--bandlimit", "4", "--output", idx]) == 0
    ranking = str(workdir / "rank.json")
    assert main(["match", "--index", idx, "--query", str(workdir / "cross.pgm"), "--output", ranking]) == 0
    ranked = json.load(open(ranking))
    assert ranked[0]["label"] == "cross"
    assert ranked[0]["distance"] < 1e-12


def test_match_descriptor_query(workdir):
    idx = str(workdir / "idx.json")
    args = ["index"] + [f"{n}={workdir / n}.pgm" for n in ["bar", "cross"]]
    assert main(args + ["--resolution", "8", "--bandlimit", "3", "--output", idx]) == 0
    # query with a descriptor file computed from the same image
    desc = glyph_descriptor(bio.read_pgm(str(workdir / "bar.pgm")), 8, 3)
    qpath = str(workdir / "q.json")
    bio.save_descriptor(desc, qpath)
    assert main(["match", "--index", idx, "--query", qpath]) == 0
    # a descriptor that is not a sphere lift cannot be matched: a usage error
    bio.save_descriptor(build_descriptor(random_bandlimited(3, SO3)), qpath)
    assert main(["match", "--index", idx, "--query", qpath]) == 2


def test_match_descriptor_query_notes_the_grid_it_assumes(workdir, capsys):
    # a descriptor file records no grid, so match says which one the query must come from
    idx = str(workdir / "idx.json")
    assert main(["index", f"ring={workdir / 'ring.pgm'}", "--resolution", "8", "--bandlimit", "3", "--output", idx]) == 0
    qpath = str(workdir / "q.json")
    for resolution in (8, 16):
        bio.save_descriptor(glyph_descriptor(bio.read_pgm(str(workdir / "ring.pgm")), resolution, 3), qpath)
        capsys.readouterr()
        assert main(["match", "--index", idx, "--query", qpath]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("ring\t")
        assert err == f"note: descriptor file {qpath} records no grid; it must have been lifted at the index's resolution 8\n"
    # image queries are lifted on the index's grid, so they need no note
    assert main(["match", "--index", idx, "--query", str(workdir / "ring.pgm")]) == 0
    assert capsys.readouterr().err == ""


def test_verify_subcommand(tmp_path):
    report_path = str(tmp_path / "report.json")
    code = main(["verify", "--suite", "closure,reality", "--seed", "0", "--output", report_path])
    assert code == 0
    report = json.load(open(report_path))
    assert report["passed"] is True
    assert set(report["suites"]) == {"closure", "reality"}


def test_verify_failure_exits_1_and_reports_failed(tmp_path, monkeypatch):
    failing = [bverify.CheckResult.from_residual("always-fails", 1.0, 0.0)]
    monkeypatch.setitem(bverify.SUITES, "failing", lambda seed: failing)
    report_path = str(tmp_path / "report.json")
    assert main(["verify", "--suite", "closure,failing", "--output", report_path]) == 1
    report = json.load(open(report_path))
    assert report["passed"] is False
    assert report["suites"]["closure"]["passed"] is True
    assert report["suites"]["failing"]["passed"] is False


@pytest.mark.parametrize("suite", ["nosuch", " , "])
def test_verify_rejects_unknown_or_empty_suite_selection(capsys, suite):
    assert main(["verify", "--suite", suite]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_on_bad_file(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["bispectrum", missing, "--output", str(tmp_path / "o.json")]) == 2
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write("{not json")
    assert main(["bispectrum", bad, "--output", str(tmp_path / "o.json")]) == 2


def test_usage_error_on_wrong_kind(workdir):
    assert main(["reconstruct", str(workdir / "samples.json"), "--output", str(workdir / "o.json")]) == 2


def test_reconstruct_rejects_descriptor_with_missing_pair(workdir):
    desc_path = str(workdir / "d.json")
    assert main(["bispectrum", str(workdir / "c.json"), "--output", desc_path]) == 0
    doc = json.load(open(desc_path))
    doc["entries"] = [e for e in doc["entries"] if (e["p"], e["q"]) != (1, 0)]
    with open(desc_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["reconstruct", desc_path, "--output", str(workdir / "rec.json")]) == 2


def _edit_json(path, edit):
    doc = json.load(open(path))
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _glyph_index_file(workdir):
    path = str(workdir / "idx.json")
    args = ["index", f"bar={workdir / 'bar.pgm'}", f"cross={workdir / 'cross.pgm'}"]
    assert main(args + ["--resolution", "8", "--bandlimit", "2", "--output", path]) == 0
    return path, ["match", "--index", path, "--query", str(workdir / "bar.pgm")]


def test_match_lifts_image_queries_at_the_index_resolution(workdir):
    idx = str(workdir / "idx.json")
    args = ["index"] + [f"{n}={workdir / n}.pgm" for n in ["bar", "cross", "hook", "ring", "spot"]]
    assert main(args + ["--resolution", "8", "--bandlimit", "3", "--output", idx]) == 0
    query = str(workdir / "q.pgm")
    bio.write_pgm(apply_planar_motion(synthetic_glyphs(64)["ring"], PlanarMotion(0.9, 0.05, -0.03)), query)
    ranking = str(workdir / "rank.json")
    assert main(["match", "--index", idx, "--query", query, "--output", ranking]) == 0
    image, index = bio.read_pgm(query), bio.load_glyph_index(idx)
    want = match(glyph_descriptor(image, 8, 3), index)
    assert [(r["label"], r["distance"]) for r in json.load(open(ranking))] == want
    assert want != match(glyph_descriptor(image, 16, 3), index)  # another resolution ranks differently


def test_match_rejects_a_sphere_query_on_another_grid(workdir, capsys):
    idx = str(workdir / "idx.json")
    args = ["index"] + [f"{n}={workdir / n}.pgm" for n in ["bar", "cross"]]
    assert main(args + ["--resolution", "8", "--bandlimit", "3", "--output", idx]) == 0
    query = str(workdir / "sphere.json")
    assert main(["lift", str(workdir / "cross.pgm"), "--resolution", "12", "--output", query]) == 0
    capsys.readouterr()
    assert main(["match", "--index", idx, "--query", query]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "resolution 12" in err and "resolution 8" in err
    assert main(["lift", str(workdir / "cross.pgm"), "--resolution", "8", "--output", query]) == 0
    capsys.readouterr()
    assert main(["match", "--index", idx, "--query", query]) == 0
    assert capsys.readouterr().out.startswith("cross\t0.000000000e+00")


def test_index_rejects_a_repeated_label(workdir, capsys):
    idx = workdir / "idx.json"
    argv = ["index", f"a={workdir / 'bar.pgm'}", f"a={workdir / 'ring.pgm'}", "--output", str(idx)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: label 'a' given twice")
    assert not idx.exists()


def test_match_rejects_an_index_with_a_repeated_label(workdir, capsys):
    path, argv = _glyph_index_file(workdir)
    _edit_json(path, lambda doc: doc["glyphs"][1].update({"label": "bar"}))
    with pytest.raises(DomainError, match="label 'bar' names more than one glyph"):
        bio.load_glyph_index(path)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: label 'bar' names more than one glyph")


def test_match_rejects_an_index_with_a_nan_value(workdir, capsys):
    path, argv = _glyph_index_file(workdir)
    _edit_json(path, lambda doc: doc["glyphs"][1]["beta"][0].__setitem__(0, float("nan")))
    assert "NaN" in open(path).read()
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: glyph 'cross' has a non-finite descriptor value")


def test_match_takes_no_resolution(workdir):
    _, argv = _glyph_index_file(workdir)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--resolution", "8"])
    assert exc.value.code == 2


def test_match_on_version_1_index_says_to_rebuild(workdir, capsys):
    path, argv = _glyph_index_file(workdir)
    desc_path = str(workdir / "bar-desc.json")
    bio.save_descriptor(glyph_descriptor(bio.read_pgm(str(workdir / "bar.pgm")), 8, 2), desc_path)
    descriptor = json.load(open(desc_path))

    def to_v1(doc):  # version 1 stored each glyph's full descriptor document
        doc["format_version"] = 1
        for glyph in doc["glyphs"]:
            glyph["descriptor"] = descriptor
            del glyph["beta"]

    _edit_json(path, to_v1)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "unsupported format_version 1" in err and "'bispect index'" in err


# case: (edit of glyphs[1], the error it gives)
_GLYPH_EDITS = {
    "label-null": (lambda g: g.update({"label": None}), "field 'label' must be a string, found None"),
    "label-list": (lambda g: g.update({"label": [1, 2]}), "field 'label' must be a string, found [1, 2]"),
    "source-missing": (lambda g: g.pop("source"), "missing field 'source'"),
    "resolution-missing": (lambda g: g["source"].pop("resolution"), "missing field 'resolution'"),
    "resolution-differs": (lambda g: g["source"].update({"resolution": 16}), "resolution 16 differs from glyphs[0]'s 8"),
}


@pytest.mark.parametrize("case", sorted(_GLYPH_EDITS))
def test_match_rejects_malformed_glyph(workdir, capsys, case):
    edit, want = _GLYPH_EDITS[case]
    path, argv = _glyph_index_file(workdir)
    _edit_json(path, lambda doc: edit(doc["glyphs"][1]))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert want in err and "glyphs[1]" in err


def _coefficient_file(workdir):
    path = str(workdir / "c.json")
    return path, ["bispectrum", path, "--output", str(workdir / "d.json")]


def _descriptor_file(workdir):
    path = str(workdir / "d.json")
    assert main(["bispectrum", str(workdir / "c.json"), "--output", path]) == 0
    return path, ["reconstruct", path, "--output", str(workdir / "rec.json")]


# field: (writes the file and gives the command that reads it, edit putting a number in the field)
_CONTAINER_FIELDS = {
    "glyphs": (_glyph_index_file, lambda doc: doc.update({"glyphs": 5})),
    "source": (_glyph_index_file, lambda doc: doc["glyphs"][0].update({"source": 5})),
    "matrices": (_coefficient_file, lambda doc: doc.update({"matrices": 5})),
    "entries": (_descriptor_file, lambda doc: doc.update({"entries": 5})),
}


@pytest.mark.parametrize("field", sorted(_CONTAINER_FIELDS))
def test_container_field_of_wrong_type_is_a_usage_error(workdir, capsys, field):
    make, edit = _CONTAINER_FIELDS[field]
    path, argv = make(workdir)
    _edit_json(path, edit)
    capsys.readouterr()
    assert main(argv) == 2
    assert f"field {field!r} must be" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["zero", 1.0])
def test_reconstruct_rejects_non_integer_pair_index(workdir, capsys, value):
    desc_path = str(workdir / "d.json")
    assert main(["bispectrum", str(workdir / "c.json"), "--output", desc_path]) == 0
    _edit_json(desc_path, lambda doc: doc["entries"][1].update({"p": value}))
    assert main(["reconstruct", desc_path, "--output", str(workdir / "rec.json")]) == 2
    assert "field 'p' must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["three", 3.0])
def test_inverse_rejects_non_integer_bandlimit(workdir, capsys, value):
    coeff_path = str(workdir / "c.json")
    _edit_json(coeff_path, lambda doc: doc.update({"bandlimit": value}))
    assert main(["inverse", coeff_path, "--output", str(workdir / "s.json")]) == 2
    assert "field 'bandlimit' must be an integer" in capsys.readouterr().err


def test_bispectrum_rejects_negative_bandlimit(workdir, capsys):
    coeff_path = str(workdir / "c.json")
    _edit_json(coeff_path, lambda doc: doc.update({"bandlimit": -1, "matrices": []}))
    out = workdir / "d.json"
    assert main(["bispectrum", coeff_path, "--output", str(out)]) == 2
    assert "bandlimit" in capsys.readouterr().err
    assert not out.exists()


def test_tolerance_only_where_read(workdir):
    # only reconstruct reads --tolerance; elsewhere it is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["bispectrum", str(workdir / "c.json"), "--output", str(workdir / "d.json"), "--tolerance", "1"])
    assert exc.value.code == 2


_GLYPH_OP = """
import sys
import bispect, bispect.cli, bispect.io, bispect.verify
from bispect.glyphs import build_glyph_index, glyph_descriptor, match, synthetic_glyphs
glyphs = synthetic_glyphs(32)
index = build_glyph_index(glyphs, 8, 3)
assert match(glyph_descriptor(glyphs["ring"], 8, 3), index)[0][0] == "ring"
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_glyph_op_loads_no_scipy():
    # importing scipy costs a glyph set-up about 0.2 s, so only the
    # correlation alignment imports it, on first use
    env = dict(os.environ, PYTHONPATH=str(Path(bispect.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _GLYPH_OP], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
