import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bispect.bispectrum as bispectrum_module
from bispect import verify
from bispect.clebsch import clebsch_gordan
from bispect.errors import DomainError
from bispect.groups import SU2, z_rotation
from bispect.harmonic import CoefficientSet, random_bandlimited
from bispect.sphere import rotate_sphere, sphere_lift


def test_unknown_suite_rejected():
    with pytest.raises(DomainError, match="unknown suite 'no-such-suite'"):
        verify.run(["no-such-suite"])
    with pytest.raises(DomainError, match="no verification suite selected"):
        verify.run([])


def test_every_check_keeps_its_suite_name_and_tolerance():
    # verify_contract.json lists [suite, check, tolerance] of every check in
    # run order; a dropped, renamed, added or loosened check fails here
    contract = json.loads(Path(__file__).with_name("verify_contract.json").read_text())
    report = verify.run()
    assert [[suite, c.name, c.tolerance] for suite, checks in report.suites.items() for c in checks] == contract
    assert report.passed


def test_report_structure():
    rep = verify.run(["closure"], seed=3)
    doc = rep.to_dict()
    assert doc["seed"] == 3
    assert "closure" in doc["suites"]
    assert doc["suites"]["closure"]["checks"]
    assert all("residual" in c for c in doc["suites"]["closure"]["checks"])


def test_cg_corruption_hook_fails_suite(monkeypatch):
    # rotating the phase of column 0 of every Clebsch-Gordan table keeps it
    # unitary but breaks intertwining, so the cg suite must fail
    clean = verify.run(["cg"])
    assert clean.passed

    def corrupted(tag, p, q):
        cg = clebsch_gordan(tag, p, q)
        c = cg.C.astype(complex)
        c[:, 0] *= np.exp(0.5j)
        return replace(cg, C=c)

    monkeypatch.setattr(verify, "clebsch_gordan", corrupted)
    failed = {c.name for c in verify.run(["cg"]).suites["cg"] if not c.passed}
    assert failed == {"su2-intertwiner", "so3-intertwiner", "large-spin-intertwiner"}


def test_oracle_suite_builds_one_triple_correlation_grid_per_function(monkeypatch):
    # 3 functions on each group, the constant, the shifted pair and the corrupted control's
    grids = []
    build = verify.triple_correlation_grid

    def counted(f, bandlimit):
        grids.append(bandlimit)
        return build(f, bandlimit)

    for module in (verify, bispectrum_module):  # the oracle builds its own grid when given none
        monkeypatch.setattr(module, "triple_correlation_grid", counted)
    assert all(check.passed for check in verify.suite_oracle())
    assert len(grids) == 10


def test_groups_suite_passes():
    rep = verify.run(["groups"], seed=1)
    assert rep.passed


def test_flag_records_a_yes_no_check_as_residual_against_one_half():
    yes = verify.CheckResult.flag("ok", True)
    assert yes.to_dict() == {"name": "ok", "residual": 0.0, "tolerance": 0.5, "passed": True, "info": ""}
    no = verify.CheckResult.flag("not-ok", False, "why")
    assert (no.residual, no.tolerance, no.passed, no.info) == (1.0, 0.5, False, "why")


def test_lift_invariant_span_fails_for_a_lift_that_is_not_s_of_rz(monkeypatch):
    # the lift of a rotated copy still lives in the m' = 0 rows, but its
    # samples are no longer s(R z)
    assert verify.run(["projections"]).passed

    def lift_of_rotated(s, bandlimit):
        return sphere_lift(rotate_sphere(s, z_rotation(0.3)), bandlimit)

    monkeypatch.setattr(verify, "sphere_lift", lift_of_rotated)
    failed = {c.name for c in verify.run(["projections"]).suites["projections"] if not c.passed}
    assert failed == {"lift-invariant-span"}


def test_reality_residual_shows_the_margin_of_the_smallest_det(monkeypatch):
    # the residual is minus the smallest det F(1), so a passing run reports its margin
    (check,) = verify.suite_reality(seed=0)
    dets = [np.linalg.det(random_bandlimited(4, SU2, require_real=True, seed=500 + k)[1]).real for k in range(100)]
    smallest = float(min(dets))
    assert check.passed and check.residual == -smallest < 0.0
    assert check.info == f"smallest det F(1) {smallest:.3e} over 100 seeded real functions"

    # the pass/fail line stays at det >= -1e-12
    def with_det(det):
        def draw(bandlimit, tag, require_real, seed):
            mats = list(random_bandlimited(bandlimit, tag, require_real=require_real, seed=seed).matrices)
            mats[1] = np.diag([det, 1.0]).astype(complex)
            return CoefficientSet(tag, bandlimit, tuple(mats))

        return draw

    for det, passed in ((-5e-13, True), (-5e-12, False)):
        monkeypatch.setattr(verify, "random_bandlimited", with_det(det))
        (check,) = verify.suite_reality(seed=0)
        assert check.passed == passed
        assert check.residual == pytest.approx(-det, rel=1e-12)
