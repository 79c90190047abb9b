from dataclasses import replace

import numpy as np
import pytest

from bispect import verify
from bispect.clebsch import clebsch_gordan
from bispect.errors import DomainError


def test_unknown_suite_rejected():
    with pytest.raises(DomainError, match="unknown suite 'no-such-suite'"):
        verify.run(["no-such-suite"])
    with pytest.raises(DomainError, match="no verification suite selected"):
        verify.run([])


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


def test_groups_suite_passes():
    rep = verify.run(["groups"], seed=1)
    assert rep.passed
