import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from bispect.errors import (
    DomainError,
    MissingSideInfoError,
    NoAlignmentError,
    NotPositiveSemidefiniteError,
    SingularMatrixError,
    ZeroMeanError,
)
from bispect.groups import SO3, SU2, GroupElement, distance, from_euler, identity, random_element, z_rotation
from bispect.harmonic import CoefficientSet, random_bandlimited, translate
from bispect.bispectrum import (
    BispectrumDescriptor,
    build_descriptor,
    descriptor_max_relative_gap,
)
from bispect.reconstruct import (
    check_sphere_witness,
    find_alignment,
    polar_decompose,
    positive_sqrt,
    reconstruct_so3,
    reconstruct_su2,
    signed_sqrt,
)
from bispect.sphere import random_sphere_function, rotate_sphere, sphere_lift
from bispect.wigner import CARTESIAN_TO_SPHERICAL, wigner_all


def test_positive_sqrt_basics(rng):
    assert np.allclose(positive_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(positive_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]))
    for d in range(2, 10):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = a @ a.conj().T
        r = positive_sqrt(h)
        assert np.linalg.norm(r @ r - h) < 1e-9 * np.linalg.norm(h)
        assert np.max(np.abs(r - r.conj().T)) < 1e-10


def test_positive_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefiniteError):
        positive_sqrt(np.diag([1.0, -0.5]))


def test_signed_sqrt_identity_cases():
    assert np.allclose(signed_sqrt(np.eye(3), 1.0), np.eye(3))
    flipped = signed_sqrt(np.eye(3), -1.0)
    assert np.allclose(flipped @ flipped, np.eye(3))
    assert np.linalg.det(flipped).real < 0
    # ties broken by the first (smallest-eigenvalue) index
    assert np.allclose(np.sort(np.linalg.eigvalsh(flipped)), [-1.0, 1.0, 1.0])


def test_signed_sqrt_random_spd(rng):
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        spd = a @ a.T + 3 * np.eye(3)
        target = np.sqrt(np.linalg.det(spd))
        for sign in (1.0, -1.0):
            r = signed_sqrt(spd.astype(complex), sign * target)
            assert np.linalg.norm(r @ r - spd) < 1e-9 * np.linalg.norm(spd)
            assert np.sign(np.linalg.det(r).real) == sign


def test_signed_sqrt_errors():
    with pytest.raises(SingularMatrixError):
        signed_sqrt(np.diag([1.0, 0.0]), 0.0)
    with pytest.raises(DomainError):
        signed_sqrt(np.eye(2), 7.0)  # magnitude mismatch


def test_polar_decompose(rng):
    # unitary input: H = I; PSD input: U = I
    q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    h, u = polar_decompose(q)
    assert np.max(np.abs(h - np.eye(4))) < 1e-10
    assert np.max(np.abs(u - q)) < 1e-10
    a = rng.standard_normal((4, 4))
    spd = a @ a.T + 4 * np.eye(4)
    h, u = polar_decompose(spd)
    assert np.max(np.abs(h - spd)) < 1e-9 * np.linalg.norm(spd)
    assert np.max(np.abs(u - np.eye(4))) < 1e-10
    for d in range(2, 10):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h, u = polar_decompose(m)
        assert np.linalg.norm(h @ u - m) < 1e-9 * np.linalg.norm(m)
        assert np.max(np.abs(u @ u.conj().T - np.eye(d))) < 1e-10


def test_polar_rejects_singular():
    with pytest.raises(SingularMatrixError):
        polar_decompose(np.diag([1.0, 0.0]))


def test_reconstruct_su2_bandlimit_zero():
    desc = BispectrumDescriptor(SU2, 0, {(0, 0): np.array([[8.0]])})
    report = reconstruct_su2(desc)
    assert abs(report.recovered[0].ravel()[0] - 2.0) < 1e-12


def test_reconstruct_su2_zero_mean_error():
    desc = BispectrumDescriptor(SU2, 0, {(0, 0): np.array([[0.0]])})
    with pytest.raises(ZeroMeanError):
        reconstruct_su2(desc)


def test_reconstruct_su2_degree_one_gram():
    coeffs = random_bandlimited(1, SU2, require_real=True, require_nonsingular=True, seed=50)
    desc = build_descriptor(coeffs)
    report = reconstruct_su2(desc)
    lhs = report.recovered[1] @ report.recovered[1].conj().T
    rhs = coeffs[1] @ coeffs[1].conj().T
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, float(np.max(np.abs(rhs))))


def test_reconstruct_su2_end_to_end():
    for k in range(5):
        coeffs = random_bandlimited(4, SU2, require_real=True, require_nonsingular=True, seed=60 + k)
        desc = build_descriptor(coeffs)
        report = reconstruct_su2(desc, ground_truth=coeffs)
        assert report.witness.max_residual < 1e-7
        assert descriptor_max_relative_gap(desc, build_descriptor(report.recovered)) < 1e-7
        assert set(report.condition_numbers) == {0, 1, 2, 3, 4}


def test_reconstruct_so3_positive_branch():
    for k in range(5):
        coeffs = random_bandlimited(4, SO3, require_real=True, require_nonsingular=True, seed=70 + k)
        desc = build_descriptor(coeffs)
        report = reconstruct_so3(desc, ground_truth=coeffs)
        assert report.witness.max_residual < 1e-7
        assert descriptor_max_relative_gap(desc, build_descriptor(report.recovered)) < 1e-7


def test_reconstruct_so3_round_trip_beyond_bandlimit_8():
    coeffs = random_bandlimited(10, SO3, require_real=True, require_nonsingular=True, seed=110)
    report = reconstruct_so3(build_descriptor(coeffs), ground_truth=coeffs)
    assert report.witness.max_residual <= 1e-7


def test_reconstruct_so3_negative_branch():
    coeffs = random_bandlimited(4, SO3, require_real=True, require_nonsingular=True, seed=80)
    u = CARTESIAN_TO_SPHERICAL
    real_block = (u.conj().T @ coeffs[1] @ u).real
    if np.linalg.det(real_block) < 0:
        real_block = -real_block  # start from a positive det, then flip it
    flipped = u @ (np.diag([-1.0, 1.0, 1.0]) @ real_block) @ u.conj().T
    mats = list(coeffs.matrices)
    mats[1] = flipped
    neg = CoefficientSet(SO3, 4, tuple(mats))
    desc = build_descriptor(neg)
    assert desc.det_f1 is not None and desc.det_f1 < 0
    report = reconstruct_so3(desc, ground_truth=neg)
    assert report.witness.max_residual < 1e-7
    assert descriptor_max_relative_gap(desc, build_descriptor(report.recovered)) < 1e-7


def test_reconstruct_reports_singular_degree():
    from bispect.errors import SingularCoefficientError

    coeffs = random_bandlimited(3, SU2, require_real=True, require_nonsingular=True, seed=82)
    mats = list(coeffs.matrices)
    mats[2] = np.zeros_like(mats[2])  # kill one degree entirely
    broken = CoefficientSet(SU2, 3, tuple(mats))
    desc = build_descriptor(broken)
    with pytest.raises(SingularCoefficientError) as err:
        reconstruct_su2(desc)
    assert err.value.ell == 2


def test_decomposition_uniqueness_sweep(rng):
    # recomposition residuals stay below 1e-9 across dimensions 2..9
    for d in range(2, 10):
        for _ in range(100):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h, u = polar_decompose(a)
            assert np.linalg.norm(h @ u - a) <= 1e-9 * np.linalg.norm(a)
            gram = a @ a.conj().T
            r = positive_sqrt(gram)
            assert np.linalg.norm(r @ r - gram) <= 1e-9 * np.linalg.norm(gram)


def test_reconstruct_so3_missing_side_info():
    coeffs = random_bandlimited(2, SO3, require_real=True, require_nonsingular=True, seed=81)
    desc = build_descriptor(coeffs)
    stripped = replace(desc, det_f1=None)
    with pytest.raises(MissingSideInfoError):
        reconstruct_so3(stripped)


def test_find_alignment_identity():
    for tag in (SU2, SO3):
        coeffs = random_bandlimited(4, tag, require_nonsingular=True, seed=90)
        witness = find_alignment(coeffs, coeffs)
        assert witness.max_residual < 1e-12
        assert distance(witness.x, identity(tag)) < 1e-10


def test_find_alignment_recovers_translation(rng):
    for tag in (SU2, SO3):
        coeffs = random_bandlimited(4, tag, require_nonsingular=True, seed=91)
        x = random_element(tag, rng)
        witness = find_alignment(coeffs, translate(coeffs, x))
        assert distance(witness.x, x) < 1e-8
        assert witness.max_residual < 1e-8


def test_find_alignment_reads_one_wigner_all_and_builds_no_translated_set(rng, monkeypatch):
    import bispect.harmonic as harmonic_module
    import bispect.reconstruct as reconstruct_module

    calls = []

    def counted(*args):
        calls.append(args)
        return wigner_all(*args)

    monkeypatch.setattr(reconstruct_module, "wigner_all", counted)
    for tag in (SU2, SO3):
        coeffs = random_bandlimited(4, tag, require_nonsingular=True, seed=94)
        recovered = translate(coeffs, random_element(tag, rng))
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(harmonic_module, "CoefficientSet", None)  # translate() would fail
            witness = find_alignment(coeffs, recovered)
        assert len(calls) == 1
        # the residuals of the translated set, bit for bit
        want = [np.linalg.norm(r - t) / np.linalg.norm(f)
                for f, r, t in zip(coeffs.matrices, recovered.matrices, translate(coeffs, witness.x).matrices)]
        assert list(witness.per_ell_residuals) == want


def test_find_alignment_negative_control():
    coeffs = random_bandlimited(4, SU2, require_nonsingular=True, seed=92)
    other = random_bandlimited(4, SU2, require_nonsingular=True, seed=93)
    with pytest.raises(NoAlignmentError):
        find_alignment(coeffs, other)


def test_sphere_witness_membership(rng):
    assert check_sphere_witness(z_rotation(0.7))
    assert check_sphere_witness(GroupElement(SO3, np.diag([1.0, -1.0, -1.0])))  # R_x(pi) maps R_z(t) to R_z(-t)
    hits = sum(check_sphere_witness(random_element(SO3, rng)) for _ in range(10))
    assert hits == 0


@pytest.mark.parametrize(
    "beta,expect",
    [(0.0, True), (1e-12, True), (1e-10, True), (1e-8, False), (1e-6, False),
     (np.pi - 1e-12, True), (np.pi - 1e-6, False), (np.pi, True)],
)
def test_sphere_witness_agrees_with_sampled_conjugation_near_the_poles(beta, expect):
    # the definition: x R_z(t) x^-1 is a z-rotation, to 1e-9, at 16 sampled t
    x = from_euler((0.7, beta, 0.3), SO3)

    def in_h(m):
        return np.max(np.abs(m - z_rotation(np.arctan2(m[1, 0], m[0, 0])).data)) <= 1e-9

    ts = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    assert all(in_h(x.data @ z_rotation(t).data @ x.data.T) for t in ts) == expect
    assert check_sphere_witness(x) is expect


@pytest.mark.parametrize("drop", [(0, 0), (0, 1), (1, 2), (1, 3)])
def test_reconstruct_names_the_first_missing_pair_it_reads(drop):
    desc = build_descriptor(random_bandlimited(4, SU2, require_real=True, require_nonsingular=True, seed=83))
    fewer = BispectrumDescriptor(SU2, 4, {pq: m for pq, m in desc.entries.items() if pq != drop})
    with pytest.raises(DomainError, match=re.escape(f"descriptor lacks A{drop}, which reconstruction reads")):
        reconstruct_su2(fewer)
    # checked before any work: a zero mean would raise ZeroMeanError
    zero_mean = BispectrumDescriptor(SU2, 2, {(0, 0): np.zeros((1, 1)), (0, 1): desc.entries[(0, 1)]})
    with pytest.raises(DomainError, match=re.escape("descriptor lacks A(1, 1)")):
        reconstruct_su2(zero_mean)


def test_sphere_pair_alignment_and_witness(rng):
    # two lifts of the same sphere pattern: equal descriptors; the recovered
    # alignment matches the normalizer test exactly as the direct definition
    s = random_sphere_function(8, 5, seed=94)
    coeffs = sphere_lift(s, 5)
    for x0, expect_in in ((z_rotation(1.3), True), (random_element(SO3, rng), False)):
        rotated = rotate_sphere(s, x0, bandlimit=5)
        lifted = sphere_lift(rotated, 5)
        gap = descriptor_max_relative_gap(build_descriptor(coeffs), build_descriptor(lifted))
        assert gap < 1e-9
        witness = find_alignment(coeffs, lifted)
        assert distance(witness.x, x0) < 1e-6
        assert check_sphere_witness(witness.x) == expect_in


def test_lift_alignment_wraps_optimizer_angles_just_below_zero(monkeypatch):
    # the local refinement may step an angle a rounding error below 0; it
    # must wrap to 0, not round up to the period outside from_euler's range
    import scipy.optimize

    coeffs = sphere_lift(random_sphere_function(8, 5, seed=94), 5)
    monkeypatch.setattr(
        scipy.optimize, "minimize", lambda fun, x0, **kw: SimpleNamespace(x=np.array([-1e-17, 0.0, -1e-17]))
    )
    witness = find_alignment(coeffs, coeffs)
    assert distance(witness.x, identity(SO3)) == 0.0
    assert witness.max_residual < 1e-12
