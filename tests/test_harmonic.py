import dataclasses
import gc
import tracemalloc
import warnings

import numpy as np
import pytest

from bispect.errors import DomainError, PrecisionWarning, TagMismatchError
from bispect.groups import SO3, SU2, compose, haar_quadrature, identity, random_element
from bispect.harmonic import (
    CoefficientSet,
    SampledFunction,
    coefficient_inner,
    evaluate_at,
    fourier_forward,
    fourier_inverse,
    quadrature_inner,
    random_bandlimited,
    translate,
)
from bispect.wigner import dim, j2_of, little_d_direct, m_values, wigner_stack_on_rule


def test_constant_function_transforms_to_delta():
    for tag in (SU2, SO3):
        rule = haar_quadrature(8, tag)
        ones = SampledFunction(tag, rule, np.ones(rule.size, dtype=complex))
        coeffs = fourier_forward(ones, 4)
        assert abs(coeffs[0].ravel()[0] - 1.0) < 1e-12
        for ell in range(1, 5):
            assert np.max(np.abs(coeffs[ell])) < 1e-12


def test_single_coefficient_projection():
    # f = conj of the (0, 1) entry of D_2 picks out one entry of size 1/dim,
    # at the position and sign dictated by the conjugation symmetry (value
    # frozen after confirming with the orthogonality oracle)
    rule = haar_quadrature(4, SU2)
    st = wigner_stack_on_rule(2, SU2, rule)
    f = SampledFunction(SU2, rule, np.conj(st[:, 0, 1]))
    coeffs = fourier_forward(f, 2)
    expect = np.zeros((3, 3), dtype=complex)
    expect[1, 2] = -1.0 / 3.0
    assert np.max(np.abs(coeffs[2] - expect)) < 1e-10
    assert np.max(np.abs(coeffs[0])) < 1e-10
    assert np.max(np.abs(coeffs[1])) < 1e-10


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_round_trips(tag):
    bandlimit = 4
    rule = haar_quadrature(2 * bandlimit, tag)
    coeffs = random_bandlimited(bandlimit, tag, seed=7)
    samples = fourier_inverse(coeffs, rule)
    back = fourier_forward(samples, bandlimit)
    for ell in range(bandlimit + 1):
        assert np.max(np.abs(coeffs[ell] - back[ell])) < 1e-10
    again = fourier_inverse(back, rule)
    assert np.max(np.abs(samples.values - again.values)) < 1e-9


def _stack_by_definition(ell, tag, rule):
    """D_ell[m', m] = e^{-i m' alpha} d(beta)[m', m] e^{-i m gamma} at every node
    of the rule, from Wigner's explicit sum: no plan, no recursion."""
    m = m_values(ell, tag)
    d = np.array([little_d_direct(j2_of(ell, tag), beta) for beta in rule.betas])
    ea, eg = np.exp(-1j * np.outer(rule.alphas, m)), np.exp(-1j * np.outer(rule.gammas, m))
    return (ea[:, None, None, :, None] * d[None, :, None] * eg[None, None, :, None, :]).reshape(rule.size, m.size, m.size)


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_transforms_match_stack_definition(tag):
    # reference: the defining sums over the full stack D_ell(g_i) at every node,
    # the stack itself checked against Wigner's explicit sum
    rng = np.random.default_rng(40)
    for bandlimit in range(7):
        coeffs = random_bandlimited(bandlimit, tag, seed=bandlimit)
        # exact, over-resolved, and the under-resolved rule random_bandlimited(require_real=True) uses
        for rule_bandlimit in sorted({2 * bandlimit, 2 * bandlimit + 3, bandlimit}):
            rule = haar_quadrature(rule_bandlimit, tag)
            values = rng.standard_normal(rule.size) + 1j * rng.standard_normal(rule.size)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                forward = fourier_forward(SampledFunction(tag, rule, values), bandlimit)
            expected = [PrecisionWarning] if rule_bandlimit < 2 * bandlimit else []
            assert [w.category for w in caught] == expected
            inverse = fourier_inverse(coeffs, rule).values
            ref_inverse = np.zeros(rule.size, dtype=complex)
            for ell in range(bandlimit + 1):
                stack = wigner_stack_on_rule(ell, tag, rule)
                assert np.max(np.abs(stack - _stack_by_definition(ell, tag, rule))) < 1e-13
                ref = np.einsum("i,i,ivu->uv", rule.weights, values, np.conj(stack))
                assert np.max(np.abs(forward[ell] - ref)) <= 1e-13 * np.max(np.abs(ref))
                ref_inverse += dim(ell, tag) * np.einsum("uv,ivu->i", coeffs[ell], stack)
            assert np.max(np.abs(inverse - ref_inverse)) <= 1e-13 * np.max(np.abs(ref_inverse))


def test_transforms_keep_no_state_on_rule():
    bandlimit = 8
    rule = haar_quadrature(2 * bandlimit, SO3)
    coeffs = random_bandlimited(bandlimit, SO3, seed=15)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fourier_forward(fourier_inverse(coeffs, rule), bandlimit)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert set(vars(rule)) == {f.name for f in dataclasses.fields(rule)}
    assert retained < 8 * 2**20


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_transform_round_trip_reach(tag):
    bandlimit = 32
    coeffs = random_bandlimited(bandlimit, tag, seed=16)
    tracemalloc.start()
    try:
        samples = fourier_inverse(coeffs)
        back = fourier_forward(samples, bandlimit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.rule.bandlimit == 2 * bandlimit
    assert max(float(np.max(np.abs(coeffs[l] - back[l]))) for l in range(bandlimit + 1)) <= 1e-10
    assert peak <= 256 * 2**20


def test_inverse_single_coefficient():
    # one unit entry at degree 1 -> dim * matching matrix coefficient
    coeffs = CoefficientSet(SU2, 1, (np.zeros((1, 1)), np.array([[1.0, 0.0], [0.0, 0.0]])))
    rule = haar_quadrature(2, SU2)
    samples = fourier_inverse(coeffs, rule)
    st = wigner_stack_on_rule(1, SU2, rule)
    assert np.max(np.abs(samples.values - 2.0 * st[:, 0, 0])) < 1e-12


def test_constant_inverse():
    coeffs = CoefficientSet(SO3, 0, (np.array([[1.0]]),))
    samples = fourier_inverse(coeffs, haar_quadrature(2, SO3))
    assert np.max(np.abs(samples.values - 1.0)) < 1e-14


def test_inverse_default_rule_round_trips():
    # omitting the rule picks one exact for the forward transform
    coeffs = random_bandlimited(3, SU2, seed=14)
    samples = fourier_inverse(coeffs)
    assert samples.rule.bandlimit == 6
    back = fourier_forward(samples, 3)
    assert max(float(np.max(np.abs(coeffs[l] - back[l]))) for l in range(4)) < 1e-10


def test_translate_identity_and_homomorphism(rng):
    for tag in (SU2, SO3):
        coeffs = random_bandlimited(3, tag, seed=8)
        same = translate(coeffs, identity(tag))
        assert all(np.allclose(coeffs[l], same[l]) for l in range(4))
        x, y = random_element(tag, rng), random_element(tag, rng)
        lhs = translate(translate(coeffs, x), y)
        rhs = translate(coeffs, compose(x, y))
        for ell in range(4):
            assert np.max(np.abs(lhs[ell] - rhs[ell])) < 1e-11


def test_translate_matches_sample_domain(rng):
    for tag in (SU2, SO3):
        bandlimit = 3
        rule = haar_quadrature(2 * bandlimit, tag)
        coeffs = random_bandlimited(bandlimit, tag, seed=9)
        x = random_element(tag, rng)
        vals = evaluate_at(coeffs, [compose(x, g) for g in rule.nodes])
        direct = fourier_forward(SampledFunction(tag, rule, vals), bandlimit)
        shifted = translate(coeffs, x)
        for ell in range(bandlimit + 1):
            assert np.max(np.abs(direct[ell] - shifted[ell])) < 1e-9


def test_translate_tag_mismatch(rng):
    with pytest.raises(TagMismatchError):
        translate(random_bandlimited(2, SU2, seed=1), random_element(SO3, rng))


def test_precision_warning_on_coarse_rule():
    rule = haar_quadrature(2, SU2)
    f = SampledFunction(SU2, rule, np.ones(rule.size, dtype=complex))
    with pytest.warns(PrecisionWarning):
        fourier_forward(f, 4)


def test_negative_bandlimit_is_domain_error():
    rule = haar_quadrature(2, SU2)
    f = SampledFunction(SU2, rule, np.ones(rule.size, dtype=complex))
    with pytest.raises(DomainError):
        fourier_forward(f, -1)
    with pytest.raises(DomainError):
        fourier_inverse(CoefficientSet(SU2, -1, ()), rule)


def test_parseval():
    for tag in (SU2, SO3):
        bandlimit = 4
        rule = haar_quadrature(2 * bandlimit, tag)
        a = random_bandlimited(bandlimit, tag, seed=10)
        b = random_bandlimited(bandlimit, tag, seed=11)
        qi = quadrature_inner(fourier_inverse(a, rule), fourier_inverse(b, rule))
        ci = coefficient_inner(a, b)
        assert abs(qi - ci) < 1e-9 * max(1.0, abs(ci))


def test_quadrature_inner_rejects_mixed_groups():
    # equal bandlimits and node counts, but the gamma periods differ (4pi vs 2pi)
    su2_rule, so3_rule = haar_quadrature(4, SU2), haar_quadrature(4, SO3)
    assert su2_rule.size == so3_rule.size
    f = SampledFunction(SU2, su2_rule, np.ones(su2_rule.size, dtype=complex))
    h = SampledFunction(SO3, so3_rule, np.ones(so3_rule.size, dtype=complex))
    with pytest.raises(TagMismatchError):
        quadrature_inner(f, h)


def test_random_bandlimited_determinism():
    for tag in (SU2, SO3):
        a = random_bandlimited(3, tag, seed=21)
        b = random_bandlimited(3, tag, seed=21)
        assert all(np.array_equal(a[l], b[l]) for l in range(4))
        c = random_bandlimited(3, tag, seed=22)
        assert not all(np.allclose(a[l], c[l]) for l in range(4))


def test_random_bandlimited_scalar_case():
    coeffs = random_bandlimited(0, SU2, seed=3)
    assert coeffs[0].shape == (1, 1)


def test_random_bandlimited_conditioning():
    from bispect.harmonic import COND_TARGET, max_condition

    for tag in (SU2, SO3):
        coeffs = random_bandlimited(4, tag, require_nonsingular=True, seed=12)
        assert max_condition(coeffs) <= COND_TARGET


def test_random_bandlimited_reality():
    for tag in (SU2, SO3):
        coeffs = random_bandlimited(4, tag, require_real=True, seed=13)
        rule = haar_quadrature(8, tag)
        samples = fourier_inverse(coeffs, rule)
        scale = np.max(np.abs(samples.values.real))
        assert np.max(np.abs(samples.values.imag)) < 1e-10 * max(1.0, scale)
        assert abs(coeffs[0].ravel()[0].imag) < 1e-10


def test_coefficient_set_validation():
    with pytest.raises(DomainError):
        CoefficientSet(SU2, 1, (np.zeros((1, 1)), np.zeros((3, 3))))
    with pytest.raises(DomainError):
        CoefficientSet(SO3, 1, (np.zeros((1, 1)),))
    with pytest.raises(DomainError):
        CoefficientSet(SO3, -1, ())


def test_sampled_function_validation():
    rule = haar_quadrature(1, SU2)
    with pytest.raises(DomainError):
        SampledFunction(SU2, rule, np.ones(rule.size + 1))
    with pytest.raises(TagMismatchError):
        SampledFunction(SO3, rule, np.ones(rule.size))
