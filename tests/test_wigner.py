from math import comb

import numpy as np
import pytest
from scipy.special import eval_jacobi

from bispect.errors import DomainError, TagMismatchError
from bispect.groups import (
    SO3,
    SU2,
    GroupElement,
    QuadratureRule,
    compose,
    from_euler,
    haar_quadrature,
    identity,
    random_element,
    rotation_matrix,
    su2_matrix,
    to_euler,
)
from bispect.wigner import (
    CARTESIAN_TO_SPHERICAL,
    SU2_BASIS_SWAP,
    _delta,
    _little_d_planes,
    dim,
    j2_of,
    little_d,
    little_d_direct,
    little_d_stack,
    m_values,
    separable_factors,
    wigner_all,
    wigner_matrix,
    wigner_stack_on_rule,
)


def test_dimensions():
    assert [dim(l, SU2) for l in range(5)] == [1, 2, 3, 4, 5]
    assert [dim(l, SO3) for l in range(5)] == [1, 3, 5, 7, 9]
    with pytest.raises(DomainError):
        dim(-1, SO3)


def test_m_values_half_integers():
    assert np.allclose(m_values(1, SU2), [-0.5, 0.5])
    assert np.allclose(m_values(2, SU2), [-1.0, 0.0, 1.0])
    assert np.allclose(m_values(1, SO3), [-1.0, 0.0, 1.0])


def test_trivial_representation(rng):
    for tag in (SU2, SO3):
        g = random_element(tag, rng)
        assert np.allclose(wigner_matrix(0, tag, g), [[1.0]])


def test_identity_element():
    for tag in (SU2, SO3):
        for ell in range(6):
            d = wigner_matrix(ell, tag, identity(tag))
            assert np.max(np.abs(d - np.eye(dim(ell, tag)))) < 1e-12


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_homomorphism(tag, rng):
    for ell in range(9):
        for _ in range(12):
            g1, g2 = random_element(tag, rng), random_element(tag, rng)
            lhs = wigner_matrix(ell, tag, compose(g1, g2))
            rhs = wigner_matrix(ell, tag, g1) @ wigner_matrix(ell, tag, g2)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_unitarity(tag, rng):
    for ell in range(9):
        g = random_element(tag, rng)
        d = wigner_matrix(ell, tag, g)
        assert np.max(np.abs(d @ d.conj().T - np.eye(d.shape[0]))) < 1e-11


def _assert_stack_matches_direct_summation(betas):
    # the half-step recursion against Wigner's explicit sum, which shares no
    # code with it, for j2 = 0..10
    planes = little_d_stack(10, betas)
    for j2 in range(11):
        reference = np.array([little_d_direct(j2, beta) for beta in betas])
        assert np.max(np.abs(planes[j2] - reference)) < 1e-14


def test_recursion_matches_direct_summation(rng):
    _assert_stack_matches_direct_summation(rng.uniform(0, np.pi, 40))


def test_little_d_stack_backends_agree():
    # fixed betas, including the Euler degeneracies beta = 0 and beta = pi
    _assert_stack_matches_direct_summation(np.concatenate([np.linspace(0.1, 3.0, 7), [0.0, np.pi]]))


def test_su2_degree1_is_self_representation(rng):
    # D_1(g) = SWAP su2_matrix(g) SWAP
    for _ in range(100):
        g = random_element(SU2, rng)
        lhs = wigner_matrix(1, SU2, g)
        rhs = SU2_BASIS_SWAP @ su2_matrix(g) @ SU2_BASIS_SWAP
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_so3_degree1_fixed_basis(rng):
    # D_1(g) = U g U^dagger with the cartesian-to-spherical unitary
    u = CARTESIAN_TO_SPHERICAL
    assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-15
    for _ in range(100):
        g = random_element(SO3, rng)
        lhs = wigner_matrix(1, SO3, g)
        rhs = u @ rotation_matrix(g) @ u.conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_half_integer_sheet_distinction():
    # odd SU2 degrees distinguish q from -q
    q = random_element(SU2, np.random.default_rng(3))
    minus_q = type(q)(SU2, -q.data)
    d1, d2 = wigner_matrix(1, SU2, q), wigner_matrix(1, SU2, minus_q)
    assert np.max(np.abs(d1 + d2)) < 1e-12  # differ exactly by sign
    e1, e2 = wigner_matrix(2, SU2, q), wigner_matrix(2, SU2, minus_q)
    assert np.max(np.abs(e1 - e2)) < 1e-12  # even degrees cannot see it


def test_j2_mapping():
    assert j2_of(3, SU2) == 3
    assert j2_of(3, SO3) == 6


def _reference_wigner(ell, tag, g):
    # Wigner's explicit little-d sum with the z-y-z phases written out, at
    # the angles to_euler gives; shares no code with the recursion
    ang = to_euler(g)
    m = m_values(ell, tag)
    d = little_d_direct(j2_of(ell, tag), ang.beta)
    return np.exp(-1j * m * ang.alpha)[:, None] * d * np.exp(-1j * m * ang.gamma)[None, :]


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_wigner_all_matches_direct_reference(tag, rng):
    elements = [random_element(tag, rng) for _ in range(8)]
    # the Euler degeneracies beta = 0 and beta = pi
    elements += [from_euler((a, b, 0.0), tag) for a in (0.0, 1.3) for b in (0.0, np.pi)]
    if tag == SU2:  # both sheets of the double cover
        elements += [GroupElement(SU2, -g.data) for g in elements]
    lmax = 10 if tag == SU2 else 5  # doubled spins up to 10 on both groups
    stacks = wigner_all(lmax, tag, elements)
    assert len(stacks) == lmax + 1
    for ell, stack in enumerate(stacks):
        reference = np.array([_reference_wigner(ell, tag, g) for g in elements])
        assert stack.shape == reference.shape == (len(elements), dim(ell, tag), dim(ell, tag))
        assert np.max(np.abs(stack - reference)) < 1e-14


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_wigner_all_empty_element_list(tag):
    stacks = wigner_all(3, tag, [])
    assert [s.shape for s in stacks] == [(0, dim(ell, tag), dim(ell, tag)) for ell in range(4)]


def test_negative_degree_is_domain_error(rng):
    with pytest.raises(DomainError):
        wigner_all(-1, SU2, [])
    with pytest.raises(DomainError):
        wigner_matrix(-1, SO3, random_element(SO3, rng))


def test_wigner_all_tag_mismatch(rng):
    with pytest.raises(TagMismatchError):
        wigner_all(2, SU2, [random_element(SU2, rng), random_element(SO3, rng)])
    with pytest.raises(TagMismatchError):
        wigner_matrix(1, SO3, random_element(SU2, rng))


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_wigner_matrix_is_one_element_of_wigner_all(tag, rng):
    lmax = 6
    for _ in range(5):
        g = random_element(tag, rng)
        stacks = wigner_all(lmax, tag, [g])
        for ell in range(lmax):
            assert np.array_equal(wigner_matrix(ell, tag, g), stacks[ell][0])


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_stack_on_rule_matches_wigner_all_at_the_nodes(tag):
    # the separable stack and the per-element primitive agree node by node
    rule = haar_quadrature(3, tag)
    lmax = 4
    stacks = wigner_all(lmax, tag, rule.nodes)
    for ell in range(lmax + 1):
        assert np.max(np.abs(wigner_stack_on_rule(ell, tag, rule) - stacks[ell])) < 1e-13


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_stack_on_rule_is_the_same_from_a_plan_at_a_higher_bandlimit(tag):
    rule = haar_quadrature(8, tag)
    for ell in range(5):
        assert np.array_equal(wigner_stack_on_rule(ell, tag, rule, 4), wigner_stack_on_rule(ell, tag, rule))
    with pytest.raises(DomainError):
        wigner_stack_on_rule(5, tag, rule, 4)


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_plan_is_memoized_per_rule_object_and_read_only(tag):
    rule = haar_quadrature(9, tag)
    plan = separable_factors(tag, 4, rule)
    ea, eg, degrees = plan
    assert not any(arr.flags.writeable for arr in [ea, eg, *(planes for planes, _ in degrees)])
    assert separable_factors(tag, 4, rule) is plan
    # a rule made by hand with the same axes is another key: rules compare by identity
    twin = QuadratureRule(tag, rule.bandlimit, rule.alphas, rule.betas, rule.gammas, rule.beta_weights)
    misses = separable_factors.cache_info().misses
    other = separable_factors(tag, 4, twin)
    assert separable_factors.cache_info().misses == misses + 1
    assert other[0] is not ea and np.array_equal(other[0], ea) and np.array_equal(other[2][4][0], degrees[4][0])
    assert separable_factors.cache_info().maxsize is not None
    with pytest.raises(DomainError):
        separable_factors(tag, -1, rule)


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_plan_holds_one_little_d_plane_per_degree(tag):
    # SO3 keeps no half-integer plane: degree ell reads spin ell, the recursion's j2 = 2 ell
    bandlimit = 8
    rule = haar_quadrature(2 * bandlimit, tag)
    ea, eg, degrees = separable_factors(tag, bandlimit, rule)
    assert ea.shape == (rule.alphas.size, 2 * bandlimit + 1) and eg.shape == (rule.gammas.size, 2 * bandlimit + 1)
    stack = little_d_stack(j2_of(bandlimit, tag), rule.betas)
    columns = np.arange(-bandlimit, bandlimit + 1) / (2.0 if tag == SU2 else 1.0)
    assert len(degrees) == bandlimit + 1
    for ell, (planes, band) in enumerate(degrees):
        assert planes.shape == (rule.betas.size, dim(ell, tag), dim(ell, tag))
        assert np.max(np.abs(planes - stack[j2_of(ell, tag)])) < 1e-14  # Risbo's product against the recursion
        assert np.array_equal(columns[band], m_values(ell, tag))
    # the byte count the memo's docstring quotes for SO3 L=8 on rule 16
    plane_bytes = sum(planes.nbytes for planes, _ in degrees)
    assert plane_bytes == rule.betas.size * sum(dim(ell, tag) ** 2 for ell in range(bandlimit + 1)) * 8
    if tag == SO3:
        assert plane_bytes == 131_784


# the Euler degeneracies, beta at 0 and pi and just inside them, and a generic beta
EDGE_BETAS = np.array([0.0, np.pi, 1e-9, np.pi - 1e-9, 1.1])


def _jacobi_little_d(j2, betas):
    """d^(j2/2)(beta) from the Jacobi closed form, sharing no code with the
    recursion or Delta: with k = min(j +- m, j +- m'), a = |m' - m|, b = 2j - 2k - a,

        d[m', m] = (-1)^lam sqrt(C(2j - k, k + a) / C(k + b, b)) sin^a(beta/2) cos^b(beta/2) P_k^(a, b)(cos beta),

    lam = m' - m where k = j + m or j - m', else 0.  Past pi/2 it reads
    P_k^(a, b)(x) = (-1)^k P_k^(b, a)(-x), so scipy's series runs at (1 - |x|)/2."""
    i = np.arange(j2 + 1)
    jpmp, jmmp = np.broadcast_to(i[:, None], (j2 + 1,) * 2), np.broadcast_to(j2 - i[:, None], (j2 + 1,) * 2)
    jpm, jmm = jpmp.T, jmmp.T
    k = np.minimum(np.minimum(jpm, jmm), np.minimum(jpmp, jmmp))
    first = (k == jpm) | (k == jmmp)
    a = np.where(first, jpmp - jpm, jpm - jpmp)
    lam = np.where(first, jpmp - jpm, 0)
    b = j2 - 2 * k - a
    root = np.sqrt([[comb(j2 - kk, kk + aa) / comb(kk + bb, bb) for kk, aa, bb in zip(*row)] for row in zip(k, a, b)])
    out = []
    for beta in betas:
        x = np.cos(beta)
        p = eval_jacobi(k, a, b, x) if x >= 0 else (-1.0) ** k * eval_jacobi(k, b, a, -x)
        out.append((-1.0) ** lam * root * np.sin(beta / 2) ** a * np.cos(beta / 2) ** b * p)
    return np.array(out)


def test_jacobi_reference_is_wigners_sum():
    for j2 in range(7):
        for beta in EDGE_BETAS:
            assert np.max(np.abs(_jacobi_little_d(j2, [beta])[0] - little_d_direct(j2, beta))) < 1e-15


@pytest.mark.parametrize("j2", [1, 2, 17, 64, 127, 128])
def test_little_d_matches_the_jacobi_closed_form_at_large_spin(j2):
    # measured 5.5e-15 at j2 = 128 on these betas
    assert np.max(np.abs(little_d(j2, EDGE_BETAS) - _jacobi_little_d(j2, EDGE_BETAS))) < 1e-14


def test_little_d_is_orthogonal_at_spin_128():
    d = little_d(256, np.append(EDGE_BETAS, [0.3, 2.9]))
    assert np.max(np.abs(d @ d.transpose(0, 2, 1) - np.eye(257))) < 3e-14  # measured 1.4e-14


@pytest.mark.parametrize("tag, lmax", [(SO3, 8), (SU2, 16)])
def test_wigner_all_matches_the_recursion_with_its_phases(tag, lmax, rng):
    elements = [random_element(tag, rng) for _ in range(6)]
    elements += [from_euler((1.3, b, 0.4), tag) for b in EDGE_BETAS]
    if tag == SU2:  # gamma in [2 pi, 4 pi), then the other sheet of everything
        elements += [from_euler((0.3, 1.1, c), tag) for c in (2 * np.pi, 2 * np.pi + 1.0, 4 * np.pi - 1e-9)]
        elements += [GroupElement(SU2, -g.data) for g in elements]
    ang = np.array([to_euler(g) for g in elements])
    planes = little_d_stack(j2_of(lmax, tag), ang[:, 1])
    for ell, stack in enumerate(wigner_all(lmax, tag, elements)):
        ph = np.exp(-1j * ang[:, 0::2, None] * m_values(ell, tag))
        reference = ph[:, 0, :, None] * planes[j2_of(ell, tag)] * ph[:, 1, None, :]
        assert np.max(np.abs(stack - reference)) < 1e-14


def test_little_d_matches_the_recursion_up_to_so3_degree_64():
    # every SO3 spin of the plan at L = 64, on every eighth beta of its rule and
    # both ends; the plan itself (378 MB) is too large for this suite
    betas = haar_quadrature(128, SO3).betas
    betas = np.concatenate([betas[::8], betas[-1:]])
    for j2, plane in enumerate(_little_d_planes(128, betas)):
        if j2 % 2 == 0:
            assert np.max(np.abs(little_d(j2, betas) - plane)) < 1e-14, j2


def test_delta_memo_is_bounded_read_only_and_is_d_at_a_right_angle():
    assert _delta.cache_info().maxsize == 256
    for j2 in range(9):
        factors = _delta(j2)
        assert _delta(j2) is factors
        assert not any(x.flags.writeable for x in factors)
        assert np.max(np.abs(little_d(j2, np.array([np.pi / 2]))[0] - little_d_direct(j2, np.pi / 2))) < 1e-15
