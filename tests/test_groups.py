import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispect.errors import DomainError, TagMismatchError
from bispect.groups import (
    SO3,
    SU2,
    EulerAngles,
    GroupElement,
    QuadratureRule,
    compose,
    distance,
    from_euler,
    gamma_period,
    haar_quadrature,
    haar_rule_size,
    identity,
    inverse,
    random_element,
    rotation_matrix,
    su2_matrix,
    to_euler,
    z_rotation,
)


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_group_axioms(tag, rng):
    e = identity(tag)
    for _ in range(1000):
        g1, g2, g3 = (random_element(tag, rng) for _ in range(3))
        assert distance(compose(compose(g1, g2), g3), compose(g1, compose(g2, g3))) < 1e-12
        assert distance(compose(e, g1), g1) < 1e-12
        assert distance(compose(g1, e), g1) < 1e-12
        assert distance(compose(g1, inverse(g1)), e) < 1e-12


def test_compose_tag_mismatch(rng):
    with pytest.raises(TagMismatchError):
        compose(random_element(SU2, rng), random_element(SO3, rng))


def test_covering_map_is_homomorphism(rng):
    for _ in range(200):
        q1, q2 = random_element(SU2, rng), random_element(SU2, rng)
        lhs = rotation_matrix(compose(q1, q2))
        rhs = rotation_matrix(q1) @ rotation_matrix(q2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_su2_matrix_is_homomorphism(rng):
    for _ in range(100):
        q1, q2 = random_element(SU2, rng), random_element(SU2, rng)
        assert np.max(np.abs(su2_matrix(compose(q1, q2)) - su2_matrix(q1) @ su2_matrix(q2))) < 1e-12


def test_from_euler_identity():
    for tag in (SU2, SO3):
        assert distance(from_euler((0.0, 0.0, 0.0), tag), identity(tag)) == 0.0


def test_gimbal_degeneracy_same_element():
    # (alpha, 0, gamma) and (alpha+gamma, 0, 0) are the same group element
    for tag in (SU2, SO3):
        g1 = from_euler((0.4, 0.0, 1.1), tag)
        g2 = from_euler((1.5, 0.0, 0.0), tag)
        assert distance(g1, g2) < 1e-12


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_euler_round_trip(tag, rng):
    for _ in range(100):
        g = random_element(tag, rng)
        ang = to_euler(g)
        assert 0.0 <= ang.alpha < 2 * np.pi
        assert 0.0 <= ang.beta <= np.pi
        assert 0.0 <= ang.gamma < (4 * np.pi if tag == SU2 else 2 * np.pi)
        assert distance(g, from_euler(ang, tag)) < 1e-12


def test_euler_round_trip_degenerate_cases():
    minus_e = GroupElement(SU2, np.array([-1.0, 0.0, 0.0, 0.0]))
    assert distance(minus_e, from_euler(to_euler(minus_e), SU2)) < 1e-12
    beta_pi = GroupElement(SU2, np.array([0.0, 0.3, np.sqrt(1 - 0.09), 0.0]))
    assert distance(beta_pi, from_euler(to_euler(beta_pi), SU2)) < 1e-12
    rz = z_rotation(2.5, SO3)
    ang = to_euler(rz)
    assert ang.gamma == 0.0
    assert distance(rz, from_euler(ang, SO3)) < 1e-12


# beta anywhere, or at / within 1e-14, 5e-13, 2e-12 or 1e-9 of the degeneracies
# 0 and pi; 5e-13 and 2e-12 sit on either side of 1e-12
_BETAS = st.one_of(
    st.floats(0.0, np.pi),
    st.builds(
        lambda edge, offset: abs(edge - offset),
        st.sampled_from([0.0, np.pi]),
        st.sampled_from([0.0, 1e-14, 5e-13, 2e-12, 1e-9]),
    ),
)


@pytest.mark.parametrize("tag", [SU2, SO3])
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    alpha=st.floats(0.0, 2 * np.pi, exclude_max=True),
    beta=_BETAS,
    gamma=st.floats(0.0, 4 * np.pi, exclude_max=True),
    far_sheet=st.booleans(),
)
def test_euler_round_trip_property(tag, alpha, beta, gamma, far_sheet):
    if tag == SO3:
        gamma = gamma / 2.0  # [0, 4*pi) onto SO3's [0, 2*pi) without reaching 2*pi
    g = from_euler((alpha, beta, gamma), tag)
    if tag == SU2 and far_sheet:
        g = GroupElement(SU2, -g.data)
    assert distance(from_euler(to_euler(g), tag), g) <= 1e-12


@pytest.mark.parametrize("tag", [SU2, SO3])
@pytest.mark.parametrize("edge", [0.0, np.pi], ids=["0", "pi"])
@pytest.mark.parametrize("offset", [1e-14, 5e-13, 1e-12, 2e-12, 1e-11, 1e-9])
def test_euler_round_trip_next_to_the_degeneracies(tag, edge, offset):
    # at offset 1e-14 the degenerate rule (beta read as 0 or pi) costs up to 3e-14
    beta = abs(edge - offset)
    worst = 0.0
    for alpha in np.linspace(0.0, 2 * np.pi, 13, endpoint=False):
        for gamma in np.linspace(0.0, gamma_period(tag), 13, endpoint=False):
            g = from_euler((alpha, beta, gamma), tag)
            for h in (g, GroupElement(SU2, -g.data)) if tag == SU2 else (g,):
                worst = max(worst, distance(from_euler(to_euler(h), tag), h))
    assert worst <= 3e-14


def test_so3_angles_are_those_of_either_su2_lift(rng):
    # both groups read their angles on one path: an SO3 rotation has the
    # angles of the quaternions q and -q covering it, mod 2*pi
    quats = [random_element(SU2, rng).data for _ in range(500)]
    quats += [from_euler((a, b, c), SU2).data for a in (0.0, 1.3, 5.9) for b in (0.0, np.pi) for c in (0.0, 2.2, 7.1)]
    for q in quats:
        so3 = np.array(to_euler(GroupElement(SO3, rotation_matrix(GroupElement(SU2, q)))))
        for lift in (q, -q):
            d = np.abs(so3 - np.array(to_euler(GroupElement(SU2, lift)))) % (2 * np.pi)
            assert np.max(np.minimum(d, 2 * np.pi - d)) <= 1e-14


def _y_rotation(beta, tag):
    if tag == SU2:
        return GroupElement(SU2, np.array([np.cos(beta / 2), 0.0, np.sin(beta / 2), 0.0]))
    c, s = np.cos(beta), np.sin(beta)
    return GroupElement(SO3, np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]))


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_from_euler_is_the_zyz_product(tag, rng):
    for _ in range(300):
        a, b, c = rng.uniform(0.0, 2 * np.pi), rng.uniform(0.0, np.pi), rng.uniform(0.0, gamma_period(tag))
        zyz = compose(compose(z_rotation(a, tag), _y_rotation(b, tag)), z_rotation(c, tag))
        assert distance(from_euler((a, b, c), tag), zyz) <= 1e-14


def test_from_euler_domain_errors():
    with pytest.raises(DomainError):
        from_euler((-0.1, 0.5, 0.5), SO3)
    with pytest.raises(DomainError):
        from_euler((0.1, 3.5, 0.5), SO3)
    with pytest.raises(DomainError):
        from_euler((0.1, 0.5, 2 * np.pi + 0.1), SO3)
    # gamma up to 4*pi is legal for SU2
    from_euler((0.1, 0.5, 2 * np.pi + 0.1), SU2)
    with pytest.raises(DomainError):
        from_euler((0.1, 0.5, 4 * np.pi + 0.1), SU2)


def test_group_element_validation():
    with pytest.raises(DomainError):
        GroupElement(SU2, np.array([1.0, 1.0, 0.0, 0.0]))  # not unit
    with pytest.raises(DomainError):
        GroupElement(SO3, np.diag([1.0, 1.0, -1.0]))  # det -1
    with pytest.raises(TagMismatchError):
        GroupElement("SP4", np.eye(3))


def test_array_holding_values_compare_by_identity():
    # a generated __eq__ would compare the arrays and raise on their truth value
    rule = haar_quadrature(2, SO3)
    rebuilt = QuadratureRule(rule.tag, rule.bandlimit, rule.alphas, rule.betas, rule.gammas, rule.beta_weights)
    assert (rule == rebuilt) is False
    assert rule == rule
    assert hash(rule) == hash(rule) and hash(rule) != hash(rebuilt)
    g = identity(SO3)
    assert (g == GroupElement(SO3, g.data)) is False
    assert isinstance(hash(g), int)


def _caller_arrays(kind):
    """(the caller's arrays, the arrays the object built from them holds)"""
    from bispect.harmonic import CoefficientSet, SampledFunction
    from bispect.sphere import SphereFunction, SphereGrid, sphere_grid

    if kind == "GroupElement":
        a = np.eye(3)
        return [a], [GroupElement(SO3, a).data]
    if kind == "QuadratureRule":
        r = haar_quadrature(1, SU2)
        axes = [np.array(v) for v in (r.alphas, r.betas, r.gammas, r.beta_weights)]
        held = QuadratureRule(SU2, 1, *axes)
        return axes, [held.alphas, held.betas, held.gammas, held.beta_weights]
    if kind == "SampledFunction":
        v = np.zeros(haar_quadrature(1, SU2).size, dtype=complex)
        return [v], [SampledFunction(SU2, haar_quadrature(1, SU2), v).values]
    if kind == "CoefficientSet":
        m = [np.ones((1, 1), dtype=complex), np.eye(3, dtype=complex)]
        return m, list(CoefficientSet(SO3, 1, tuple(m)).matrices)
    g = sphere_grid(2)
    if kind == "SphereGrid":
        axes = [np.array(v) for v in (g.thetas, g.phis, g.theta_weights)]
        held = SphereGrid(2, *axes)
        return axes, [held.thetas, held.phis, held.theta_weights]
    v = np.zeros(g.shape, dtype=complex)
    return [v], [SphereFunction(g, v).values]


@pytest.mark.parametrize(
    "kind", ["GroupElement", "QuadratureRule", "SampledFunction", "CoefficientSet", "SphereGrid", "SphereFunction"]
)
def test_value_objects_freeze_their_own_view(kind):
    # the object's arrays are read-only; the caller's stay writable.  Every object
    # but SampledFunction, whose values may run to hundreds of MB, holds a copy, so
    # after a = eye(3); g = GroupElement(SO3, a); a[0, 0] = 2, g is still the identity
    given, held = _caller_arrays(kind)
    for a, h in zip(given, held):
        assert np.shares_memory(a, h) == (kind == "SampledFunction") and not h.flags.writeable
        before = h.copy()
        a.flat[0] = 2.0
        assert np.array_equal(h, before) != (kind == "SampledFunction")
    for h in held:
        with pytest.raises(ValueError, match="read-only"):
            h.flat[0] = 3.0


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_quadrature_weights_normalized(tag):
    for bandlimit in range(5):
        rule = haar_quadrature(bandlimit, tag)
        assert abs(rule.weights.sum() - 1.0) < 1e-12
        assert np.all(rule.weights > 0)
        assert len(rule.nodes) == rule.size == haar_rule_size(bandlimit)


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_schur_orthogonality(tag):
    # quadrature integrals of coefficient products match delta / dim
    from bispect.wigner import dim, wigner_stack_on_rule

    bandlimit = 4
    rule = haar_quadrature(bandlimit, tag)
    cols, labels = [], []
    for ell in range(bandlimit + 1):
        st = wigner_stack_on_rule(ell, tag, rule)
        d = st.shape[1]
        cols.append(st.reshape(rule.size, d * d))
        labels += [(ell, i, j) for i in range(d) for j in range(d)]
    phi = np.concatenate(cols, axis=1)
    gram = phi.conj().T @ (rule.weights[:, None] * phi)
    expect = np.zeros_like(gram)
    for i, (ell, _, _) in enumerate(labels):
        expect[i, i] = 1.0 / dim(ell, tag)
    assert np.max(np.abs(gram - expect)) < 1e-10


def test_schur_constant_against_high_resolution_rule():
    # the 1/dim constant confirmed on a much finer rule than required
    from bispect.wigner import wigner_stack_on_rule

    for tag in (SU2, SO3):
        rule = haar_quadrature(9, tag)
        st = wigner_stack_on_rule(2, tag, rule)
        val = np.sum(rule.weights * st[:, 0, 1] * np.conj(st[:, 0, 1]))
        d = st.shape[1]
        assert abs(val - 1.0 / d) < 1e-12


@pytest.mark.parametrize("tag", [SU2, SO3])
def test_quadrature_translation_invariance(tag, rng):
    from bispect.harmonic import fourier_inverse, random_bandlimited, translate

    bandlimit = 3
    rule = haar_quadrature(bandlimit, tag)
    coeffs = random_bandlimited(bandlimit, tag, seed=42)
    base = np.sum(rule.weights * fourier_inverse(coeffs, rule).values)
    for _ in range(10):
        x = random_element(tag, rng)
        shifted = np.sum(rule.weights * fourier_inverse(translate(coeffs, x), rule).values)
        assert abs(base - shifted) < 1e-10


def test_constant_integral():
    for tag in (SU2, SO3):
        rule = haar_quadrature(2, tag)
        assert abs(np.sum(rule.weights) - 1.0) < 1e-12


def test_degree_one_mean_vanishes():
    from bispect.wigner import wigner_stack_on_rule

    for tag in (SU2, SO3):
        rule = haar_quadrature(3, tag)
        st = wigner_stack_on_rule(1, tag, rule)
        assert abs(np.sum(rule.weights * st[:, 0, 0])) < 1e-12


def test_euler_angles_tuple_round_trip():
    ang = EulerAngles(0.3, 0.7, 1.2)
    assert tuple(ang) == (0.3, 0.7, 1.2)
