"""Machine-checkable verification suites covering the library's contracts.

Each suite runs a set of named residual checks with pinned tolerances and
returns structured results; the CLI surfaces them as pass/fail lines and a
JSON report with a nonzero exit status on any failure.  The acceptance
test module drives these same suites.
"""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import DomainError, MissingSideInfoError, PrecisionWarning
from .groups import (
    SO3,
    SU2,
    compose,
    distance,
    from_euler,
    haar_quadrature,
    identity,
    inverse,
    random_element,
    rotation_matrix,
    to_euler,
    z_rotation,
)
from .harmonic import (
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
from .wigner import CARTESIAN_TO_SPHERICAL, dim, wigner_all, wigner_stack_on_rule
from .clebsch import (
    cg_indices,
    clebsch_gordan,
    intertwiner_residual,
    subgroup_projection,
    verify_coset_homomorphism,
)
from .bispectrum import (
    bispectrum_matrix,
    bispectrum_via_oracle,
    build_descriptor,
    descriptor_distance,
    descriptor_max_relative_gap,
    support_closure_check,
    triple_correlation_grid,
)
from .reconstruct import reconstruct_so3, reconstruct_su2
from .sphere import (
    SphereFunction,
    h_rank_report,
    random_sphere_function,
    rotate_sphere,
    sphere_coefficients,
    sphere_eval,
    sphere_grid,
    sphere_lift,
    sphere_synthesis,
)
from .glyphs import (
    PlanarMotion,
    apply_planar_motion,
    build_glyph_index,
    glyph_descriptor,
    match,
    synthetic_glyphs,
)


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    info: str = ""

    @classmethod
    def from_residual(cls, name: str, residual: float, tolerance: float, info: str = "") -> "CheckResult":
        return cls(name, float(residual), float(tolerance), bool(residual <= tolerance), info)

    @classmethod
    def flag(cls, name: str, ok: bool, info: str = "") -> "CheckResult":
        """A yes/no check, recorded as residual 0.0 (yes) or 1.0 (no) against tolerance 0.5."""
        return cls.from_residual(name, 0.0 if ok else 1.0, 0.5, info)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class VerifyReport:
    seed: int
    suites: dict[str, list[CheckResult]] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for checks in self.suites.values() for c in checks)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "suites": {
                name: {
                    "passed": all(c.passed for c in checks),
                    "elapsed_seconds": self.timings.get(name, 0.0),
                    "checks": [c.to_dict() for c in checks],
                }
                for name, checks in self.suites.items()
            },
        }


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_groups(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    for tag in (SU2, SO3):
        worst_assoc = worst_ident = worst_inv = 0.0
        for _ in range(1000):
            g1, g2, g3 = (random_element(tag, rng) for _ in range(3))
            worst_assoc = max(worst_assoc, distance(compose(compose(g1, g2), g3), compose(g1, compose(g2, g3))))
            worst_ident = max(worst_ident, distance(compose(identity(tag), g1), g1))
            worst_inv = max(worst_inv, distance(compose(g1, inverse(g1)), identity(tag)))
        out.append(CheckResult.from_residual(f"{tag}-associativity", worst_assoc, 1e-12))
        out.append(CheckResult.from_residual(f"{tag}-identity", worst_ident, 1e-12))
        out.append(CheckResult.from_residual(f"{tag}-inverse", worst_inv, 1e-12))
        worst_rt = 0.0
        for _ in range(100):
            g = random_element(tag, rng)
            worst_rt = max(worst_rt, distance(g, from_euler(to_euler(g), tag)))
        out.append(CheckResult.from_residual(f"{tag}-euler-round-trip", worst_rt, 1e-12))
    worst_cov = 0.0
    for _ in range(100):
        q1, q2 = random_element(SU2, rng), random_element(SU2, rng)
        worst_cov = max(
            worst_cov,
            float(np.max(np.abs(rotation_matrix(compose(q1, q2)) - rotation_matrix(q1) @ rotation_matrix(q2)))),
        )
    out.append(CheckResult.from_residual("covering-homomorphism", worst_cov, 1e-12))
    return out


def suite_quadrature(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    for tag in (SU2, SO3):
        bandlimit = 4
        rule = haar_quadrature(bandlimit, tag)
        out.append(CheckResult.from_residual(f"{tag}-weights-sum", abs(rule.weights.sum() - 1.0), 1e-12))
        const = fourier_inverse(CoefficientSet(tag, 0, (np.ones((1, 1)),)), rule)
        out.append(
            CheckResult.from_residual(
                f"{tag}-constant-integral", abs(np.sum(rule.weights * const.values) - 1.0), 1e-12
            )
        )

        # Schur orthogonality for every coefficient pair up to degree 4
        cols, labels = [], []
        for ell in range(bandlimit + 1):
            st = wigner_stack_on_rule(ell, tag, rule, bandlimit)
            d = st.shape[1]
            cols.append(st.reshape(rule.size, d * d))
            labels += [(ell, i, j) for i in range(d) for j in range(d)]
        phi = np.concatenate(cols, axis=1)
        gram = phi.conj().T @ (rule.weights[:, None] * phi)
        expect = np.zeros_like(gram)
        for i, key in enumerate(labels):
            expect[i, i] = 1.0 / dim(key[0], tag)
        out.append(
            CheckResult.from_residual(f"{tag}-schur-orthogonality", float(np.max(np.abs(gram - expect))), 1e-10)
        )

        # mean of a nontrivial coefficient vanishes
        d1 = wigner_stack_on_rule(1, tag, rule, bandlimit)
        out.append(
            CheckResult.from_residual(
                f"{tag}-degree1-mean", abs(np.sum(rule.weights * d1[:, 0, 0])), 1e-12
            )
        )

        # translation invariance of the rule on random bandlimited functions
        coeffs = random_bandlimited(bandlimit, tag, seed=seed + 1)
        f = fourier_inverse(coeffs, rule)
        worst = 0.0
        for _ in range(5):
            x = random_element(tag, rng)
            shifted = fourier_inverse(translate(coeffs, x), rule)
            worst = max(worst, abs(np.sum(rule.weights * f.values) - np.sum(rule.weights * shifted.values)))
        out.append(CheckResult.from_residual(f"{tag}-translation-invariance", worst, 1e-10))
    return out


def suite_wigner(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    for tag in (SU2, SO3):
        trivial = wigner_all(0, tag, [random_element(tag, rng)])[0]
        out.append(CheckResult.from_residual(f"{tag}-trivial-rep", float(np.max(np.abs(trivial - 1.0))), 1e-14))
        at_e = wigner_all(4, tag, [identity(tag)])
        worst_e = max(float(np.max(np.abs(d[0] - np.eye(dim(ell, tag))))) for ell, d in enumerate(at_e))
        out.append(CheckResult.from_residual(f"{tag}-identity-element", worst_e, 1e-12))
        worst_u = worst_h = 0.0
        for ell in range(9):
            pairs = [(random_element(tag, rng), random_element(tag, rng)) for _ in range(12 if ell <= 4 else 6)]
            products = [compose(g1, g2) for g1, g2 in pairs]
            d1, d2, lhs = (wigner_all(ell, tag, gs)[ell] for gs in (*zip(*pairs), products))
            unitary_gap = d1 @ d1.conj().transpose(0, 2, 1) - np.eye(dim(ell, tag))
            worst_u = max(worst_u, float(np.max(np.abs(unitary_gap))))
            worst_h = max(worst_h, float(np.max(np.abs(lhs - d1 @ d2))))
        out.append(CheckResult.from_residual(f"{tag}-unitarity", worst_u, 1e-11))
        out.append(CheckResult.from_residual(f"{tag}-homomorphism", worst_h, 1e-10))
    return out


def _cg_residual_sweep(tag: str, pairs, per_pair: int, rng) -> float:
    worst = 0.0
    for p, q in pairs:
        cg = clebsch_gordan(tag, p, q)
        worst = max(worst, intertwiner_residual(cg, *(random_element(tag, rng) for _ in range(per_pair))))
    return worst


def suite_cg(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    su2_expect = {(1, 1): (2, 0), (3, 2): (5, 3, 1), (1, 0): (1,)}
    so3_expect = {(1, 1): (2, 1, 0), (3, 2): (5, 4, 3, 2, 1), (2, 0): (2,)}
    index_ok = all(cg_indices(SU2, p, q) == v for (p, q), v in su2_expect.items()) and all(
        cg_indices(SO3, p, q) == v for (p, q), v in so3_expect.items()
    )
    out.append(CheckResult.flag("index-lists", index_ok))

    worst_dim = 0
    for tag, lmax in ((SU2, 6), (SO3, 4)):
        for p in range(lmax + 1):
            for q in range(lmax + 1):
                cg = clebsch_gordan(tag, p, q)
                total = sum(dim(a, tag) for a in cg.indices)
                worst_dim = max(worst_dim, abs(total - dim(p, tag) * dim(q, tag)))
    out.append(CheckResult.from_residual("dimension-bookkeeping", worst_dim, 0.5))

    worst_unitary = 0.0
    for tag, lmax in ((SU2, 6), (SO3, 4)):
        for p in range(lmax + 1):
            for q in range(lmax + 1):
                c = clebsch_gordan(tag, p, q).C
                worst_unitary = max(worst_unitary, float(np.max(np.abs(c.conj().T @ c - np.eye(c.shape[0])))))
    out.append(CheckResult.from_residual("unitarity", worst_unitary, 1e-11))

    for tag, lmax, name, note in ((SU2, 6, "su2-intertwiner", "p,q <= 6"), (SO3, 4, "so3-intertwiner", "n,m <= 4")):
        pairs = itertools.product(range(lmax + 1), repeat=2)
        worst = _cg_residual_sweep(tag, pairs, 100, rng)
        out.append(CheckResult.from_residual(name, worst, 1e-10, f"{note}, 100 elements/pair"))
    worst = _cg_residual_sweep(SO3, [(9, 7), (16, 16)], 3, rng)
    out.append(CheckResult.from_residual("large-spin-intertwiner", worst, 1e-10, "SO3 (9,7), (16,16), 3 elements/pair"))
    return out


def suite_projections(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    worst_proj = 0.0
    rank_ok = True
    for ell in range(9):
        p = subgroup_projection(SO3, ell)
        worst_proj = max(worst_proj, float(np.max(np.abs(p @ p - p))))
        worst_proj = max(worst_proj, float(np.max(np.abs(p - p.conj().T))))
        rank_ok = rank_ok and np.linalg.matrix_rank(p) == 1
    out.append(CheckResult.from_residual("so3-projection-idempotent-hermitian", worst_proj, 1e-11))
    out.append(CheckResult.flag("so3-projection-rank-1", rank_ok))

    su2_rank_ok = all(
        np.linalg.matrix_rank(subgroup_projection(SU2, ell)) == (1 if ell % 2 == 0 else 0) for ell in range(9)
    )
    out.append(CheckResult.flag("su2-projection-ranks", su2_rank_ok))

    # tensor-product identity of the projections
    worst = 0.0
    for tag in (SU2, SO3):
        for s in range(5):
            for dlt in range(5):
                cg = clebsch_gordan(tag, s, dlt)
                ps, pd = subgroup_projection(tag, s), subgroup_projection(tag, dlt)
                lhs = np.kron(ps, pd)
                # lhs C (dsum P_a) C^+, and its adjoint C (dsum P_a) C^+ lhs
                left = cg.decouple(cg.couple(ps, pd, {a: subgroup_projection(tag, a) for a in cg.indices}))
                worst = max(worst, float(np.max(np.abs(lhs - left))))
                worst = max(worst, float(np.max(np.abs(lhs - left.conj().T))))
    out.append(CheckResult.from_residual("projection-tensor-identity", worst, 1e-10))

    # left H-invariance of the projected rows
    worst = 0.0
    for tag in (SU2, SO3):
        for ell in range(5):
            p = subgroup_projection(tag, ell)
            gs, hgs = [], []
            for _ in range(10):
                gs.append(random_element(tag, rng))
                h = z_rotation(rng.uniform(0, 4 * np.pi if tag == SU2 else 2 * np.pi), tag)
                hgs.append(compose(h, gs[-1]))
            lhs, rhs = (p @ wigner_all(ell, tag, elements)[ell] for elements in (hgs, gs))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    out.append(CheckResult.from_residual("projected-rows-h-invariance", worst, 1e-10))

    # lifted sphere functions expand exactly in the H-invariant coefficient
    # slice, and the lift is f(R) = s(R z): at R = (alpha, beta, gamma), R z
    # has polar angle beta and azimuth alpha
    s = random_sphere_function(6, 4, seed=seed + 3)
    coeffs = sphere_lift(s, 4)
    worst = 0.0
    for ell in range(5):
        p = subgroup_projection(SO3, ell)
        worst = max(worst, float(np.max(np.abs(p @ coeffs[ell] - coeffs[ell]))))
    rule = haar_quadrature(8, SO3)
    samples = fourier_inverse(coeffs, rule).values.reshape(rule.alphas.size, rule.betas.size, rule.gammas.size)
    betas, alphas = np.meshgrid(rule.betas, rule.alphas)
    s_rz = sphere_eval(sphere_coefficients(s, 4), betas, alphas)
    worst = max(worst, float(np.max(np.abs(samples - s_rz[:, :, None]))))
    out.append(CheckResult.from_residual("lift-invariant-span", worst, 1e-9))
    return out


def suite_coset(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    worst = 0.0
    for _ in range(20):
        rep = verify_coset_homomorphism(random_element(SO3, rng), 3)
        worst = max(worst, rep.max_residual)
    out.append(CheckResult.from_residual("coset-conditions-so3", worst, 1e-10, "20 cosets, L=3"))

    rep_e = verify_coset_homomorphism(identity(SO3), 2)
    out.append(CheckResult.from_residual("coset-identity-element", rep_e.max_residual, 1e-12))

    corrupted = verify_coset_homomorphism(random_element(SO3, rng), 2, corruption=1e-2)
    out.append(
        CheckResult(
            "coset-negative-control",
            corrupted.max_residual,
            1e-3,
            corrupted.max_residual > 1e-3,
            "corrupted matrices must violate the conditions",
        )
    )
    return out


def suite_transform(seed: int = 0) -> list[CheckResult]:
    out = []
    bandlimit = 4
    for tag in (SU2, SO3):
        rule = haar_quadrature(2 * bandlimit, tag)
        coeffs = random_bandlimited(bandlimit, tag, seed=seed + 5)
        samples = fourier_inverse(coeffs, rule)
        back = fourier_forward(samples, bandlimit)
        worst_c = max(float(np.max(np.abs(coeffs[l] - back[l]))) for l in range(bandlimit + 1))
        out.append(CheckResult.from_residual(f"{tag}-coefficient-round-trip", worst_c, 1e-10))
        again = fourier_inverse(back, rule)
        out.append(
            CheckResult.from_residual(
                f"{tag}-sample-round-trip", float(np.max(np.abs(samples.values - again.values))), 1e-9
            )
        )

        ones = SampledFunction(tag, rule, np.ones(rule.size, dtype=complex))
        fc = fourier_forward(ones, bandlimit)
        resid = abs(fc[0].ravel()[0] - 1.0) + max(float(np.max(np.abs(fc[l]))) for l in range(1, bandlimit + 1))
        out.append(CheckResult.from_residual(f"{tag}-constant-function", resid, 1e-12))

        other = random_bandlimited(bandlimit, tag, seed=seed + 6)
        parseval = abs(
            quadrature_inner(samples, fourier_inverse(other, rule)) - coefficient_inner(coeffs, other)
        )
        out.append(CheckResult.from_residual(f"{tag}-parseval", parseval, 1e-9))

        real_coeffs = random_bandlimited(bandlimit, tag, require_real=True, seed=seed + 7)
        real_samples = fourier_inverse(real_coeffs, rule)
        out.append(
            CheckResult.from_residual(
                f"{tag}-reality", float(np.max(np.abs(real_samples.values.imag))), 1e-10
            )
        )

        rng = np.random.default_rng(seed + 8)
        x = random_element(tag, rng)
        shifted = translate(coeffs, x)
        vals = evaluate_at(coeffs, [compose(x, g) for g in rule.nodes])
        direct = fourier_forward(SampledFunction(tag, rule, vals), bandlimit)
        worst_t = max(float(np.max(np.abs(shifted[l] - direct[l]))) for l in range(bandlimit + 1))
        out.append(CheckResult.from_residual(f"{tag}-translate-consistency", worst_t, 1e-9))

    # single-coefficient transform pinned by the orthogonality oracle:
    # f = conj(D_2[0, 1]) on SU2 picks out entry (1, 2) with value -1/dim(2)
    tag = SU2
    rule = haar_quadrature(4, tag)
    st = wigner_stack_on_rule(2, tag, rule)
    single = fourier_forward(SampledFunction(tag, rule, np.conj(st[:, 0, 1])), 2)
    expect = np.zeros((3, 3), dtype=complex)
    expect[1, 2] = -1.0 / 3.0
    resid = float(np.max(np.abs(single[2] - expect)))
    resid = max(resid, float(np.max(np.abs(single[0]))), float(np.max(np.abs(single[1]))))
    out.append(CheckResult.from_residual("single-coefficient-projection", resid, 1e-10))
    return out


def suite_sphere(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    grid = sphere_grid(8)
    const = SphereFunction(grid, np.ones(grid.shape, dtype=complex))
    lifted = sphere_lift(const, 4)
    resid = abs(lifted[0].ravel()[0] - 1.0) + max(float(np.max(np.abs(lifted[l]))) for l in range(1, 5))
    out.append(CheckResult.from_residual("constant-lift", resid, 1e-12))

    harm = [np.zeros(2 * l + 1, dtype=complex) for l in range(5)]
    harm[2][4] = 0.7 - 0.3j
    harm[2][0] = np.conj(harm[2][4])
    s2 = sphere_synthesis(harm, grid)
    f2 = sphere_lift(s2, 4)
    off = max(float(np.max(np.abs(f2[l]))) for l in (0, 1, 3, 4))
    svals = np.linalg.svd(f2[2], compute_uv=False)
    rank_gap = float(svals[1] / svals[0])
    out.append(CheckResult.from_residual("degree-2-harmonic-lift", max(off, rank_gap), 1e-10))

    s = random_sphere_function(8, 6, seed=seed + 9)
    coeffs = sphere_lift(s, 6)
    worst_row = max(
        float(np.max(np.abs(subgroup_projection(SO3, l) @ coeffs[l] - coeffs[l]))) for l in range(7)
    )
    out.append(CheckResult.from_residual("lift-row-support", worst_row, 1e-9))

    ranks = h_rank_report(coeffs)
    ok = all(entry["maximal"] for entry in ranks.values())
    out.append(CheckResult.flag("maximal-h-rank", ok))

    x = random_element(SO3, rng)
    rotated = rotate_sphere(s, x, bandlimit=6)
    gap = 0.0
    lift_rot = sphere_lift(rotated, 6)
    lift_trans = translate(coeffs, x)
    for l in range(7):
        gap = max(gap, float(np.max(np.abs(lift_rot[l] - lift_trans[l]))))
    out.append(CheckResult.from_residual("lift-rotation-invariance", gap, 1e-8))
    return out


def suite_bispectrum(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    bandlimit = 4
    for tag in (SU2, SO3):
        worst = 0.0
        worst_det = 0.0
        for k in range(20):
            coeffs = random_bandlimited(bandlimit, tag, require_real=True, seed=seed + 100 + k)
            x = random_element(tag, rng)
            d1 = build_descriptor(coeffs)
            d2 = build_descriptor(translate(coeffs, x))
            worst = max(worst, descriptor_max_relative_gap(d1, d2))
            if tag == SO3:
                worst_det = max(worst_det, abs(d1.det_f1 - d2.det_f1))
        out.append(
            CheckResult.from_residual(f"{tag}-translation-invariance", worst, 1e-9, "20 seeded pairs, L=4")
        )
        if tag == SO3:
            out.append(CheckResult.from_residual("so3-det-side-info-invariance", worst_det, 1e-10))

    coeffs = random_bandlimited(3, SU2, require_real=True, seed=seed + 11)
    a00 = bispectrum_matrix(coeffs, 0, 0).ravel()[0]
    out.append(
        CheckResult.from_residual("a00-is-mean-cubed", abs(a00 - coeffs[0].ravel()[0] ** 3), 1e-12)
    )

    # A(p, 0) = F(0) F(p) F(p)^+ is Hermitian PSD for positive mean
    mats = list(coeffs.matrices)
    mats[0] = np.abs(mats[0])
    coeffs_pos = CoefficientSet(SU2, 3, tuple(mats))
    worst = 0.0
    for p in range(1, 4):
        ap0 = bispectrum_matrix(coeffs_pos, p, 0)
        worst = max(worst, float(np.max(np.abs(ap0 - ap0.conj().T))))
        worst = max(worst, max(0.0, -float(np.linalg.eigvalsh(0.5 * (ap0 + ap0.conj().T))[0])))
    out.append(CheckResult.from_residual("hermitian-slice", worst, 1e-10))

    d = build_descriptor(coeffs)
    other = build_descriptor(random_bandlimited(3, SU2, require_real=True, seed=seed + 12))
    xlate = build_descriptor(translate(coeffs, random_element(SU2, rng)))
    sep_ok = (
        descriptor_distance(d, d) == 0.0
        and abs(descriptor_distance(d, other) - descriptor_distance(other, d)) < 1e-12
        and descriptor_distance(d, xlate) <= 1e-8 * max(1.0, descriptor_distance(d, other))
        and descriptor_distance(d, other) > 1e-2
    )
    out.append(CheckResult.flag("distance-axioms-separation", sep_ok))
    return out


def suite_oracle(seed: int = 0) -> list[CheckResult]:
    out = []
    bandlimit = 2
    for tag in (SU2, SO3):
        worst = 0.0
        for k in range(3):
            coeffs = random_bandlimited(bandlimit, tag, require_real=True, seed=seed + 200 + k)
            rule = haar_quadrature(3 * bandlimit, tag)
            f = fourier_inverse(coeffs, rule)
            grid = triple_correlation_grid(f, bandlimit)
            for p in range(bandlimit + 1):
                for q in range(bandlimit + 1):
                    formula = bispectrum_matrix(coeffs, p, q)
                    oracle = bispectrum_via_oracle(f, p, q, bandlimit, grid)
                    denom = max(float(np.linalg.norm(formula)), 1e-300)
                    worst = max(worst, float(np.linalg.norm(formula - oracle)) / denom)
        out.append(
            CheckResult.from_residual(f"{tag}-oracle-vs-formula", worst, 1e-6, "3 seeded functions, L=2")
        )

    # constant function: A(0,0) = 1, everything else vanishes
    tag = SU2
    rule = haar_quadrature(3 * bandlimit, tag)
    ones = SampledFunction(tag, rule, np.ones(rule.size, dtype=complex))
    grid = triple_correlation_grid(ones, bandlimit)
    resid = abs(bispectrum_via_oracle(ones, 0, 0, bandlimit, grid).ravel()[0] - 1.0)
    for p, q in ((1, 0), (1, 1), (2, 1)):
        resid = max(resid, float(np.max(np.abs(bispectrum_via_oracle(ones, p, q, bandlimit, grid)))))
    out.append(CheckResult.from_residual("constant-function-oracle", resid, 1e-8))

    # left-translation invariance of the tabulated triple correlation
    coeffs = random_bandlimited(1, tag, require_real=True, seed=seed + 13)
    rule1 = haar_quadrature(3, tag)
    f = fourier_inverse(coeffs, rule1)
    rng = np.random.default_rng(seed + 14)
    x = random_element(tag, rng)
    f_shift = fourier_inverse(translate(coeffs, x), rule1)
    g1 = triple_correlation_grid(f, 1)
    g2 = triple_correlation_grid(f_shift, 1)
    out.append(
        CheckResult.from_residual("triple-correlation-invariance", float(np.max(np.abs(g1 - g2))), 1e-9)
    )

    # corrupted intertwiner must break the formula/oracle agreement; the
    # phased column must hit a nonzero block of dimension > 1 to survive
    coeffs = random_bandlimited(2, SU2, require_real=True, seed=seed + 15)
    cg = clebsch_gordan(SU2, 1, 1)
    bad_c = cg.C.astype(complex)
    bad_c[:, 0] *= np.exp(0.25j)
    bad_cg = replace(cg, C=bad_c)
    bad = bad_cg.decouple(bad_cg.couple(coeffs[1], coeffs[1], {a: coeffs[a].conj().T for a in cg.indices}))
    rule = haar_quadrature(6, SU2)
    oracle = bispectrum_via_oracle(fourier_inverse(coeffs, rule), 1, 1, 2)
    mismatch = float(np.linalg.norm(bad - oracle)) / max(float(np.linalg.norm(oracle)), 1e-300)
    out.append(
        CheckResult(
            "corrupted-intertwiner-control", mismatch, 1e-3, mismatch > 1e-3, "corruption must be detected"
        )
    )
    return out


def suite_closure(seed: int = 0) -> list[CheckResult]:
    out = []
    trivial = support_closure_check({0}, SU2)
    even = support_closure_check({0, 2, 4}, SU2)
    out.append(CheckResult.flag("su2-even-support-closed", trivial.closed and even.closed))
    odd = support_closure_check({0, 1}, SU2)
    witness_ok = (not odd.closed) and odd.witness == (1, 1, 2)
    out.append(CheckResult.flag("su2-01-support-witness", witness_ok, f"witness={odd.witness}"))
    rep = support_closure_check({0, 1, 2, 3, 4}, SO3, check_conjugation=True)
    worst = max(rep.conjugation_self_dual.values())
    out.append(CheckResult.from_residual("conjugation-self-duality", worst, 1e-10))
    contiguous_ok = (not rep.closed) and rep.witness == (1, 4, 5)
    out.append(CheckResult.flag("so3-contiguous-support-witness", contiguous_ok, f"witness={rep.witness}"))
    return out


def suite_reconstruct_su2(seed: int = 0) -> list[CheckResult]:
    worst_align = worst_desc = 0.0
    cond_worst = 0.0
    for k in range(20):
        coeffs = random_bandlimited(4, SU2, require_real=True, require_nonsingular=True, seed=seed + 300 + k)
        desc = build_descriptor(coeffs)
        report = reconstruct_su2(desc, ground_truth=coeffs)
        worst_align = max(worst_align, report.witness.max_residual)
        worst_desc = max(worst_desc, descriptor_max_relative_gap(desc, build_descriptor(report.recovered)))
        cond_worst = max(cond_worst, max(report.condition_numbers.values()))
    return [
        CheckResult.from_residual("alignment-residual", worst_align, 1e-7, "20 seeded functions, L=4"),
        CheckResult.from_residual("descriptor-round-trip", worst_desc, 1e-7),
        CheckResult.from_residual("condition-diagnostics", cond_worst, 1e8),
    ]


def suite_reconstruct_so3(seed: int = 0) -> list[CheckResult]:
    out = []
    worst_align = worst_desc = 0.0
    negative_branch_seen = False
    for k in range(20):
        coeffs = random_bandlimited(4, SO3, require_real=True, require_nonsingular=True, seed=seed + 400 + k)
        if np.linalg.det(coeffs[1]).real < 0:
            negative_branch_seen = True
        desc = build_descriptor(coeffs)
        report = reconstruct_so3(desc, ground_truth=coeffs)
        worst_align = max(worst_align, report.witness.max_residual)
        worst_desc = max(worst_desc, descriptor_max_relative_gap(desc, build_descriptor(report.recovered)))
    out.append(CheckResult.from_residual("alignment-residual", worst_align, 1e-7, "20 seeded functions, L=4"))
    out.append(CheckResult.from_residual("descriptor-round-trip", worst_desc, 1e-7))

    # force the negative-determinant branch by an improper sign pattern
    coeffs = random_bandlimited(4, SO3, require_real=True, require_nonsingular=True, seed=seed + 450)
    u = CARTESIAN_TO_SPHERICAL
    fs = (u.conj().T @ coeffs[1] @ u).real
    if np.linalg.det(fs) < 0:
        fs = -fs
    flipped = u @ (np.diag([-1.0, 1.0, 1.0]) @ fs) @ u.conj().T
    mats = list(coeffs.matrices)
    mats[1] = flipped
    neg = CoefficientSet(SO3, 4, tuple(mats))
    desc = build_descriptor(neg)
    branch_ok = desc.det_f1 is not None and desc.det_f1 < 0
    report = reconstruct_so3(desc, ground_truth=neg)
    resid = max(
        report.witness.max_residual, descriptor_max_relative_gap(desc, build_descriptor(report.recovered))
    )
    out.append(
        CheckResult.from_residual(
            "negative-det-branch",
            resid if branch_ok else 1.0,
            1e-7,
            f"det F(1) = {desc.det_f1:.3e}; natural negative seeds seen: {negative_branch_seen}",
        )
    )

    stripped = replace(desc, det_f1=None)
    try:
        reconstruct_so3(stripped)
        missing_ok = False
    except MissingSideInfoError:
        missing_ok = True
    out.append(CheckResult.flag("missing-side-info-error", missing_ok))
    return out


def suite_reality(seed: int = 0) -> list[CheckResult]:
    """det F(1) >= -1e-12 for real SU2 functions; the residual is minus the
    smallest det over 100 of them, so a passing run shows its margin."""
    smallest = min(
        float(np.linalg.det(random_bandlimited(4, SU2, require_real=True, seed=seed + 500 + k)[1]).real)
        for k in range(100)
    )
    return [
        CheckResult.from_residual(
            "su2-det-f1-nonnegative", -smallest, 1e-12, f"smallest det F(1) {smallest:.3e} over 100 seeded real functions"
        )
    ]


def suite_matching(seed: int = 0) -> list[CheckResult]:
    resolution, bandlimit = 16, 6
    glyphs = synthetic_glyphs(64)
    index = build_glyph_index(glyphs, resolution, bandlimit)
    rng = np.random.default_rng(seed + 2024)
    correct = total = 0
    same_max, cross_min = 0.0, np.inf
    for label in sorted(glyphs):
        img = glyphs[label]
        for _ in range(10):
            alpha = rng.uniform(0, 2 * np.pi)
            tnorm = rng.uniform(0.0, 0.12)
            tphi = rng.uniform(0, 2 * np.pi)
            motion = PlanarMotion(alpha, tnorm * np.cos(tphi), tnorm * np.sin(tphi))
            moved = apply_planar_motion(img, motion)
            ranked = match(glyph_descriptor(moved, resolution, bandlimit), index)
            total += 1
            if ranked[0][0] == label:
                correct += 1
            by_label = dict(ranked)
            same_max = max(same_max, by_label[label])
            cross_min = min(cross_min, min(v for k, v in by_label.items() if k != label))
    accuracy = correct / total
    ratio = same_max / cross_min
    return [
        CheckResult(
            "rank-1-accuracy", 1.0 - accuracy, 0.0, accuracy == 1.0, f"{correct}/{total} correct"
        ),
        CheckResult(
            "separation-ratio",
            ratio,
            0.5,
            ratio < 0.5,
            f"same-glyph max {same_max:.3e} / cross-glyph min {cross_min:.3e}",
        ),
    ]


SUITES = {
    "groups": suite_groups,
    "quadrature": suite_quadrature,
    "wigner": suite_wigner,
    "cg": suite_cg,
    "projections": suite_projections,
    "coset": suite_coset,
    "transform": suite_transform,
    "sphere": suite_sphere,
    "bispectrum": suite_bispectrum,
    "oracle": suite_oracle,
    "closure": suite_closure,
    "reconstruct-su2": suite_reconstruct_su2,
    "reconstruct-so3": suite_reconstruct_so3,
    "reality": suite_reality,
    "matching": suite_matching,
}


def run(suites: list[str] | None = None, seed: int = 0) -> VerifyReport:
    """Run the selected suites (all by default) and collect results.

    Raises DomainError, before any suite runs, for an empty selection or an
    unknown suite name.
    """
    names = list(SUITES) if suites is None else list(suites)
    if not names:
        raise DomainError("no verification suite selected")
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise DomainError(f"unknown suite {unknown[0]!r}; available: {', '.join(SUITES)}")
    report = VerifyReport(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        for name in names:
            start = time.perf_counter()
            report.suites[name] = SUITES[name](seed)
            report.timings[name] = time.perf_counter() - start
    return report
