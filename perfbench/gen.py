"""Make a workload's inputs from a seed and save them as one .npz file.

Runs in its own process, so that the Wigner stacks and Clebsch-Gordan
tables it fills on the way stay out of the measured process, which
receives only the arrays written here.

    python3 perfbench/gen.py --workload so3-l8-roundtrip --seed 0 --out inputs.npz
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from bispect.glyphs import PlanarMotion, apply_planar_motion, synthetic_glyphs  # noqa: E402
from bispect.groups import SO3, SU2, haar_quadrature, random_element  # noqa: E402
from bispect.harmonic import fourier_inverse, random_bandlimited, translate  # noqa: E402

# workload -> (group, bandlimit, rule bandlimit, number of distinct inputs)
ROUND_TRIPS = {
    "so3-l8-roundtrip": (SO3, 8, 16, 4),
    "su2-l4-roundtrip": (SU2, 4, 8, 8),
}
GLYPH_SIZE = 64
GLYPH_QUERIES_PER_LABEL = 8
MAX_SHIFT = 0.12  # |T| of the planar motions; the matching suite uses the same range


def round_trip_inputs(workload: str, seed: int) -> dict[str, np.ndarray]:
    """Samples of real-origin, well-conditioned functions, each translated by a
    seeded random element, on the rule the op transforms from; plus the
    untranslated coefficients the alignment gate compares against."""
    tag, bandlimit, rule_bandlimit, count = ROUND_TRIPS[workload]
    rule = haar_quadrature(rule_bandlimit, tag)
    rng = np.random.default_rng(seed)
    out: dict[str, np.ndarray] = {}
    for k in range(count):
        truth = random_bandlimited(
            bandlimit, tag, require_nonsingular=True, require_real=True,
            seed=int(rng.integers(2**31)),
        )
        x = random_element(tag, rng)
        out[f"samples_{k}"] = fourier_inverse(translate(truth, x), rule).values
        for ell in range(bandlimit + 1):
            out[f"truth_{k}_{ell}"] = truth[ell]
    return out


def glyph_inputs(seed: int) -> dict[str, np.ndarray]:
    """The index's source glyphs and copies moved by seeded planar motions."""
    glyphs = synthetic_glyphs(GLYPH_SIZE)
    rng = np.random.default_rng(seed)
    out: dict[str, np.ndarray] = {f"glyph_{label}": img for label, img in glyphs.items()}
    labels = sorted(glyphs) * GLYPH_QUERIES_PER_LABEL
    for k, label in enumerate(labels):
        alpha = rng.uniform(0.0, 2.0 * np.pi)
        tnorm = rng.uniform(0.0, MAX_SHIFT)
        tphi = rng.uniform(0.0, 2.0 * np.pi)
        motion = PlanarMotion(alpha, tnorm * np.cos(tphi), tnorm * np.sin(tphi))
        out[f"query_{k}"] = apply_planar_motion(glyphs[label], motion)
    out["query_labels"] = np.array(labels)
    return out


def generate(workload: str, seed: int) -> dict[str, np.ndarray]:
    if workload == "glyph-match":
        return glyph_inputs(seed)
    return round_trip_inputs(workload, seed)


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*ROUND_TRIPS, "glyph-match"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    np.savez(args.out, **generate(args.workload, args.seed))


if __name__ == "__main__":
    main()
