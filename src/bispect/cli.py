"""Command-line interface.

Subcommands: transform, inverse, bispectrum, reconstruct, lift, match,
index, verify.  Exit codes: 0 on success, 1 on verification failure, 2 on usage
or file-format errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import io as bio
from . import verify as bverify
from .errors import BispectError, DomainError, FormatError
from .groups import SU2, haar_quadrature
from .harmonic import fourier_forward, fourier_inverse
from .bispectrum import build_descriptor, descriptor_max_relative_gap
from .glyphs import build_glyph_index, glyph_descriptor, lift_image, match as match_query
from .reconstruct import reconstruct_so3, reconstruct_su2
from .sphere import sphere_lift

USAGE_ERROR = 2
VERIFY_FAILURE = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bispect",
        description="Harmonic analysis and bispectrum invariants on SU(2)/SO(3) and the sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="samples (group or sphere) -> coefficients")
    p.add_argument("input", help="group_samples or sphere_samples JSON file")
    p.add_argument("--bandlimit", type=int, required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("inverse", help="coefficients -> samples on a quadrature rule")
    p.add_argument("input", help="coefficients JSON file")
    p.add_argument("--rule-bandlimit", type=int, default=None, help="default: twice the bandlimit")
    p.add_argument("--output", required=True)

    p = sub.add_parser("bispectrum", help="coefficients -> invariant descriptor")
    p.add_argument("input")
    p.add_argument("--output", required=True)

    p = sub.add_parser("reconstruct", help="descriptor -> coefficients (up to translation)")
    p.add_argument("input")
    p.add_argument("--det-f1", type=float, default=None, help="SO3 determinant side information")
    p.add_argument("--output", required=True)
    p.add_argument("--tolerance", type=float, default=None, help="descriptor round-trip check tolerance")

    p = sub.add_parser("lift", help="PGM image -> sphere samples on the upper hemisphere")
    p.add_argument("input", help="binary PGM (P5) file")
    p.add_argument("--resolution", type=int, default=16)
    p.add_argument("--output", required=True)

    p = sub.add_parser("match", help="rank glyph index labels by descriptor distance")
    p.add_argument("--index", required=True, help="glyph_index JSON file")
    p.add_argument("--query", required=True,
                   help="descriptor JSON, sphere JSON on the index's grid, or PGM image (lifted at the index's resolution)")
    p.add_argument("--output", default=None, help="optional JSON output of the ranking")

    p = sub.add_parser("index", help="build a glyph index from labeled PGM images")
    p.add_argument("images", nargs="+", help="label=path.pgm entries")
    p.add_argument("--resolution", type=int, default=16)
    p.add_argument("--bandlimit", type=int, default=6)
    p.add_argument("--output", required=True)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all", help="comma-separated suite names or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="optional JSON report path")
    return parser


def _cmd_transform(args) -> int:
    kind = bio.peek_kind(args.input)
    if kind == "group_samples":
        samples = bio.load_samples(args.input)
        coeffs = fourier_forward(samples, args.bandlimit)
    elif kind == "sphere_samples":
        coeffs = sphere_lift(bio.load_sphere(args.input), args.bandlimit)
    else:
        raise FormatError(f"cannot transform kind {kind!r}", args.input)
    bio.save_coefficients(coeffs, args.output)
    print(f"wrote {args.output} ({coeffs.tag}, bandlimit {coeffs.bandlimit})")
    return 0


def _cmd_inverse(args) -> int:
    coeffs = bio.load_coefficients(args.input)
    rule = None if args.rule_bandlimit is None else haar_quadrature(args.rule_bandlimit, coeffs.tag)
    samples = fourier_inverse(coeffs, rule)
    bio.save_samples(samples, args.output)
    print(f"wrote {args.output} ({samples.rule.size} samples on the bandlimit-{samples.rule.bandlimit} rule)")
    return 0


def _cmd_bispectrum(args) -> int:
    coeffs = bio.load_coefficients(args.input)
    desc = build_descriptor(coeffs)
    bio.save_descriptor(desc, args.output)
    extra = f", det_f1 {desc.det_f1:.6g}" if desc.det_f1 is not None else ""
    print(f"wrote {args.output} ({desc.tag}, {len(desc.pairs())} entries{extra})")
    return 0


def _cmd_reconstruct(args) -> int:
    desc = bio.load_descriptor(args.input)
    if args.det_f1 is not None:
        desc = dataclasses.replace(desc, det_f1=args.det_f1)
    report = reconstruct_su2(desc) if desc.tag == SU2 else reconstruct_so3(desc)
    bio.save_coefficients(report.recovered, args.output)
    gap = descriptor_max_relative_gap(desc, build_descriptor(report.recovered))
    tol = args.tolerance if args.tolerance is not None else 1e-7
    print(f"wrote {args.output}; descriptor round-trip gap {gap:.3e} (tolerance {tol:.1e})")
    if gap > tol:
        print("round-trip gap exceeds tolerance", file=sys.stderr)
        return VERIFY_FAILURE
    return 0


def _cmd_lift(args) -> int:
    image = bio.read_pgm(args.input)
    sphere = lift_image(image, args.resolution)
    bio.save_sphere(sphere, args.output)
    print(f"wrote {args.output} (resolution {args.resolution})")
    return 0


def _cmd_match(args) -> int:
    index = bio.load_glyph_index(args.index)
    if args.query.endswith(".pgm"):
        query = glyph_descriptor(bio.read_pgm(args.query), index.resolution, index.bandlimit)
    else:
        kind = bio.peek_kind(args.query)
        if kind == "bispectrum_descriptor":
            query = bio.load_descriptor(args.query)
            print(
                f"note: descriptor file {args.query} records no grid; it must have been lifted "
                f"at the index's resolution {index.resolution}",
                file=sys.stderr,
            )
        elif kind == "sphere_samples":
            sphere = bio.load_sphere(args.query)
            if sphere.resolution != index.resolution:
                raise DomainError(
                    f"query {args.query} has resolution {sphere.resolution}, "
                    f"but the index was lifted at resolution {index.resolution}"
                )
            query = build_descriptor(sphere_lift(sphere, index.bandlimit))
        else:
            raise FormatError(f"cannot match against kind {kind!r}", args.query)
    ranked = match_query(query, index)
    for label, dist in ranked:
        print(f"{label}\t{dist:.9e}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump([{"label": l, "distance": d} for l, d in ranked], fh, indent=1)
    return 0


def _cmd_index(args) -> int:
    images = {}
    for item in args.images:
        if "=" not in item:
            raise FormatError(f"expected label=path.pgm, got {item!r}", item)
        label, path = item.split("=", 1)
        if label in images:
            raise FormatError(f"label {label!r} given twice", item)
        images[label] = bio.read_pgm(path)
    index = build_glyph_index(images, args.resolution, args.bandlimit)
    bio.save_glyph_index(index, args.output)
    print(f"wrote {args.output} ({len(index.labels)} glyphs, resolution {index.resolution}, bandlimit {index.bandlimit})")
    return 0


def _cmd_verify(args) -> int:
    names = None if args.suite == "all" else [s.strip() for s in args.suite.split(",") if s.strip()]
    report = bverify.run(names, seed=args.seed)
    for name, checks in report.suites.items():
        for c in checks:
            flag = "PASS" if c.passed else "FAIL"
            info = f"  [{c.info}]" if c.info else ""
            print(f"{flag} {name}/{c.name}: residual {c.residual:.3e} tolerance {c.tolerance:.1e}{info}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=1)
    print(f"verify: {'all suites passed' if report.passed else 'FAILURES detected'}")
    return 0 if report.passed else VERIFY_FAILURE


_DISPATCH = {
    "transform": _cmd_transform,
    "inverse": _cmd_inverse,
    "bispectrum": _cmd_bispectrum,
    "reconstruct": _cmd_reconstruct,
    "lift": _cmd_lift,
    "match": _cmd_match,
    "index": _cmd_index,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (BispectError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
