"""The measured process: set up one workload, then run ops in a closed loop.

One client, one thread: the next op starts when the previous one has
completed and passed or failed its correctness gate.  The process starts
cold; ``run.py`` launches a fresh one for every set-up it measures.

    python3 perfbench/worker.py --workload su2-l4-roundtrip --inputs inputs.npz \
        --seconds 3 --trace 0 --launched <time.monotonic() at launch> --out worker.json
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from bispect.bispectrum import build_descriptor  # noqa: E402
from bispect.clebsch import clebsch_gordan  # noqa: E402
from bispect.glyphs import build_glyph_index, lift_image, match  # noqa: E402
from bispect.groups import SO3, haar_quadrature  # noqa: E402
from bispect.harmonic import CoefficientSet, SampledFunction, fourier_forward, fourier_inverse  # noqa: E402
from bispect.io import load_glyph_index, save_glyph_index  # noqa: E402
from bispect.reconstruct import find_alignment, reconstruct_so3, reconstruct_su2  # noqa: E402
from bispect.sphere import sphere_lift  # noqa: E402
from bispect.wigner import wigner_stack_on_rule  # noqa: E402

from gen import ROUND_TRIPS  # noqa: E402
from spans import Tracer, no_span, self_times, stage_coverage, write_chrome_trace  # noqa: E402

ALIGN_TOL = 1e-7  # alignment residual gate of the round trips
NORM_TOL = 1e-8  # relative Parseval and imaginary-part gate on the synthesized samples

# In the traced run every second op is traced until this many are, so the
# per-layer call counts repeat exactly and traced and untraced ops
# interleave for the overhead figure.
TRACED_OPS = {"so3-l8-roundtrip": 16, "su2-l4-roundtrip": 400, "glyph-match": 100}

# Sizes taken from array nbytes, file sizes and node counts, not timed; they
# repeat exactly from run to run.
COMPUTED_COUNTS = (
    "groups.rule_nodes",
    "wigner.stack_bytes",
    "clebsch.tables",
    "clebsch.table_bytes",
    "bispectrum.descriptor_bytes",
    "io.index_bytes",
)


class RoundTrip:
    """samples -> coefficients -> descriptor -> reconstruction -> alignment -> samples."""

    def __init__(self, workload: str, inputs):
        self.tag, self.bandlimit, self.rule_bandlimit, self.n_inputs = ROUND_TRIPS[workload]
        self.inputs = inputs
        self.reconstruct = reconstruct_so3 if self.tag == SO3 else reconstruct_su2

    def setup(self, span, warm: bool, workdir: Path) -> None:
        with span("groups.haar_quadrature"):
            self.rule = haar_quadrature(self.rule_bandlimit, self.tag)
        if warm:
            # Fill each cold cache in its own layer's span, in dependency order;
            # otherwise the first op fills them inside the transform and descriptor.
            for ell in range(self.bandlimit + 1):
                with span("wigner.wigner_stack_on_rule"):
                    wigner_stack_on_rule(ell, self.tag, self.rule)
            for p, q in self._pairs():
                with span("clebsch.clebsch_gordan"):
                    clebsch_gordan(self.tag, p, q)
        self.samples = [
            SampledFunction(self.tag, self.rule, self.inputs[f"samples_{k}"]) for k in range(self.n_inputs)
        ]
        self.truth = [
            CoefficientSet(
                self.tag,
                self.bandlimit,
                tuple(self.inputs[f"truth_{k}_{ell}"] for ell in range(self.bandlimit + 1)),
            )
            for k in range(self.n_inputs)
        ]

    def _pairs(self):
        return [(p, q) for p in range(self.bandlimit + 1) for q in range(self.bandlimit + 1)]

    def op(self, k: int, span):
        with span("harmonic.fourier_forward"):
            coeffs = fourier_forward(self.samples[k], self.bandlimit)
        with span("bispectrum.build_descriptor"):
            desc = build_descriptor(coeffs)
        with span("reconstruct.reconstruct"):
            recovered = self.reconstruct(desc).recovered
        with span("reconstruct.find_alignment"):
            witness = find_alignment(self.truth[k], recovered)
        with span("harmonic.fourier_inverse"):
            back = fourier_inverse(recovered, self.rule)
        return desc, witness, back

    def gate(self, k: int, out) -> bool:
        """Alignment residual within ALIGN_TOL, and the synthesized samples of
        the recovered set are those of a translate of the real input: real,
        with the input's norm."""
        _, witness, back = out
        if not witness.max_residual <= ALIGN_TOL:
            return False
        w = self.rule.weights
        norm_in = float(np.sum(w * np.abs(self.samples[k].values) ** 2))
        norm_out = float(np.sum(w * np.abs(back.values) ** 2))
        return bool(
            abs(norm_out - norm_in) <= NORM_TOL * norm_in
            and np.max(np.abs(back.values.imag)) <= NORM_TOL * np.max(np.abs(back.values))
        )

    def computed_counts(self, first_out) -> dict[str, int]:
        tables = [clebsch_gordan(self.tag, p, q).C for p, q in self._pairs()]
        return {
            "groups.rule_nodes": self.rule.size,
            "wigner.stack_bytes": sum(
                wigner_stack_on_rule(ell, self.tag, self.rule).nbytes for ell in range(self.bandlimit + 1)
            ),
            "clebsch.tables": len(tables),
            "clebsch.table_bytes": sum(c.nbytes for c in tables),
            "bispectrum.descriptor_bytes": descriptor_bytes(first_out[0]),
            "io.index_bytes": 0,
        }


class GlyphMatch:
    """moved image -> sphere lift -> descriptor -> nearest label in a reloaded index."""

    RESOLUTION = 16
    BANDLIMIT = 6

    def __init__(self, inputs):
        self.inputs = inputs
        self.labels = [str(s) for s in inputs["query_labels"]]
        self.n_inputs = len(self.labels)

    def setup(self, span, warm: bool, workdir: Path) -> None:
        if warm:
            for p in range(self.BANDLIMIT + 1):
                for q in range(self.BANDLIMIT + 1):
                    with span("clebsch.clebsch_gordan"):
                        clebsch_gordan(SO3, p, q)
        glyphs = {key[len("glyph_"):]: img for key, img in self.inputs.items() if key.startswith("glyph_")}
        path = str(workdir / "index.json")
        with span("glyphs.build_glyph_index"):
            index = build_glyph_index(glyphs, self.RESOLUTION, self.BANDLIMIT)
        with span("io.save_glyph_index"):
            save_glyph_index(index, path)
        with span("io.load_glyph_index"):
            self.index = load_glyph_index(path)
        self.index_bytes = os.path.getsize(path)
        self.queries = [self.inputs[f"query_{k}"] for k in range(self.n_inputs)]

    def op(self, k: int, span):
        with span("glyphs.lift_image"):
            lifted = lift_image(self.queries[k], self.RESOLUTION)
        with span("sphere.sphere_lift"):
            coeffs = sphere_lift(lifted, self.BANDLIMIT)
        with span("bispectrum.build_descriptor"):
            desc = build_descriptor(coeffs)
        with span("glyphs.match"):
            ranked = match(desc, self.index)
        return desc, ranked

    def gate(self, k: int, out) -> bool:
        """The rank-1 label is the glyph the query was moved from."""
        return out[1][0][0] == self.labels[k]

    def computed_counts(self, first_out) -> dict[str, int]:
        tables = [clebsch_gordan(SO3, p, q).C for p in range(self.BANDLIMIT + 1) for q in range(self.BANDLIMIT + 1)]
        return {
            "groups.rule_nodes": 0,
            "wigner.stack_bytes": 0,
            "clebsch.tables": len(tables),
            "clebsch.table_bytes": sum(c.nbytes for c in tables),
            "bispectrum.descriptor_bytes": descriptor_bytes(first_out[0]),
            "io.index_bytes": self.index_bytes,
        }


def descriptor_bytes(desc) -> int:
    return sum(entry.nbytes for entry in desc.entries.values())


def make_workload(workload: str, inputs):
    return GlyphMatch(inputs) if workload == "glyph-match" else RoundTrip(workload, inputs)


def one_op(wl, k: int, tracer: Tracer | None, op_id: int):
    """Run and check one op.  Returns (passed, latency in s, output or None).

    An exception or a failed gate counts the op as failed; the traceback
    goes to stderr so the failure is reported as found.
    """
    span = tracer.span if tracer else no_span
    if tracer:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        with span("op"):
            out = wl.op(k, span)
        latency = time.perf_counter() - t0
        passed = wl.gate(k, out)
        if not passed:
            print(f"op {op_id}: input {k} failed its correctness gate", file=sys.stderr)
    except Exception:  # noqa: BLE001 - a failing op is counted, and the loop goes on
        latency = time.perf_counter() - t0
        traceback.print_exc()
        passed, out = False, None
    finally:
        if tracer:
            tracer.op = None
    return passed, latency, out


def timed_ops(wl, seconds: float, tracer: Tracer | None = None, traced_cap: int = 0) -> dict:
    """Closed loop for ``seconds``; with a tracer, every second op is traced
    until ``traced_cap`` ops have been."""
    ops = []  # (latency_s, passed, traced)
    n_traced = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        i = len(ops)
        traced = tracer is not None and i % 2 == 1 and n_traced < traced_cap
        passed, latency, _ = one_op(wl, i % wl.n_inputs, tracer if traced else None, op_id=i + 1)
        n_traced += traced
        ops.append((latency, passed, traced))
    return {"ops": ops, "wall_s": time.perf_counter() - start}


def blas_info() -> dict:
    """BLAS library numpy was built against, and its thread count when the
    loaded library is OpenBLAS (read through its C API)."""
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*ROUND_TRIPS, "glyph-match"])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True, help="time.monotonic() when the process was launched")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    workdir = Path(args.out).parent

    tracer = Tracer() if args.trace else None
    span = tracer.span if tracer else no_span
    with np.load(args.inputs) as npz:
        inputs = {key: npz[key] for key in npz.files}
    wl = make_workload(args.workload, inputs)
    with span("setup"):
        wl.setup(span, warm=bool(args.trace), workdir=workdir)
    first_passed, first_latency, first_out = one_op(wl, 0, tracer, op_id=0)
    setup_s = time.monotonic() - args.launched
    if first_out is None:
        raise SystemExit("perfbench: the first op raised; no steady state to measure")

    loop = timed_ops(wl, args.seconds, tracer, TRACED_OPS[args.workload] if tracer else 0)
    result = {
        "setup_s": setup_s,
        "first_op": [first_latency, first_passed],
        "ops": loop["ops"],
        "wall_s": loop["wall_s"],
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
    }
    if tracer:
        result["layers"] = self_times(tracer.spans)
        result["stage_coverage"] = stage_coverage(tracer.spans)
        result["computed"] = wl.computed_counts(first_out)
        write_chrome_trace(tracer.spans, str(workdir / "trace.json"))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
