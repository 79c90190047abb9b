"""Run one workload of the bispect benchmark and print its metrics.

    python3 perfbench/run.py --workload so3-l8-roundtrip --seed 0 --seconds 35 --trace 0

From the root of a checkout.  A separate process makes the inputs from the
seed; fresh worker processes then set up and run the ops (see worker.py).
``--trace 0`` launches SETUPS workers, splits ``--seconds`` of closed-loop
ops between them and reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` launches one traced worker and reports the per-layer metrics.
The last line of standard output is the result object; the lines before it
hold the run's metadata and, when traced, a self-time table.  Everything
the run writes goes under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("so3-l8-roundtrip", "su2-l4-roundtrip", "glyph-match")

# Fresh processes per untraced run: setup_s and peak_rss_mb are their medians.
SETUPS = 3

# op_tail_ms percentile per workload (BENCHMARK.json states it too).  A
# 35-second run gives about 160 SO3 ops, keeping 15 or more beyond p90, and
# 1,600 glyph ops.  On glyphs and SU2 the highest percentiles with ten ops
# beyond them (p99.4, p99.8) spread by 20-60 % between runs on a shared
# 2-core host; p95 keeps 70 or more ops beyond it and spreads by under 10 %.
TAIL_PERCENTILE = {"so3-l8-roundtrip": 90, "su2-l4-roundtrip": 95, "glyph-match": 95}

# The layers the traced run spans, as module.function.
LAYERS = (
    "groups.haar_quadrature",
    "wigner.wigner_stack_on_rule",
    "clebsch.clebsch_gordan",
    "harmonic.fourier_forward",
    "harmonic.fourier_inverse",
    "bispectrum.build_descriptor",
    "reconstruct.reconstruct",
    "reconstruct.find_alignment",
    "glyphs.lift_image",
    "sphere.sphere_lift",
    "glyphs.match",
    "glyphs.build_glyph_index",
    "io.save_glyph_index",
    "io.load_glyph_index",
)

RUN_BUDGET_S = 170  # a run must end within 180 s; children are killed past this


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_child(argv: list[str], deadline: float) -> None:
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{Path(argv[0]).name} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"{Path(argv[0]).name} exited with code {proc.returncode}")


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(workload: str, workers: list[dict]) -> tuple[dict, dict]:
    """Untraced metrics from the workers' records, plus counts for the metadata.

    A failed op counts as missing every latency limit: it enters the
    latency percentiles as infinitely slow.
    """
    ops = [op for w in workers for op in w["ops"]]
    latencies = sorted(lat if passed else math.inf for lat, passed, _ in ops)
    if not latencies:
        fail("no op completed within the measured seconds")
    attempted = len(ops) + len(workers)  # the first op of each worker ends its set-up
    failed = sum(not passed for _, passed, _ in ops) + sum(not w["first_op"][1] for w in workers)
    pct = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": (statistics.median(w["setup_s"] for w in workers), "s"),
        "op_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
        "op_tail_ms": (1e3 * percentile(latencies, pct), "ms"),
        "ops_per_s": (sum(passed for _, passed, _ in ops) / sum(w["wall_s"] for w in workers), "1/s"),
        "peak_rss_mb": (statistics.median(w["maxrss_mb"] for w in workers), "MB"),
    }
    counts = {
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "timed_ops": len(ops),
        "tail_percentile": pct,
        "tail_samples_beyond": len(latencies) - math.ceil(pct / 100.0 * len(latencies)),
    }
    return metrics, counts


def per_layer(worker: dict) -> tuple[dict, dict]:
    """Traced metrics: calls and self time per layer, computed counts and the
    tracing overhead, from the one traced worker."""
    layers = worker["layers"]
    metrics = {}
    for name in LAYERS:
        row = layers.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    for name, value in worker["computed"].items():
        metrics[name] = (value, "bytes" if name.endswith("_bytes") else "count")
    # Overhead: traced and untraced ops interleave until the traced cap is hit.
    ops = worker["ops"]
    window = ops[: max((i for i, op in enumerate(ops) if op[2]), default=-1) + 1]
    traced = [lat for lat, _, is_traced in window if is_traced]
    untraced = [lat for lat, _, is_traced in window if not is_traced]
    if not traced or not untraced:
        fail("the traced run finished no traced op")
    traced_rate = len(traced) / sum(traced)
    untraced_rate = len(untraced) / sum(untraced)
    metrics["trace.ops"] = (len(traced), "count")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    metrics["trace.stage_coverage"] = (worker["stage_coverage"], "ratio")
    attempted = len(ops) + 1
    failed = sum(not passed for _, passed, _ in ops) + (not worker["first_op"][1])
    return metrics, {"attempted": attempted, "failed": failed, "error_rate": failed / attempted}


def self_time_table(workload: str, worker: dict) -> str:
    layers = worker["layers"]
    total = sum(row["self_s"] for row in layers.values())
    lines = [f"self time by layer, traced run of {workload} (share of all traced time):"]
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"  {name:32s} {row['calls']:7d} calls {row['self_s']:10.4f} s "
            f"{100.0 * row['self_s'] / total:6.2f} %"
        )
    return "\n".join(lines)


def metadata(seed: int, worker: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bispect").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() or None
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "scipy": worker["scipy"],
        "blas": worker["blas"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "setups_per_run": SETUPS,
    }


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "bispect" / "__init__.py").is_file():
        fail(f"no library sources at {ROOT / 'src' / 'bispect'}; run from the root of a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    rundir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    inputs = rundir / "inputs.npz"
    run_child(
        [str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed), "--out", str(inputs)],
        deadline,
    )

    n_workers = 1 if args.trace else SETUPS
    workers = []
    for i in range(n_workers):
        out = rundir / f"worker{i}.json"
        launched = time.monotonic()
        run_child(
            [
                str(HERE / "worker.py"), "--workload", args.workload, "--inputs", str(inputs),
                "--seconds", repr(args.seconds / n_workers), "--trace", str(args.trace),
                "--launched", repr(launched), "--out", str(out),
            ],
            deadline,
        )
        workers.append(json.loads(out.read_text(encoding="utf-8")))
    inputs.unlink()
    (rundir / "index.json").unlink(missing_ok=True)

    if args.trace:
        metrics, counts = per_layer(workers[0])
        wanted = spec["per_layer"]
    else:
        metrics, counts = end_to_end(args.workload, workers)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        fail(f"BENCHMARK.json and the benchmark disagree on metrics: {sorted(set(names) ^ set(metrics))}")

    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds, **counts}
    record["metadata"] = metadata(args.seed, workers[0])
    record["metrics"] = {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names}
    if args.trace:
        record["layers"] = workers[0]["layers"]
        record["computed_counts"] = workers[0]["computed"]
        print(self_time_table(args.workload, workers[0]))
    (rundir / "result.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    print(json.dumps({"run": record["metadata"], **counts}))
    print(
        json.dumps(
            {
                "correct": counts["failed"] == 0,
                "attempted": counts["attempted"],
                "failed": counts["failed"],
                "metrics": record["metrics"],
            }
        )
    )


if __name__ == "__main__":
    main()
