"""Tests of the benchmark itself: span arithmetic, negative controls for the
correctness gates, the result format and the repeatability of the
computed counts.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from bispect.harmonic import CoefficientSet  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = ROOT / ".perfbench" / "tests"


def _span(i, name, parent, start, end):
    return {"id": i, "name": name, "parent": parent, "op": 0, "start": start, "end": end}


def test_self_time_subtracts_direct_children_only():
    trace = [
        _span(0, "op", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "b", 0, 4.0, 9.0),
        _span(3, "a", 2, 5.0, 6.0),
    ]
    table = spans.self_times(trace)
    assert table["op"]["self_s"] == pytest.approx(2.0)
    assert table["b"]["self_s"] == pytest.approx(4.0)
    assert table["a"] == {"calls": 2, "total_s": pytest.approx(4.0), "self_s": pytest.approx(4.0)}
    assert spans.stage_coverage(trace) == pytest.approx(0.8)


def test_tracer_records_parent_and_op():
    tracer = spans.Tracer()
    tracer.op = 7
    with tracer.span("op"):
        with tracer.span("stage"):
            pass
    outer, inner = tracer.spans
    assert (outer["parent"], inner["parent"]) == (None, 0)
    assert {outer["op"], inner["op"]} == {7}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


@pytest.fixture(scope="module")
def su2_round_trip():
    wl = worker.RoundTrip("su2-l4-roundtrip", gen.generate("su2-l4-roundtrip", 3))
    wl.setup(spans.no_span, warm=False, workdir=SCRATCH)
    return wl


def test_round_trip_gate_passes_clean_ops(su2_round_trip):
    loop = worker.timed_ops(su2_round_trip, 0.2)
    assert loop["ops"] and all(passed for _, passed, _ in loop["ops"])


def test_perturbed_reconstructed_degree_counts_as_failed(su2_round_trip, monkeypatch):
    reconstruct = su2_round_trip.reconstruct

    def perturbed(desc):
        report = reconstruct(desc)
        mats = list(report.recovered.matrices)
        mats[3] = mats[3] * (1.0 + 1e-5)
        report.recovered = CoefficientSet(report.recovered.tag, report.recovered.bandlimit, tuple(mats))
        return report

    monkeypatch.setattr(su2_round_trip, "reconstruct", perturbed)
    loop = worker.timed_ops(su2_round_trip, 0.2)
    assert loop["ops"] and not any(passed for _, passed, _ in loop["ops"])
    metrics, counts = run.end_to_end(
        "su2-l4-roundtrip",
        [{"ops": loop["ops"], "wall_s": loop["wall_s"], "setup_s": 1.0, "maxrss_mb": 1.0, "first_op": [0.0, True]}],
    )
    assert counts["failed"] == len(loop["ops"]) and counts["error_rate"] > 0
    assert metrics["ops_per_s"][0] == 0.0


def test_query_of_glyph_missing_from_index_counts_as_failed():
    inputs = gen.generate("glyph-match", 0)
    del inputs["glyph_ring"]
    wl = worker.GlyphMatch(inputs)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    wl.setup(spans.no_span, warm=False, workdir=SCRATCH)
    outcomes = {label: [] for label in set(wl.labels)}
    for k, label in enumerate(wl.labels):
        passed, _, _ = worker.one_op(wl, k, None, k)
        outcomes[label].append(passed)
    assert not any(outcomes["ring"])
    assert all(all(v) for label, v in outcomes.items() if label != "ring")
    (SCRATCH / "index.json").unlink()


def _bench(workload: str, seed: int, trace: int, seconds: float = 1.0, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _check_metrics(result: dict, declared: list[dict]) -> None:
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result(_bench("su2-l4-roundtrip", 0, trace=0))
    _check_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_runs_repeat_computed_counts(workload):
    first, second = (_result(_bench(workload, seed, trace=1)) for seed in (0, 1))
    for result in (first, second):
        _check_metrics(result, SPEC["per_layer"])
        assert result["metrics"]["trace.stage_coverage"]["value"] >= 0.9
    spanned = json.loads((ROOT / ".perfbench" / f"{workload}-seed1-trace1" / "result.json").read_text())["layers"]
    assert set(spanned) - {"setup", "op"} <= set(run.LAYERS)
    computed = worker.COMPUTED_COUNTS
    assert [first["metrics"][n]["value"] for n in computed] == [second["metrics"][n]["value"] for n in computed]
    setup_layers = [f"{layer}.calls" for layer in ("groups.haar_quadrature", "wigner.wigner_stack_on_rule",
                                                   "clebsch.clebsch_gordan", "glyphs.build_glyph_index")]
    assert [first["metrics"][n]["value"] for n in setup_layers] == [second["metrics"][n]["value"] for n in setup_layers]


def test_tail_percentile_is_stated_in_benchmark_json():
    for w in SPEC["workloads"]:
        assert f"op_tail_ms = p{run.TAIL_PERCENTILE[w['name']]} " in w["why"]


def test_refuses_to_run_without_the_library():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _bench("su2-l4-roundtrip", 0, trace=0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
