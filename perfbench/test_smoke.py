"""Smoke test of the benchmark: each workload at a tiny size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "cover_ratio",
              "peak_rss_mb")
PER_LAYER = (
    "lp.solve_vc_lp.exact.self_s", "lp.solve_vc_lp.calls", "lp.solve_vc_lp.pairs",
    "lp.solve_vc_lp.float.self_s",
    "rounding.recursive_threshold.total_s", "rounding.fallback_threshold_cover.total_s",
    "rounding.two_coloring.self_s", "rounding.two_coloring.calls",
    "rounding.monochromatic_pairs.self_s", "rounding.monochromatic_pairs.calls",
    "rounding.color_trial.self_s", "rounding.color_trial.calls",
    "rounding.residual_support", "rounding.empty_support_frac", "rounding.fallback_won_frac",
    "hypergraph.blow_up.self_s", "hypergraph.is_vertex_cover.self_s",
    "hypergraph.is_vertex_cover.calls", "hypergraph.is_simple.self_s",
    "formats.parse_instance.self_s", "formats.parse_document.self_s",
    "formats.serialize.self_s", "formats.bytes_in", "formats.bytes_out",
    "generators.random_hypergraph.self_s", "generators.complete.self_s",
    "generators.simplify_reduction.self_s", "generators.greedy_hard_setsystem.self_s",
    "setcover.greedy_set_cover.self_s", "cli.main.self_s", "trace.overhead",
)


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines, result["metrics"]


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    lines, metrics = _run(workload, 0)
    assert set(metrics) == set(_declared("end_to_end")) == set(END_TO_END)
    for name, unit in _declared("end_to_end").items():
        assert metrics[name]["unit"] == unit
        assert metrics[name]["value"] > 0
    # zero on healthy code, so it is printed and carried by "failed", not declared
    assert any(line.split()[:1] == ["failed_frac"] and line.split()[2] == "ratio"
               for line in lines)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_runs_report_every_layer_metric_and_repeat_counts(workload):
    _, first = _run(workload, 1)
    _, second = _run(workload, 1)
    assert set(first) == set(_declared("per_layer")) >= set(PER_LAYER)
    for name, unit in _declared("per_layer").items():
        assert first[name]["unit"] == unit
    counts = [n for n in first if n.endswith((".calls", ".pairs"))]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
