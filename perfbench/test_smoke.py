"""Smoke tests for the benchmark itself, on tiny inputs (about a minute):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def run(workload: str, trace: int, seed: int = 1) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


def units(result: dict) -> dict:
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    result = run(workload, trace=0)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def assert_spans_nest(path: Path) -> None:
    spans = json.loads(path.read_text())["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        assert start <= end, name
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            assert p_start <= start and end <= p_end, (name, spans[parent][0])
            covered[parent] += end - start
    for (name, start, end, _, _), child_time in zip(spans, covered):
        assert (end - start) - child_time >= -1e-9, f"negative self time in {name}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_nest_and_repeat_their_counts(workload):
    first = run(workload, trace=1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert_spans_nest(ROOT / ".perfbench" / "results" / f"{workload}-tiny-seed1-trace1-spans.json")
    second = run(workload, trace=1)
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    run(workload, trace=1, seed=2)


def test_tampered_estimate_fails_the_output_check():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.cli_ops import check, reference, run_in_process
    from perfbench.run import main_case, workloads

    workdir = ROOT / ".perfbench" / "smoke"
    workdir.mkdir(parents=True, exist_ok=True)
    case = main_case(workloads("tiny")["cli-file"], seed=1, workdir=workdir)
    ref = reference(case)
    assert run_in_process(case, "simulate").code == 0
    result = run_in_process(case, "estimate")
    assert check("estimate", result.code, result.doc, ref, case) == []

    tampered = dict(result.doc, point=result.doc["point"] + 1e-9)
    assert check("estimate", 0, tampered, ref, case)
    tampered = dict(result.doc, bootstrap=dict(result.doc["bootstrap"], ci_upper=0.5))
    assert check("estimate", 0, tampered, ref, case)
    assert check("estimate", 2, result.doc, ref, case)
    assert check("estimate", 0, {"point": 0.5}, ref, case)
