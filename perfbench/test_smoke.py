"""Smoke test of the benchmark at tiny sizes: every workload, every check, both
the untraced and the traced run. Timings are not asserted; they are noise here."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))


def _declared(trace: int) -> dict[str, str]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["readme", "scoring", "idx-wide"])
def test_benchmark_smoke(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 20
    declared = _declared(trace)
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float)), name
    saved = os.path.join(tmp_path, "results", f"{workload}-seed3-trace{trace}.json")
    with open(saved) as fh:
        detail = json.load(fh)
    assert detail["facts"]["src_sha256"]
    if trace:
        assert detail["detail"]["missing_spans"] == []
        assert result["metrics"]["roundtrip.steps"]["value"] > 0


def test_refuses_without_program(tmp_path):
    """Run from a copy that holds only the benchmark: no result, nonzero exit."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "readme",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
