"""Run CLI stages in child processes and check what they leave behind."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

from workloads import (
    MAX_COVERAGE_DROP,
    MIN_CLEAN_COVERAGE,
    MIN_DETECTION,
    RATES,
    rate_token,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# the console-script entry point, flowconformal.cli:main, without needing an install
_CLI = "import sys; from flowconformal.cli import main; sys.exit(main())"
_TRACED = os.path.join(HERE, "tracer.py")


@dataclass
class StageRun:
    stage: str
    returncode: int
    wall_s: float
    maxrss_mb: float


def child_env() -> dict:
    """Environment of every child: the checkout's src first; BLAS settings untouched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(stage: str, argv: list[str], cwd: str) -> StageRun:
    """Run one child to completion, its output appended to ``stages.log``.

    Peak RSS comes from wait4 on this child alone, so it is the high-water
    mark of the child and its own children, never a sum with earlier stages.
    """
    with open(os.path.join(cwd, "stages.log"), "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(stage, proc.returncode, wall, usage.ru_maxrss / 1024.0)


def run_stage(stage: str, cwd: str, config: str) -> StageRun:
    return _spawn(stage, [sys.executable, "-c", _CLI, stage, "--config", config], cwd)


def run_traced_stage(stage: str, cwd: str, config: str, spans_path: str,
                     run_id: str) -> StageRun:
    return _spawn(stage, [sys.executable, _TRACED, "--spans", spans_path, "--run-id", run_id,
                          "--", stage, "--config", config], cwd)


def probe_program(cwd: str) -> str | None:
    """Path of the flowconformal package a child imports, or None if it cannot."""
    out = subprocess.run(
        [sys.executable, "-c", "import flowconformal.cli as c; print(c.__file__)"],
        cwd=cwd, env=child_env(), capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def tail_log(cwd: str, lines: int = 20) -> str:
    try:
        with open(os.path.join(cwd, "stages.log"), errors="replace") as fh:
            return "".join(fh.readlines()[-lines:])
    except OSError:
        return ""


# -- determinism ------------------------------------------------------------------

def tree_digest(out_dir: str) -> dict[str, str]:
    """sha256 of every artifact; manifest.json without its two timestamps."""
    digests = {}
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            rel = os.path.relpath(path, out_dir)
            with open(path, "rb") as fh:
                data = fh.read()
            if rel == "manifest.json":
                doc = json.loads(data)
                doc.pop("created", None)
                doc.pop("updated", None)
                data = json.dumps(doc, sort_keys=True).encode()
            digests[rel] = hashlib.sha256(data).hexdigest()
    return digests


def digest_diff(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


# -- output checks -----------------------------------------------------------------

def _data_rows(path: str) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip()) - 1


def check_predictions(out_dir: str) -> list[tuple[str, bool, str]]:
    """Per arm: p-values in (0, 1], and p-value and set rows match the arm."""
    results = []
    for rate in RATES:
        tok = rate_token(rate)
        want = _data_rows(os.path.join(out_dir, "data", f"test_{tok}.csv"))
        bad = rows = 0
        with open(os.path.join(out_dir, "predictions", f"pvalues_{tok}.csv")) as fh:
            next(fh)
            for line in fh:
                if not line.strip():
                    continue
                rows += 1
                bad += sum(not 0.0 < float(v) <= 1.0 for v in line.split(",")[1:])
        sets = _data_rows(os.path.join(out_dir, "predictions", f"sets_{tok}.csv"))
        results.append((f"pvalues_in_range.{tok}", bad == 0, f"{bad} p-values outside (0, 1]"))
        results.append((f"prediction_rows.{tok}", rows == want and sets == want,
                        f"p-value rows {rows}, set rows {sets}, arm rows {want}"))
    return results


def check_reports(out_dir: str, check_detection: bool) -> list[tuple[str, bool, str]]:
    """Acceptance thresholds on the flow reports."""
    def report(rate):
        with open(os.path.join(out_dir, "reports", f"report_flow_{rate_token(rate)}.json")) as fh:
            return json.load(fh)

    clean = report(0.0)["coverage"]
    results = [("clean_coverage", clean >= MIN_CLEAN_COVERAGE,
                f"flow clean-arm coverage {clean:.4f} >= {MIN_CLEAN_COVERAGE}")]
    if check_detection:
        worst = report(max(RATES))
        det = worst.get("outlier_detection_rate")
        drop = clean - worst["coverage"]
        results.append(("outlier_detection", det is not None and det >= MIN_DETECTION,
                        f"outlier detection {det} >= {MIN_DETECTION} at {max(RATES):g}"))
        results.append(("coverage_drop", drop <= MAX_COVERAGE_DROP,
                        f"flow coverage drop {drop:.4f} <= {MAX_COVERAGE_DROP}"))
    return results
