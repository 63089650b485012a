"""Benchmark of the flowconformal command-line pipeline.

    python3 perfbench/run.py --workload readme --seed 1 --seconds 40 --trace 0

One closed-loop client: this process starts one CLI stage at a time in a
child process and waits for it, as a researcher running the pipeline does.
The program is imported from ``src/`` of the checkout this file sits in.

``--trace 0`` measures the end-to-end metrics with tracing off. ``gen-data``
(the set-up) runs three times, then ``train`` (repeated while its samples
add up to under TRAIN_MIN_S), then cycles of ``gen-data``, ``calibrate``,
``predict`` and ``evaluate`` until ``--seconds`` have passed, at least twice.
Every timing is a median over its samples. Stages are idempotent, and every
repeat must leave byte-identical artifacts.

``--trace 1`` runs each stage once untraced and once under ``tracer.py``
and prints the per-layer metrics of ``layers.py`` plus the tracing overhead.

Every stage exit, output check and determinism comparison is one operation;
the last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
Details, machine facts and per-stage samples go to ``<out>/results/``.
``--smoke`` shrinks every workload to seconds, for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import layers
import pipeline
from workloads import DETECTION_CHECKED, IDX_WORKLOADS, STAGES, WORKLOADS, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_FIRST_REPS = 3
# short trainings repeat until this much training time is measured; a long one runs once
TRAIN_MIN_S = 6.0
MIN_SCORE_REPS = 2
MAX_SCORE_REPS = 25
SCORE_STAGES = ("calibrate", "predict", "evaluate")
END_TO_END_UNITS = {"pipeline_s": "s", "train_s": "s", "score_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}
TRACE_UNITS = {**layers.UNITS, "bench.trace_overhead_pct": "%"}


class Ledger:
    """Operations attempted and failed: stage exits, output checks, comparisons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
            print(f"FAILED {name}: {detail}", file=sys.stderr)
        return ok

    def records(self, results) -> None:
        for result in results:
            self.record(*result)

    def stage(self, run: pipeline.StageRun, cwd: str) -> bool:
        return self.record(f"exit.{run.stage}", run.returncode == 0,
                           f"exit code {run.returncode}\n{pipeline.tail_log(cwd)}")

    def same(self, name: str, first: dict, now: dict) -> None:
        diff = pipeline.digest_diff(first, now)
        self.record(name, not diff, f"artifacts differ: {diff[:10]}")


# -- facts -----------------------------------------------------------------------

def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", pipeline.ROOT, *args],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(pipeline.SRC, "flowconformal")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    top = _git("rev-parse", "--show-toplevel")
    in_git = top is not None and os.path.realpath(top) == os.path.realpath(pipeline.ROOT)
    status = _git("status", "--porcelain") if in_git else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        # inherited unchanged by every child; "unset" means the library default
        "blas_threads_env": {v: os.environ.get(v, "unset") for v in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _git("rev-parse", "HEAD") if in_git else "not a git checkout",
        "dirty": bool(status) if status is not None else None,
        "src_sha256": source_digest(),
        "client": "closed loop, 1 client, stages run one at a time",
    }


@dataclass
class Session:
    """One benchmark run of one workload: where it works and what it has counted."""

    workload: str
    cwd: str
    config: str
    smoke: bool
    out_root: str
    ledger: Ledger = field(default_factory=Ledger)

    @property
    def out(self) -> str:
        return os.path.join(self.cwd, "out")

    def digest(self) -> dict[str, str]:
        return pipeline.tree_digest(self.out)

    def check_outputs(self) -> None:
        # detection and coverage-drop thresholds hold for the acceptance training budget only
        detection = self.workload in DETECTION_CHECKED and not self.smoke
        self.ledger.records(pipeline.check_predictions(self.out))
        self.ledger.records(pipeline.check_reports(self.out, detection))

    def check_across_runs(self, digest: dict[str, str]) -> None:
        """Same source, same inputs: the artifacts must match any earlier run's."""
        key = hashlib.sha256(source_digest().encode())
        for base, dirs, files in os.walk(self.cwd):
            dirs[:] = sorted(d for d in dirs if base != self.cwd or d != "out")
            for name in sorted(files):
                if name.endswith((".json", ".idx")):
                    with open(os.path.join(base, name), "rb") as fh:
                        key.update(name.encode() + fh.read())
        store = os.path.join(self.out_root, "digests")
        os.makedirs(store, exist_ok=True)
        path = os.path.join(store, f"{self.workload}-{key.hexdigest()[:20]}.json")
        if os.path.exists(path):
            with open(path) as fh:
                self.ledger.same("determinism.across_runs", json.load(fh), digest)
        else:
            with open(path, "w") as fh:
                json.dump(digest, fh, sort_keys=True)


# -- untraced run -----------------------------------------------------------------

def measure_untraced(run: Session, seconds: float):
    """Stage samples and per-repeat score times; stops at the first failed stage."""
    samples: dict[str, list[pipeline.StageRun]] = {}
    t_start = time.perf_counter()

    def stage(name: str) -> pipeline.StageRun | None:
        done = pipeline.run_stage(name, run.cwd, run.config)
        samples.setdefault(name, []).append(done)
        return done if run.ledger.stage(done, run.cwd) else None

    def repeat(name: str, more) -> bool:
        first = None
        while first is None or more():
            if not stage(name):
                return False
            now = run.digest()
            if first is not None:
                run.ledger.same(f"determinism.{name}", first, now)
            first = first or now
        return True

    # the cycles below repeat gen-data too, so smoke runs need only one up front
    setup_first = 1 if run.smoke else SETUP_FIRST_REPS
    if not repeat("gen-data", lambda: len(samples["gen-data"]) < setup_first):
        return samples, []
    if not repeat("train", lambda: len(samples["train"]) < 2 if run.smoke else
                  sum(r.wall_s for r in samples["train"]) < TRAIN_MIN_S):
        return samples, []

    # set-up and score samples alternate, so a slow spell of the machine
    # touches both metrics' samples alike instead of one contiguous block
    rep_s: list[float] = []
    cycle_s: list[float] = []
    first = None
    while len(rep_s) < MIN_SCORE_REPS or (
            not run.smoke and len(rep_s) < MAX_SCORE_REPS
            and time.perf_counter() - t_start + statistics.median(cycle_s) <= seconds):
        done = []
        for name in ("gen-data", *SCORE_STAGES):
            done.append(stage(name))
            if not done[-1]:
                return samples, rep_s
        rep_s.append(sum(d.wall_s for d in done[1:]))
        cycle_s.append(sum(d.wall_s for d in done))
        now = run.digest()
        if first is None:
            run.check_outputs()
            run.check_across_runs(now)
            first = now
        else:
            run.ledger.same("determinism.cycle", first, now)
    return samples, rep_s


def end_to_end(samples, rep_s) -> tuple[dict, dict]:
    """Medians over the repeats of one run, and how many repeats each had."""
    if not rep_s:
        return {}, {}
    setup = [r.wall_s for r in samples["gen-data"]]
    train = [r.wall_s for r in samples["train"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "train_s": statistics.median(train),
        "score_s": statistics.median(rep_s),
        # per-process high-water mark of the largest stage, not a sum over processes
        "peak_rss_mb": max(r.maxrss_mb for runs in samples.values() for r in runs),
    }
    metrics["pipeline_s"] = metrics["setup_s"] + metrics["train_s"] + metrics["score_s"]
    counts = {"setup_s": len(setup), "train_s": len(train), "score_s": len(rep_s)}
    return metrics, counts


# -- traced run ----------------------------------------------------------------------

def measure_traced(run: Session):
    """Each stage untraced, then traced; per-layer metrics from the traced spans."""
    walls = {"untraced": 0.0, "traced": 0.0}
    spans = []
    for stage in STAGES:
        plain = pipeline.run_stage(stage, run.cwd, run.config)
        if not run.ledger.stage(plain, run.cwd):
            return {}, {}
        before = run.digest()
        path = os.path.join(run.cwd, f"spans-{stage}.npz")
        traced = pipeline.run_traced_stage(stage, run.cwd, run.config, path,
                                           f"{run.workload}:{stage}")
        if not run.ledger.stage(traced, run.cwd):
            return {}, {}
        run.ledger.same(f"trace_neutral.{stage}", before, run.digest())
        walls["untraced"] += plain.wall_s
        walls["traced"] += traced.wall_s
        spans.append(layers.StageSpans.load(stage, path))
    run.check_outputs()
    run.check_across_runs(run.digest())

    for st in spans:
        run.ledger.record(*layers.integrity(st))
    fired = set().union(*(set(st.name) for st in spans))
    missing = [s for s in layers.expected_spans(run.workload in IDX_WORKLOADS)
               if s not in fired]
    for span in missing:
        run.ledger.record(f"trace_complete.{span}", False, "expected span never fired")

    metrics = layers.layer_metrics(spans)
    metrics["bench.trace_overhead_pct"] = 100.0 * (walls["traced"] / walls["untraced"] - 1.0)
    detail = {
        "missing_spans": missing,
        "targets_not_found": sorted(set().union(*(st.missing_targets for st in spans))),
        "self_s_by_module": {st.stage: layers.module_self_times(st) for st in spans},
        "stage_walls_s": walls,
        "span_counts": {st.stage: int(st.name.size) for st in spans},
    }
    return metrics, detail


# -- entry point ---------------------------------------------------------------------

def _declared_metrics(trace: bool) -> list[str]:
    with open(os.path.join(pipeline.ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="working and result area (default: perfbench/out)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(pipeline.SRC, "flowconformal", "cli.py")):
        print(f"no program to measure: {pipeline.SRC}/flowconformal/cli.py is missing",
              file=sys.stderr)
        return 2
    out_root = os.path.abspath(args.out)
    cwd = os.path.join(out_root, "work", args.workload)
    shutil.rmtree(cwd, ignore_errors=True)
    os.makedirs(cwd)
    imported = pipeline.probe_program(cwd)
    if imported is None or not os.path.abspath(imported).startswith(pipeline.SRC + os.sep):
        print(f"children import flowconformal from {imported}, not {pipeline.SRC}",
              file=sys.stderr)
        return 2

    config = write_inputs(args.workload, args.seed, args.smoke, cwd)
    run = Session(args.workload, cwd, config, args.smoke, out_root)
    ledger = run.ledger
    if args.trace:
        metrics, detail = measure_traced(run)
        units, counts = TRACE_UNITS, {}
    else:
        samples, rep_s = measure_untraced(run, args.seconds)
        metrics, counts = end_to_end(samples, rep_s)
        units = END_TO_END_UNITS
        detail = {"samples": {s: [vars(r) for r in runs] for s, runs in samples.items()},
                  "score_rep_s": rep_s}

    facts = machine_facts()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  smoke' if args.smoke else ''}  ({facts['client']})")
    for key in sorted(units):
        shown = "null" if metrics.get(key) is None else f"{metrics[key]:.6g}"
        n = f"  (median of {counts[key]})" if key in counts else ""
        print(f"  {key:34s} {shown:>12s} {units[key]}{n}")
    for stage, parts in detail.get("self_s_by_module", {}).items():
        terms = " + ".join(f"{m} {t:.4f}" for m, t in sorted(parts.items()))
        print(f"  self_s {stage}: {terms} = {sum(parts.values()):.4f} s "
              f"(cli.stage_s.{stage} {metrics[f'cli.stage_s.{stage}']:.4f} s)")
    if args.trace:
        print(f"  spans that never fired: {detail.get('missing_spans')}")
    failed = len(ledger.failures)
    print(f"  failed_share {failed / max(ledger.attempted, 1):.6g} "
          f"({failed} failed of {ledger.attempted} operations)")
    print(json.dumps({"facts": facts}, sort_keys=True))

    os.makedirs(os.path.join(out_root, "results"), exist_ok=True)
    result_path = os.path.join(out_root, "results",
                               f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "smoke": args.smoke, "facts": facts, "metrics": metrics,
                   "sample_counts": counts, "detail": detail,
                   "attempted": ledger.attempted, "failures": ledger.failures},
                  fh, indent=1, sort_keys=True)

    declared = _declared_metrics(bool(args.trace))
    final = {name: {"value": metrics.get(name), "unit": units[name]} for name in declared}
    print(json.dumps({"correct": failed == 0 and all(v["value"] is not None
                                                     for v in final.values()),
                      "attempted": max(ledger.attempted, 1), "failed": failed,
                      "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
