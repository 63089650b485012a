"""Per-layer metrics from the spans of one traced pipeline (one .npz per stage).

Busy time is self time: a span's duration minus the durations of its direct
child spans. Four metrics are inclusive instead and say so in their names'
definitions below: ``roundtrip.train_class_s.*``, ``roundtrip.encode_s``,
``baselines.classifier_train_s`` and ``cli.stage_s.*``. A graph
``Mlp.forward`` called by ``Mlp.predict`` counts as predict work, so
``nn.forward_s`` is training-graph forward only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tracer import ROOT_SPAN, TARGETS
from workloads import STAGES

SELF, INCL, COUNT, VALUE = "self", "incl", "count", "value"

_CONFORMAL_IO = ("conformal.save_pools", "conformal.load_pools", "conformal.save_p_values",
                 "conformal.load_p_values", "conformal.save_sets", "conformal.load_sets")

# metric -> (unit, kind, span names)
SPAN_METRICS = {
    "autodiff.backward_s": ("s", SELF, ("autodiff.Tensor.backward",)),
    "autodiff.backward_calls": ("count", COUNT, ("autodiff.Tensor.backward",)),
    "nn.forward_s": ("s", SELF, ("nn.Mlp.forward",)),
    "nn.adam_s": ("s", SELF, ("nn.Adam.step",)),
    "nn.adam_steps": ("count", COUNT, ("nn.Adam.step",)),
    "nn.predict_s": ("s", SELF, ("nn.Mlp.predict",)),
    "nn.predict_rows": ("rows", VALUE, ("nn.Mlp.predict",)),
    "kernels.mmd_s": ("s", SELF, ("kernels.mmd2_unbiased_graph",)),
    "kernels.mmd_calls": ("count", COUNT, ("kernels.mmd2_unbiased_graph",)),
    "kernels.bandwidth_s": ("s", SELF, ("kernels.median_bandwidth",
                                        "kernels.resolve_bandwidth")),
    "kernels.bandwidth_calls": ("count", COUNT, ("kernels.median_bandwidth",)),
    "roundtrip.steps": ("count", COUNT, ("roundtrip.loss_latent_mmd",)),
    "roundtrip.cycle_s": ("s", SELF, ("roundtrip.loss_cycle",)),
    "roundtrip.finetune_s": ("s", SELF, ("roundtrip.loss_pred_finetune",)),
    "roundtrip.encode_s": ("s", INCL, ("roundtrip.encode",)),
    "roundtrip.encode_rows": ("rows", VALUE, ("roundtrip.encode",)),
    "roundtrip.model_io_s": ("s", SELF, ("roundtrip.save_class_flow",
                                         "roundtrip.load_class_flow")),
    "roundtrip.model_bytes": ("bytes", VALUE, ("roundtrip.save_class_flow",
                                               "roundtrip.load_class_flow")),
    "conformal.pvalue_s": ("s", SELF, ("conformal.p_value_matrix",)),
    "conformal.rows_scored": ("rows", VALUE, ("conformal.p_value_matrix",)),
    "conformal.sets_s": ("s", SELF, ("conformal.predictive_set",)),
    "conformal.sets_calls": ("count", COUNT, ("conformal.predictive_set",)),
    "conformal.pool_s": ("s", SELF, ("conformal.build_score_pool",)),
    "conformal.io_s": ("s", SELF, _CONFORMAL_IO),
    "conformal.io_bytes": ("bytes", VALUE, _CONFORMAL_IO),
    "datasets.csv_read_s": ("s", SELF, ("datasets.load_dataset_csv",)),
    "datasets.csv_write_s": ("s", SELF, ("datasets.save_dataset_csv",)),
    "datasets.csv_bytes": ("bytes", VALUE, ("datasets.load_dataset_csv",
                                            "datasets.save_dataset_csv")),
    "datasets.gen_s": ("s", SELF, ("datasets.gen_gaussian_classes",
                                   "datasets.inject_contamination",
                                   "datasets.split_stratified")),
    "datasets.idx_read_s": ("s", SELF, ("datasets.load_idx_images", "datasets.load_idx_labels")),
    "datasets.idx_bytes": ("bytes", VALUE, ("datasets.load_idx_images",
                                            "datasets.load_idx_labels")),
    "baselines.classifier_train_s": ("s", INCL, ("baselines.train_softmax_classifier",)),
    "baselines.sets_s": ("s", SELF, ("baselines.scaling_set", "baselines.aps_set",
                                     "baselines.aps_calibrate")),
    "baselines.sets_calls": ("count", COUNT, ("baselines.scaling_set", "baselines.aps_set")),
    "baselines.prob_io_s": ("s", SELF, ("baselines.save_prob_matrix",)),
    "evaluation.report_s": ("s", SELF, ("evaluation.build_report",)),
    "evaluation.ks_s": ("s", SELF, ("evaluation.ks_uniformity",)),
    "evaluation.emit_s": ("s", SELF, ("evaluation.emit_report", "evaluation.emit_histogram")),
}

_TRAIN_CLASS = "roundtrip.train_class_flow"
_STEP_MARK = "roundtrip.loss_latent_mmd"  # runs once per training step
_ADAM = "nn.Adam.step"
_FORWARD = "nn.Mlp.forward"
_PREDICT = "nn.Mlp.predict"
# optimizers of one class model in first-use order: discriminator, main, fine-tune
PHASES = ("disc", "main", "finetune")
_IDX_ONLY = ("datasets.load_idx_images", "datasets.load_idx_labels")
_SYNTHETIC_ONLY = ("datasets.gen_gaussian_classes",)

# every metric this module can produce, with its unit
UNITS = {
    **{name: unit for name, (unit, _, _) in SPAN_METRICS.items()},
    "roundtrip.train_class_s.p50": "s",
    "roundtrip.train_class_s.max": "s",
    "roundtrip.step_ms.p50": "ms",
    "roundtrip.step_ms.p99": "ms",
    **{f"roundtrip.phase_{p}_ms.p50": "ms" for p in PHASES},
    **{f"cli.stage_s.{s}": "s" for s in STAGES},
    **{f"cli.self_s.{s}": "s" for s in STAGES},
    "cli.import_s": "s",
}


def expected_spans(uses_idx: bool) -> list[str]:
    """Spans every traced pipeline of this kind of workload must record."""
    skip = _SYNTHETIC_ONLY if uses_idx else _IDX_ONLY
    return [f"{m}.{a}" for m, a, _ in TARGETS if f"{m}.{a}" not in skip]


@dataclass
class StageSpans:
    stage: str
    key: np.ndarray      # span name, with Mlp.forward under Mlp.predict keyed as predict
    name: np.ndarray     # span name as recorded
    start: np.ndarray
    dur: np.ndarray
    self_t: np.ndarray
    parent: np.ndarray
    value: np.ndarray
    import_s: float
    missing_targets: list[str]

    @classmethod
    def load(cls, stage: str, path: str) -> "StageSpans":
        with np.load(path) as z:
            names = z["names"][z["name_id"]] if z["name_id"].size else np.empty(0, dtype=str)
            start, end, parent = z["start"], z["end"], z["parent"]
            value, import_s, missing = z["value"], float(z["import_s"]), list(z["missing"])
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        key = names.copy()
        under_predict = has_parent & (names == _FORWARD)
        under_predict[has_parent] &= names[parent[has_parent]] == _PREDICT
        key[under_predict] = _PREDICT
        return cls(stage, key, names, start, dur, dur - child, parent, value,
                   import_s, missing)


def _p(values, q):
    return float(np.percentile(values, q)) if len(values) else None


def _per_class(spans: list[StageSpans], mark: str):
    """Spans named ``mark`` grouped by their enclosing train_class_flow span."""
    for st in spans:
        for cls_idx in np.flatnonzero(st.name == _TRAIN_CLASS):
            yield st, np.flatnonzero((st.name == mark) & (st.parent == cls_idx))


def layer_metrics(spans: list[StageSpans]) -> dict[str, float | None]:
    """All per-layer metrics; None where no span behind the metric fired."""
    key = np.concatenate([s.key for s in spans])
    self_t = np.concatenate([s.self_t for s in spans])
    dur = np.concatenate([s.dur for s in spans])
    value = np.concatenate([s.value for s in spans])
    out: dict[str, float | None] = {}
    for metric, (_, kind, names) in SPAN_METRICS.items():
        sel = np.isin(key, names)
        if not sel.any():
            out[metric] = None
        elif kind == SELF:
            out[metric] = float(self_t[sel].sum())
        elif kind == INCL:
            out[metric] = float(dur[sel].sum())
        elif kind == COUNT:
            out[metric] = int(sel.sum())
        else:
            out[metric] = float(value[sel].sum())

    class_s = np.concatenate([s.dur[s.name == _TRAIN_CLASS] for s in spans])
    out["roundtrip.train_class_s.p50"] = _p(class_s, 50)
    out["roundtrip.train_class_s.max"] = float(class_s.max()) if class_s.size else None

    gaps = [np.diff(st.start[idx]) * 1e3 for st, idx in _per_class(spans, _STEP_MARK)]
    gaps = np.concatenate(gaps) if gaps else np.empty(0)
    out["roundtrip.step_ms.p50"] = _p(gaps, 50)
    out["roundtrip.step_ms.p99"] = _p(gaps, 99)

    phase_ms = {p: [] for p in PHASES}
    for st, idx in _per_class(spans, _ADAM):
        ends = st.start[idx] + st.dur[idx]
        # a phase runs from the previous optimizer step's end to its own step's end;
        # the first step of a class has no previous end and only fixes its rank
        order = {st.value[i]: 0 for i in idx[:1]}
        for i in range(1, idx.size):
            which = order.setdefault(st.value[idx[i]], len(order))
            if which < len(PHASES):
                phase_ms[PHASES[which]].append((ends[i] - ends[i - 1]) * 1e3)
    for p in PHASES:
        out[f"roundtrip.phase_{p}_ms.p50"] = _p(phase_ms[p], 50)

    for st in spans:
        root = st.name == ROOT_SPAN
        out[f"cli.stage_s.{st.stage}"] = float(st.dur[root].sum()) if root.any() else None
        out[f"cli.self_s.{st.stage}"] = float(st.self_t[root].sum()) if root.any() else None
    out["cli.import_s"] = _p([s.import_s for s in spans], 50)
    return out


def module_self_times(st: StageSpans) -> dict[str, float]:
    """Self time per flowconformal module within one stage, the root span as 'cli.self'."""
    out: dict[str, float] = {}
    for name, t in zip(st.name, st.self_t):
        mod = "cli.self" if name == ROOT_SPAN else name.split(".", 1)[0]
        out[mod] = out.get(mod, 0.0) + float(t)
    return out


def integrity(st: StageSpans) -> tuple[str, bool, str]:
    """One root span, every span closed, and self times that sum to the stage span."""
    roots = int(np.sum(st.parent < 0))
    closed = bool(np.all(np.isfinite(st.dur)))
    total = float(st.self_t.sum())
    stage = float(st.dur[st.parent < 0].sum()) if roots else float("nan")
    ok = roots == 1 and closed and abs(total - stage) <= 1e-6 * max(stage, 1.0)
    return (f"trace_integrity.{st.stage}", ok,
            f"{roots} root span(s), all closed: {closed}, "
            f"self-time sum {total:.6f} s against stage span {stage:.6f} s")
