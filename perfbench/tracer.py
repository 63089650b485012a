"""In-process span recorder around the public functions of flowconformal.

Run as a script, it is a traced stand-in for the ``flowconformal`` entry
point: it imports the package, wraps the functions in ``TARGETS``, calls
``cli.main`` with the remaining arguments and writes the spans to an .npz
file when the stage ends::

    python3 perfbench/tracer.py --spans spans.npz --run-id ID -- train --config config.json

A span is (name, start, end, parent span, run id) plus one measured number
(rows, bytes or an object id) for the targets that declare one. Spans stay
in memory until the process exits. Work done in worker processes that a
stage might start is not seen; the enclosing spans still cover its wall time.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import os
import sys
import time
from array import array

# (module, attribute, measure). A measure names an argument and what to take
# from it: "rows" (len), "bytes" (size of the file at that path, after the
# call) or "id" (object identity). Span names are "module.attribute".
TARGETS = (
    ("autodiff", "Tensor.backward", None),
    ("nn", "Mlp.forward", None),
    ("nn", "Mlp.predict", ("rows", "x")),
    ("nn", "Adam.step", ("id", "self")),
    ("kernels", "mmd2_unbiased_graph", None),
    ("kernels", "median_bandwidth", None),
    ("kernels", "resolve_bandwidth", None),
    ("roundtrip", "train_class_flow", None),
    ("roundtrip", "loss_latent_mmd", None),
    ("roundtrip", "loss_cycle", None),
    ("roundtrip", "loss_pred_finetune", None),
    ("roundtrip", "encode", ("rows", "x")),
    ("roundtrip", "save_class_flow", ("bytes", "path")),
    ("roundtrip", "load_class_flow", ("bytes", "path")),
    ("conformal", "nonconformity_scores", None),
    ("conformal", "build_score_pool", None),
    ("conformal", "p_value_matrix", ("rows", "x")),
    ("conformal", "predictive_set", None),
    ("conformal", "save_pools", ("bytes", "path")),
    ("conformal", "load_pools", ("bytes", "path")),
    ("conformal", "save_p_values", ("bytes", "path")),
    ("conformal", "load_p_values", ("bytes", "path")),
    ("conformal", "save_sets", ("bytes", "path")),
    ("conformal", "load_sets", ("bytes", "path")),
    ("datasets", "gen_gaussian_classes", None),
    ("datasets", "inject_contamination", None),
    ("datasets", "split_stratified", None),
    ("datasets", "save_dataset_csv", ("bytes", "path")),
    ("datasets", "load_dataset_csv", ("bytes", "path")),
    ("datasets", "load_idx_images", ("bytes", "path")),
    ("datasets", "load_idx_labels", ("bytes", "path")),
    ("baselines", "train_softmax_classifier", None),
    ("baselines", "SoftmaxClassifier.predict_proba", None),
    ("baselines", "aps_calibrate", None),
    ("baselines", "scaling_set", None),
    ("baselines", "aps_set", None),
    ("baselines", "save_prob_matrix", ("bytes", "path")),
    ("evaluation", "build_report", None),
    ("evaluation", "ks_uniformity", None),
    ("evaluation", "emit_report", ("bytes", "path")),
    ("evaluation", "emit_histogram", ("bytes", "path")),
    ("cli", "main", None),
)

ROOT_SPAN = "cli.main"


class Tracer:
    """Span store; ``wrap`` returns a recording stand-in for a function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.value = array("d")
        self._stack: list[int] = []

    def wrap(self, fn, name: str, measure=None):
        nid = len(self.names)
        self.names.append(name)
        pick = None
        if measure is not None:
            kind, arg = measure
            sig = inspect.signature(fn)
            extract = {
                "rows": len,
                "bytes": os.path.getsize,
                "id": lambda obj: float(id(obj)),
            }[kind]

            def pick(args, kwargs):
                return extract(sig.bind(*args, **kwargs).arguments[arg])

        stack, name_id, start, end = self._stack, self.name_id, self.start, self.end
        parent, value, clock = self.parent, self.value, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(float("nan"))
            value.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if pick is not None:
                value[idx] = pick(args, kwargs)
            return result

        return traced

    def save(self, path: str, run_id: str, import_s: float, missing: list[str]) -> None:
        import numpy as np  # not at the top: cli.import_s must include numpy's import

        np.savez(path, name_id=np.asarray(self.name_id), start=np.asarray(self.start),
                 end=np.asarray(self.end), parent=np.asarray(self.parent),
                 value=np.asarray(self.value), names=np.asarray(self.names),
                 run_id=run_id, import_s=import_s, missing=np.asarray(missing, dtype=str))


def install(tracer: Tracer) -> list[str]:
    """Wrap every target in place; return the targets that no longer exist.

    cli, roundtrip and conformal import functions by name, so every binding of
    the same function object in any flowconformal module is replaced, and a
    class attribute aliasing a method (``Mlp.__call__ = forward``) is too.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "flowconformal" or n.startswith("flowconformal.")]
    missing = []
    for mod_name, attr, measure in TARGETS:
        mod = importlib.import_module(f"flowconformal.{mod_name}")
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        namespace = vars(owner) if owner is not None else {}
        fn = namespace.get(member)
        if fn is None or not callable(fn):
            missing.append(f"{mod_name}.{attr}")
            continue
        wrapped = tracer.wrap(fn, f"{mod_name}.{attr}", measure)
        targets = [owner] if owner_name else modules
        for holder in targets:
            for key, val in list(vars(holder).items()):
                if val is fn:
                    setattr(holder, key, wrapped)
    return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one CLI stage with tracing on")
    parser.add_argument("--spans", required=True, help="output .npz path")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter()
    import flowconformal.cli as cli
    import_s = time.perf_counter() - t0
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"tracer: flowconformal imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3

    tracer = Tracer()
    missing = install(tracer)
    try:
        rc = cli.main(cli_args)
    finally:
        tracer.save(args.spans, args.run_id, import_s, missing)
    return rc


if __name__ == "__main__":
    sys.exit(main())
