"""Command-line pipeline: exit codes, artifacts, determinism, manifest.

Runs the entry point in process on a tiny two-class synthetic problem and
asserts on the files each stage writes. Predictive-set files must be exactly
re-derivable from the p-value files, and reruns must be byte-identical.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import pickle
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import weakref
from dataclasses import MISSING

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowconformal import baselines, cli, roundtrip
from flowconformal.cli import _SCHEMA, ExperimentConfig, build_parser, load_config, main
from flowconformal.conformal import load_p_values, load_sets
from flowconformal.datasets import load_dataset_csv, load_dataset_npy
from flowconformal.errors import ConfigError, DataError
from conftest import networks_json, openblas_core
from loss_oracle import tape_cross_entropy
from table_oracle import read_table as oracle_read

ALPHA = 0.05
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def base_config(out_dir, **extra):
    doc = {
        "seed": 3,
        "out_dir": str(out_dir),
        "dataset": {"synthetic": {
            "means": [[0.0], [6.0]],
            "train_per_class": 64,
            "test_per_class": 20,
            "outlier": {"mean": [12.0], "n": 50},
        }},
        "model": {"latent_dim": 1,
                  "gen_hidden": [8], "inv_hidden": [8], "disc_hidden": [8],
                  "train": {"epochs": 4, "batch_size": 16,
                            "w_mmd": 8.0, "w_cycle": 0.5}},
        "conformal": {"alpha": ALPHA},
        "contamination": {"rates": [0.0, 0.1]},
        "baselines": {"enabled": True, "epochs": 5},
    }
    doc.update(extra)
    return doc


def write_config(tmp_path, name="config.json", **extra):
    out_dir = tmp_path / "out"
    doc = base_config(out_dir, **extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path), out_dir


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg_path, out_dir = write_config(tmp)
    assert main(["run-experiment", "--config", cfg_path]) == 0
    return cfg_path, out_dir


# -- exit codes -----------------------------------------------------------------------

def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--bogus"])
    assert exc.value.code == 1


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_missing_config_file_exits_one(tmp_path):
    assert main(["gen-data", "--config", str(tmp_path / "nope.json")]) == 1


def test_invalid_json_config_exits_one(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["gen-data", "--config", str(path)]) == 1


def test_invalid_config_value_exits_one(tmp_path):
    cfg_path, _ = write_config(tmp_path, contamination={"rates": [0.0, 2.0]})
    assert main(["gen-data", "--config", cfg_path]) == 1


def test_gen_data_rejects_a_latent_size_above_the_image_size(tmp_path, capsys):
    tri, trl = _idx_pair(tmp_path, "train", [0, 1] * 6, 0)
    tei, tel = _idx_pair(tmp_path, "test", [0, 1] * 3, 7)
    out_dir = tmp_path / "out"
    doc = {"seed": 1, "out_dir": str(out_dir),
           "dataset": {"idx": {"train_images": tri, "train_labels": trl,
                               "test_images": tei, "test_labels": tel}},
           "model": {"latent_dim": 8},
           "contamination": {"rates": [0.0]}}
    cfg_path = tmp_path / "idx.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["gen-data", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        "config error: model.latent_dim must lie in [1, input_dim=4], got 8\n")
    assert not list((out_dir / "data").glob("*"))


# sha256 of each data/ file that gen-data writes from the arithmetic IDX
# files below. The path from IDX bytes to .npy and CSV files (pixel scaling,
# the stratified split, the contamination draw, np.save, the table codec)
# calls no BLAS or LAPACK, so these bytes are the same on any little-endian
# machine with this numpy.
GOLDEN_IDX_DIGESTS = {
    "calibration_features.npy":
        "45f3b0b157bfa69b784496ae25aae541b4c2a372dc073f4edacee9999483f391",
    "calibration_labels.npy":
        "11647e0a705c3ab1e42fef4d3f65c135f387dd1327f83d3f8c9b690942aa6b05",
    "outliers_features.npy":
        "cb47d22e095fffb6281d1b7ce373b4f0b4a2941b4e3e09b62c9e5905343e3662",
    "outliers_labels.npy":
        "d99c920afd0b9e4687a89b91c3822251a0bf7a12ae8aaec70c4fdc891959626f",
    "test_c0.csv":
        "864194271121f64a2ef00efadb54d59cabaea41a8756855367eb7e4fe9670d72",
    "test_c10.csv":
        "9c1e2a83522b3fd0376c7bbb953a2238e42d400e9248d6b1d513bc59c2bae34c",
    "train_features.npy":
        "5cab736e052519d6595b5c9caafa88288db3cd8844ff68d01bb0759057448f43",
    "train_labels.npy":
        "67aeb287012a7518186b35264402dabec5fbf6b8efb13119f9f78ce582e4e704",
}


def _arithmetic_idx(tmp_path, stem, n):
    """IDX files of ``n`` 4x4 images whose pixels take 23 levels, set by the
    row and pixel index, with raw labels 0-3 in turn."""
    row, pixel = np.ogrid[:n, :16]
    pixels = ((7 * row + 13 * pixel) % 23 * 11).astype(np.uint8)
    (tmp_path / f"{stem}-images.idx").write_bytes(
        struct.pack(">iiii", 0x00000803, n, 4, 4) + pixels.tobytes())
    (tmp_path / f"{stem}-labels.idx").write_bytes(
        struct.pack(">ii", 0x00000801, n) + bytes(i % 4 for i in range(n)))
    return str(tmp_path / f"{stem}-images.idx"), str(tmp_path / f"{stem}-labels.idx")


def test_gen_data_from_idx_files_matches_the_golden_digests(tmp_path):
    tri, trl = _arithmetic_idx(tmp_path, "train", 700)
    tei, tel = _arithmetic_idx(tmp_path, "test", 200)
    out_dir = tmp_path / "out"
    doc = {"seed": 5, "out_dir": str(out_dir),
           "dataset": {"idx": {"train_images": tri, "train_labels": trl,
                               "test_images": tei, "test_labels": tel,
                               "holdout_raw_label": 3, "calibration_fraction": 0.25}},
           "contamination": {"rates": [0.0, 0.1]}}
    cfg_path = tmp_path / "idx.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["gen-data", "--config", str(cfg_path)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted((out_dir / "data").iterdir())}
    assert digests == GOLDEN_IDX_DIGESTS


@pytest.mark.parametrize("train, key", [
    ({"bogus": 3}, "'bogus'"),
    ({"epochs": "2"}, "'epochs'"),
    ({"epochs": 2.0}, "'epochs'"),
    ({"lr_gen": True}, "'lr_gen'"),
    ({"bandwidth": "wide"}, "'bandwidth'"),
])
def test_bad_train_key_exits_one_naming_it(tmp_path, capsys, train, key):
    doc = base_config(tmp_path / "out")
    doc["model"]["train"] = train
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["gen-data", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("path, value, named", [
    (("model",), 3, "config.model"),
    (("conformal",), [], "config.conformal"),
    (("contamination",), 3, "config.contamination"),
    (("baselines",), "on", "config.baselines"),
    (("dataset",), [], "config.dataset"),
    (("dataset", "synthetic"), 3, "dataset.synthetic"),
    (("dataset", "synthetic", "outlier"), [12.0], "dataset.synthetic.outlier"),
    (("dataset",), {"idx": 3}, "dataset.idx"),
])
@pytest.mark.parametrize("flags", [[], ["--alpha", "0.1", "--contamination-rate", "0.2",
                                        "--p-value-mode", "smoothed", "--baselines", "off"]])
def test_section_that_is_not_an_object_exits_one_naming_it(tmp_path, capsys, path, value,
                                                           named, flags):
    doc = base_config(tmp_path / "out")
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["gen-data", "--config", str(cfg_path), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named} must be a JSON object")
    assert "Traceback" not in err


def test_config_that_is_not_an_object_exits_one(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    assert main(["gen-data", "--config", str(path), "--seed", "4"]) == 1
    assert capsys.readouterr().err == "config error: config must be a JSON object\n"


def _with(doc, path, value):
    """``doc`` with ``value`` written at the key path ``path``."""
    doc = json.loads(json.dumps(doc))
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return doc


def _run_gen_data(tmp_path, doc):
    """(exit code, stderr) of gen-data on ``doc``."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["gen-data", "--config", str(cfg_path)])
    return code, err.getvalue()


@pytest.mark.parametrize("path, value, named", [
    # wrongly typed values
    (("seed",), [], "'seed'"),
    (("seed",), "x", "'seed'"),
    (("seed",), 3.7, "'seed'"),
    (("model", "latent_dim"), [2], "'latent_dim'"),
    (("dataset", "synthetic", "means"), 3, "'means'"),
    (("conformal", "alpha"), "a", "'alpha'"),
    (("conformal", "alpha"), "0.1", "'alpha'"),
    (("contamination", "rates"), "0.1", "'rates'"),
    (("baselines", "enabled"), "false", "'enabled'"),
    (("normalize",), "no", "'normalize'"),
    (("out_dir",), None, "'out_dir'"),
    # unknown keys, the seed of model.train included
    (("baseline",), {"enabled": False}, "'baseline'"),
    (("model", "latent"), 2, "'latent'"),
    (("baselines", "enable"), False, "'enable'"),
    (("model", "train", "seed"), 5, "'seed'"),
    # values out of range or of the wrong shape
    (("seed",), -1, "config.seed"),
    (("dataset", "synthetic", "means"), [[], []], "means"),
    (("dataset", "synthetic", "outlier", "mean"), [], "outlier.mean"),
    (("dataset", "synthetic", "outlier", "mean"), [12.0, 12.0], "outlier.mean"),
    (("dataset", "synthetic", "train_per_class"), 0, "train_per_class"),
    (("dataset", "synthetic", "outlier", "n"), 0, "outlier.n"),
    (("model", "gen_hidden"), [0], "gen_hidden"),
    (("model", "inv_hidden"), [-3], "inv_hidden"),
    (("model", "disc_hidden"), [8, 0], "disc_hidden"),
    (("baselines", "hidden"), [0], "hidden"),
    (("model", "latent_dim"), 0, "latent_dim"),
    (("model", "latent_dim"), 2, "latent_dim"),  # the class means are 1-D
])
def test_bad_config_value_exits_one_naming_its_key(tmp_path, path, value, named):
    doc = _with(base_config(tmp_path / "out"), path, value)
    code, err = _run_gen_data(tmp_path, doc)
    assert code == 1, err
    assert err.startswith("config error: ") and named in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-1000, 1000),  # sizes past 1000 cost real memory
    st.floats(-1000, 1000), st.sampled_from([math.inf, -math.inf, math.nan]),
    # no "/" and no "..": a string never names a path out of the working directory
    st.text(alphabet="ab01", max_size=3), st.sampled_from(["0.1", "false", "no"]),
)
_VALUE = st.one_of(
    _SCALAR, st.lists(_SCALAR, max_size=3),
    st.dictionaries(st.text(alphabet="abn", max_size=2), _SCALAR, max_size=2),
)


@pytest.mark.parametrize("path", list(_key_paths(base_config("out"))), ids=".".join)
@settings(max_examples=25)
@given(value=_VALUE)
def test_any_json_value_at_any_key_exits_cleanly(path, value):
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # a substituted out_dir is relative to here
        try:
            code, err = _run_gen_data(pathlib.Path(tmp), _with(base_config("out"), path, value))
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), err
    if code == 1:
        assert err.startswith("config error: ") and path[-1] in err, err
    elif code == 2:
        assert err.startswith("error: "), err
    assert err.count("\n") == int(code != 0), err


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(REPO, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "full"])
@pytest.mark.parametrize("workload", ["readme", "scoring", "idx-wide"])
def test_benchmark_configs_pass_the_schema(tmp_path, workload, smoke):
    workloads = _load_workloads()
    assert workload in workloads.WORKLOADS
    cfg_path = str(tmp_path / workloads.write_inputs(workload, 3, smoke, str(tmp_path)))
    cfg = load_config(cfg_path, build_parser().parse_args(["gen-data", "--config", cfg_path]))
    assert cfg.rates == workloads.RATES


def _readme():
    with open(os.path.join(REPO, "README.md")) as fh:
        return fh.read()


def test_readme_config_passes_the_schema(tmp_path):
    block = _readme().split("A minimal synthetic config:\n\n```json\n", 1)[1].split("```", 1)[0]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(block)
    args = build_parser().parse_args(["gen-data", "--config", str(cfg_path)])
    assert load_config(str(cfg_path), args).rates == (0.0, 0.05, 0.1)


def _schema_rows(schema, prefix=""):
    for key, rule in schema.items():
        if isinstance(rule, dict):
            yield from _schema_rows(rule, f"{prefix}{key}.")
        else:
            kind, default = rule
            shown = "required" if default is MISSING else f"`{json.dumps(default)}`"
            yield f"`{prefix}{key}`", f"`{kind}`", shown


def test_readme_config_reference_matches_the_schema():
    rows = [tuple(cell.strip().replace("\\|", "|") for cell in line.strip("|").split(" | "))
            for line in _readme().splitlines() if line.startswith("| `")]
    assert [r[0] for r in rows] == [r[0] for r in _schema_rows(_SCHEMA)]
    assert rows == list(_schema_rows(_SCHEMA))


def test_train_config_recorded_for_valid_train_keys(pipeline):
    _, out_dir = pipeline
    doc = json.loads((out_dir / "models" / "class_1.json").read_text())
    assert doc["train_config"] == {
        "epochs": 4, "batch_size": 16, "lr_gen": 1e-3, "lr_disc": 1e-3, "lr_pred": 1e-4,
        "w_gan": 1.0, "w_mmd": 8.0, "w_cycle": 0.5, "w_pred": 1.0, "disc_steps": 1,
        "seed": 4, "bandwidth": None,
    }


def test_missing_training_data_exits_two(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    assert main(["train", "--config", cfg_path]) == 2


def test_predict_before_train_exits_two(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["predict", "--config", cfg_path]) == 2


# -- gen-data ---------------------------------------------------------------------------

def test_gen_data_writes_expected_files(pipeline):
    _, out = pipeline
    assert sorted(path.name for path in (out / "data").iterdir()) == [
        "calibration_features.npy", "calibration_labels.npy",
        "outliers_features.npy", "outliers_labels.npy",
        "test_c0.csv", "test_c10.csv", "train_features.npy", "train_labels.npy"]


def test_gen_data_row_counts(pipeline):
    _, out = pipeline
    train = load_dataset_npy(str(out / "data" / "train"))
    assert train.n == 128 and train.class_labels() == (1, 2)
    assert load_dataset_npy(str(out / "data" / "calibration")).n == 0
    outliers = load_dataset_npy(str(out / "data" / "outliers"))
    assert outliers.n == 50 and np.all(outliers.labels == 0)
    clean = load_dataset_csv(str(out / "data" / "test_c0.csv"))
    assert clean.n == 40 and not np.any(clean.labels == 0)
    # 40 inliers at 10%: round(0.1 * 40 / 0.9) = 4 outlier rows
    arm = load_dataset_csv(str(out / "data" / "test_c10.csv"))
    assert arm.n == 44 and int(np.sum(arm.labels == 0)) == 4


def test_gen_data_rerun_is_byte_identical(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["gen-data", "--config", cfg_path]) == 0
    before = {p.name: p.read_bytes() for p in (out / "data").iterdir()}
    assert main(["gen-data", "--config", cfg_path]) == 0
    after = {p.name: p.read_bytes() for p in (out / "data").iterdir()}
    assert before == after


def test_rate_tokens():
    cfg = ExperimentConfig.from_dict(base_config("o"))
    assert cfg.rate_token(0.0) == "c0"
    assert cfg.rate_token(0.05) == "c5"
    assert cfg.rate_token(0.1) == "c10"
    assert cfg.rate_token(0.125) == "c12_5"


# -- train and calibrate -------------------------------------------------------------------

def test_train_writes_models_traces_and_normalizer(pipeline):
    _, out = pipeline
    for label in (1, 2):
        assert (out / "models" / f"class_{label}.json").exists()
        trace = json.loads((out / "models" / f"trace_class_{label}.json").read_text())
        assert set(trace) == {"disc", "gan", "mmd", "cycle", "pred"}
        assert all(len(v) == 4 for v in trace.values())
    assert (out / "models" / "normalizer.json").exists()


def test_train_writes_the_same_models_for_any_cpu_count(tmp_path, monkeypatch):
    # 3 classes: serial, then one process per class (class 1 here, 2 and 3
    # in workers) on 2 and on 5 CPUs
    out = tmp_path / "out"
    doc = base_config(out)
    doc["dataset"]["synthetic"].update(means=[[0.0], [6.0], [12.0]],
                                       outlier={"mean": [24.0], "n": 50})
    cfg_path = str(tmp_path / "config.json")
    (tmp_path / "config.json").write_text(json.dumps(doc))
    assert main(["gen-data", "--config", cfg_path]) == 0
    trees = []
    for cpus in (1, 2, 5):
        monkeypatch.setattr(roundtrip, "_usable_cpus", lambda: cpus)
        shutil.rmtree(out / "models")
        assert main(["train", "--config", cfg_path]) == 0
        trees.append({p.name: p.read_bytes() for p in (out / "models").iterdir()})
    assert len(trees[0]) == 7  # normalizer, a model and a trace per class
    assert trees[0] == trees[1] == trees[2]
    # a model file holds only the inverse map; G, D and h are compared here
    train = load_dataset_npy(str(out / "data" / "train"))
    arch = roundtrip.FlowArchitecture(1, 1, (8,), (8,), (8,))
    config = roundtrip.TrainConfig(epochs=4, batch_size=16, w_mmd=8.0, w_cycle=0.5, seed=3)
    nets = []
    for cpus in (1, 2, 5):
        monkeypatch.setattr(roundtrip, "_usable_cpus", lambda: cpus)
        trained = roundtrip.train_class_flows(train.features, train.labels, arch, config)
        nets.append([(model.class_label, networks_json(model)) for model, _ in trained])
    assert [label for label, _ in nets[0]] == [1, 2, 3]
    assert nets[0] == nets[1] == nets[2]


@pytest.mark.parametrize("failure, code, message", [
    (ConfigError("class 2 has 3 rows"), 1, "config error: class 2 has 3 rows"),
    (FloatingPointError("non-finite mmd loss"), 2, "error: non-finite mmd loss"),
    (None, 2, "error: the worker process training class 2 died"),
])
def test_train_worker_failure_exits_with_a_message(tmp_path, monkeypatch, capsys,
                                                   failure, code, message):
    cfg_path, out = write_config(tmp_path)
    assert main(["gen-data", "--config", cfg_path]) == 0
    parent, fit = os.getpid(), roundtrip.train_class_flow

    def fail_in_worker(*args):
        if os.getpid() == parent:
            return fit(*args)
        if failure is None:
            os._exit(1)
        raise failure

    # the forked worker inherits the patch; this process trains class 1 as usual
    monkeypatch.setattr(roundtrip, "train_class_flow", fail_in_worker)
    monkeypatch.setattr(roundtrip, "_usable_cpus", lambda: 2)
    capsys.readouterr()
    assert main(["train", "--config", cfg_path]) == code
    err = capsys.readouterr().err
    assert err == message + "\n"
    assert not (out / "models" / "class_1.json").exists()


def _three_class_doc(out, **extra):
    doc = base_config(out, **extra)
    doc["dataset"]["synthetic"].update(means=[[0.0], [6.0], [12.0]],
                                       outlier={"mean": [24.0], "n": 50})
    return doc


def _run(tmp_path, doc, *stages):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    for stage in stages:
        assert main([stage, "--config", str(path)]) == 0, stage


def test_retraining_without_normalization_drops_the_old_normalizer(tmp_path):
    # a normalizer.json left by a normalized run would contradict normalize:
    # false, and the scoring stages refuse a normalizer that the config disowns
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    for out in (reused, fresh):
        out.mkdir()
    train = {"epochs": 1, "batch_size": 16, "w_mmd": 8.0, "w_cycle": 0.5}
    doc = _three_class_doc(reused / "out", seed=1)
    doc["model"]["train"] = train
    _run(reused, doc, "run-experiment")
    assert (reused / "out" / "models" / "normalizer.json").exists()
    _run(reused, dict(doc, normalize=False), "train", "calibrate", "predict", "evaluate")
    assert not (reused / "out" / "models" / "normalizer.json").exists()
    _run(fresh, dict(doc, normalize=False, out_dir=str(fresh / "out")), "run-experiment")
    reports = sorted(p.name for p in (fresh / "out" / "reports").iterdir())
    assert reports
    for name in reports:
        assert ((reused / "out" / "reports" / name).read_bytes()
                == (fresh / "out" / "reports" / name).read_bytes()), name


def test_retraining_on_fewer_classes_drops_the_old_models(tmp_path):
    doc = _three_class_doc(tmp_path / "out")
    doc["model"]["train"]["epochs"] = 1
    _run(tmp_path, doc, "gen-data", "train")
    doc["dataset"]["synthetic"].update(means=[[0.0], [6.0]])
    _run(tmp_path, doc, "gen-data", "train", "calibrate")
    models = sorted(p.name for p in (tmp_path / "out" / "models").iterdir())
    assert models == ["class_1.json", "class_2.json", "normalizer.json",
                      "trace_class_1.json", "trace_class_2.json"]
    # the manifest lists what the directory holds, not the first run's models
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["artifacts"]["train"] == [f"models/{name}" for name in models]


# sha256 of every file run-experiment writes for the three-class config at
# seed 3, manifest.json without its two timestamps (as perfbench's
# tree_digest takes them). Training runs BLAS products, so the bytes hold for
# the numpy and BLAS builds below, with the gemm kernels of the OpenBLAS core
# below; elsewhere the test skips.
GOLDEN_RUN_MACHINE = {"numpy": "2.4.6", "blas": "scipy-openblas", "blas_version": "0.3.31.188.0",
                      "blas_core": "SkylakeX"}
GOLDEN_RUN_DIGESTS = {
    "data/calibration_features.npy":
        "aa03397bf977ff4f544e8768afd91f3f4b876dc9732a7b9550ca82f5639b5ef4",
    "data/calibration_labels.npy":
        "e734dac55ea9fbbe782af2d8c02c3c5992131906228afb2aaaf137d6f3ed74db",
    "data/outliers_features.npy":
        "974b637449f794c5125a1adc0630012f3d712562d7afce89e553e21782d8c701",
    "data/outliers_labels.npy":
        "d99c920afd0b9e4687a89b91c3822251a0bf7a12ae8aaec70c4fdc891959626f",
    "data/test_c0.csv":
        "87fa08923dbbf233c7aa45cf57c2bdb71a209af379ff1b7e76cf9b52698d2869",
    "data/test_c10.csv":
        "e70c3c650dfc5c70e1a6bff4461ee7c9995bef5b82cfdb5e48d4916023ea4e7c",
    "data/train_features.npy":
        "f43350f605a4ef183b44b7e1cd582f22b0bab024e0f2793819e59b9071be8677",
    "data/train_labels.npy":
        "8ba23d60e46a37e89f393f73665680a23cb9018a266ade0d957a1dffae943863",
    "manifest.json":
        "82a993b0be12e48d3a76f702cbea1dcfa06d32c37a6dcc338a763da07b466657",
    "models/class_1.json":
        "285c6d8ef079700b9378118759b119965db775cc59c0a5166d01790ef9027b34",
    "models/class_2.json":
        "178131f5a4202383e4e53140441fa888eca45631b24821203b35390126d91bfe",
    "models/class_3.json":
        "b6bdb587726ecc3126001517e9559d74a5c796109a1fefb38710968f2f398c87",
    "models/normalizer.json":
        "f6a5808d14ffb3f05cfda66a55c4858d7f556e3a1e17ec70fc6667d26eca3654",
    "models/trace_class_1.json":
        "04f28182a51f876b4b7ac5a04b7becca86425149a7ad94e424d105c6afbc1d22",
    "models/trace_class_2.json":
        "fd8ac2fec75c03b00ebe83d557674f48aa8bd610b07d85767ebded75676d42eb",
    "models/trace_class_3.json":
        "9f9454c7a9433b58bcaf4f3f32376a3a45125729bc84fc2d7c628964f2335637",
    "pools/pools.csv":
        "e0faa2fd4ff3ff0bbce5d0ab4f595a5097a9fa186d892f932556538a01b59b9c",
    "predictions/probs_c0.csv":
        "b4bce82a24bc0476d1c4145c14192021303e0e79578b0c92f3f3e0003a49b6f4",
    "predictions/probs_c10.csv":
        "d01542082c0e630811d3e9942871ade4bb8768abc887d68b1ea58050fd3d677e",
    "predictions/pvalues_c0.csv":
        "90bf5f05ec5d1b3878c2cb3386d0a5061e10372f293c22f360b1a09ad99e362b",
    "predictions/pvalues_c10.csv":
        "6746f79b498c4901af05c3eb18bc5a64a196eea05107ed6976d2b5d237deae95",
    "predictions/sets_c0.csv":
        "bc3cdf4403a1d7b65f6e9a4385779034ad8dff7decee2ef0a7157f2465406aef",
    "predictions/sets_c10.csv":
        "ee6d12568f41df7ec177e34301dc8a5898158f422f48e623db9317039d26bb4e",
    "reports/comparison.csv":
        "a719b8e58b7ae5746d0f0cf9375170bc26424f80d51e74a0072d5b15c51c0d8f",
    "reports/hist_c0_class1.csv":
        "4234b0401c00370e185fc516d724bd9161209fdfae23783f336714c658968c95",
    "reports/hist_c0_class2.csv":
        "103e61f959fb7b4be74e751756832d0279b68f005514b9e54cbfe49f6ace40fb",
    "reports/hist_c0_class3.csv":
        "16d60c231db9037d7ba180c8e43883638ab4105de0be96059b37fbe0f0c48d49",
    "reports/hist_c10_class1.csv":
        "4234b0401c00370e185fc516d724bd9161209fdfae23783f336714c658968c95",
    "reports/hist_c10_class2.csv":
        "103e61f959fb7b4be74e751756832d0279b68f005514b9e54cbfe49f6ace40fb",
    "reports/hist_c10_class3.csv":
        "16d60c231db9037d7ba180c8e43883638ab4105de0be96059b37fbe0f0c48d49",
    "reports/report_aps_c0.json":
        "8ca727eec799490f1b98bc0eed2fd4a0b1f965e3601268f450ebf02b20844843",
    "reports/report_aps_c10.json":
        "f266bbe898948a1c4c046ac85f7e33443ed1f6224432c81ead79f40c0b6185f3",
    "reports/report_flow_c0.json":
        "dcf626cb15620b5555f119b7b399f4b408cffc09831b71a7c405407a25de4a58",
    "reports/report_flow_c10.json":
        "b077c9709e5c78317f04330bd10b07556f2eb08e704078a804eaf2478750ef54",
    "reports/report_scaling_c0.json":
        "8ca727eec799490f1b98bc0eed2fd4a0b1f965e3601268f450ebf02b20844843",
    "reports/report_scaling_c10.json":
        "46345a0e12f1af59c2ecf363d9b6170ea29674fef2f3fcf9be2bfc0128987f85",
}


def _run_machine():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_core": openblas_core()}


def _tree_digest(out_dir):
    digests = {}
    for path in sorted(out_dir.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        rel = path.relative_to(out_dir).as_posix()
        if rel == "manifest.json":
            doc = json.loads(data)
            doc.pop("created", None)
            doc.pop("updated", None)
            data = json.dumps(doc, sort_keys=True).encode()
        digests[rel] = hashlib.sha256(data).hexdigest()
    return digests


def test_run_experiment_matches_the_golden_digests(tmp_path, monkeypatch):
    machine = _run_machine()
    if machine != GOLDEN_RUN_MACHINE:
        pytest.skip(f"digests recorded on {GOLDEN_RUN_MACHINE}, this is {machine}")
    # a relative out_dir keeps the manifest's config hash free of tmp_path
    monkeypatch.chdir(tmp_path)
    _run(tmp_path, _three_class_doc("out"), "run-experiment")
    assert _tree_digest(tmp_path / "out") == GOLDEN_RUN_DIGESTS


# sha256 of every file run-experiment writes for the full-size benchmark
# workloads at seed 3, their inputs built by perfbench/workloads.py, in the
# form perfbench's tree_digest takes; recorded on GOLDEN_RUN_MACHINE.
GOLDEN_WORKLOAD_DIGESTS = os.path.join(REPO, "tests", "golden_workload_digests.json")


@pytest.mark.parametrize("workload", ["readme", "scoring", "idx-wide"])
def test_benchmark_workloads_match_the_golden_digests(tmp_path, monkeypatch, workload):
    machine = _run_machine()
    if machine != GOLDEN_RUN_MACHINE:
        pytest.skip(f"digests recorded on {GOLDEN_RUN_MACHINE}, this is {machine}")
    monkeypatch.chdir(tmp_path)
    cfg_path = _load_workloads().write_inputs(workload, 3, False, str(tmp_path))
    assert main(["run-experiment", "--config", cfg_path]) == 0
    with open(GOLDEN_WORKLOAD_DIGESTS) as fh:
        golden = json.load(fh)[workload]
    assert _tree_digest(tmp_path / "out") == golden


def test_no_stage_imports_numpy_ma(tmp_path):
    # a plain np.unique imports numpy.ma, ~10 ms of every stage's start-up,
    # to ask whether its input is masked; each stage runs in a fresh process
    cfg_path, _ = write_config(tmp_path)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys\n"
             "from flowconformal.cli import main\n"
             "print(main(sys.argv[1:]), 'numpy.ma' in sys.modules)\n")
    for stage in ("gen-data", "train", "calibrate", "predict", "evaluate"):
        done = subprocess.run([sys.executable, "-c", probe, stage, "--config", cfg_path],
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.stdout.split() == ["0", "False"], (stage, done.stdout, done.stderr)


def test_calibrate_pool_sizes_match_training_rows(pipeline):
    _, out = pipeline
    lines = (out / "pools" / "pools.csv").read_text().splitlines()
    assert lines[0] == "class,score"
    per_class = {}
    for line in lines[1:]:
        label = int(line.split(",")[0])
        per_class[label] = per_class.get(label, 0) + 1
    assert per_class == {1: 64, 2: 64}


def test_model_files_hold_only_the_inverse_map(pipeline):
    _, out = pipeline
    for label in (1, 2):
        doc = json.loads((out / "models" / f"class_{label}.json").read_text())
        assert list(doc) == ["version", "class_label", "train_config", "inverse"]
        assert (doc["version"], doc["class_label"]) == (2, label)
        assert list(doc["inverse"]) == ["spec", "layers"]
        assert doc["inverse"]["spec"]["layer_widths"] == [1, 8, 1]


def _calibrate_copy(pipeline, tmp_path, name, edit):
    """(path, exit code, stderr) of calibrate on a copy of the pipeline's
    output whose models/``name`` is rewritten by ``edit`` (text -> text)."""
    cfg_path, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / "models" / name
    path.write_text(edit(path.read_text()))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["calibrate", "--config", cfg_path, "--out", str(copy)])
    return path, code, err.getvalue()


def _doc_edit(change):
    return lambda text: json.dumps(change(json.loads(text)))


def _setting(key, value):
    return _doc_edit(lambda doc: _with(doc, (key,), value))


def _without(*path):
    def drop(doc):
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        del holder[path[-1]]
        return doc
    return _doc_edit(drop)


@pytest.mark.parametrize("name, edit, message", [
    ("class_1.json", _without("inverse"), "missing key 'inverse'"),
    ("class_1.json", _without("class_label"), "missing key 'class_label'"),
    ("class_1.json", _doc_edit(lambda doc: [doc]), "expected a JSON object, got list"),
    ("class_1.json", lambda text: text[:-10], "not valid JSON"),
    ("class_1.json", _setting("class_label", "x"), "class_label must be a positive int, got 'x'"),
    ("class_1.json", _setting("class_label", 0), "class_label must be a positive int, got 0"),
    ("class_1.json", _setting("class_label", 1.0), "class_label must be a positive int, got 1.0"),
    ("class_1.json", _setting("train_config", []), "train_config must be an object, got []"),
    ("class_1.json", _setting("inverse", 3), "malformed inverse map"),
    ("class_1.json", _without("inverse", "layers"), "malformed inverse map: KeyError('layers')"),
    ("class_1.json", _doc_edit(lambda doc: _with(doc, ("inverse", "layers"),
                                              doc["inverse"]["layers"][:1])),
     "malformed inverse map: ValueError('expected 2 layers, got 1')"),
    ("class_1.json", _doc_edit(lambda doc: _with(doc, ("inverse", "layers", 0, "b"),
                                              [math.nan] * 8)),
     "malformed inverse map: ValueError('network weights must be finite')"),
    ("class_2.json", _setting("class_label", 1), "class_label 1 repeats that of class_1.json"),
    ("class_2.json", _setting("class_label", 3),
     "class_label 3 does not match the file name (expected class_3.json)"),
    ("normalizer.json", _without("std"), "missing key 'std'"),
    ("normalizer.json", _doc_edit(lambda doc: [doc]), "expected a JSON object, got list"),
    ("normalizer.json", _setting("mean", "x"), "mean and std must be lists of numbers"),
    ("normalizer.json", _setting("std", [1.0, 1.0]), "must be lists of equal length"),
    ("normalizer.json", _setting("std", [0.0]), "std finite and positive"),
    ("normalizer.json", _setting("std", [-1.0]), "std finite and positive"),
    ("normalizer.json", _setting("std", [math.inf]), "std finite and positive"),
    ("normalizer.json", _setting("mean", [math.nan]), "mean must be finite"),
], ids=["model-no-inverse", "model-no-label", "model-array", "model-not-json", "model-label-str",
        "model-label-0", "model-label-float", "model-config-list", "model-inverse-int",
        "model-no-layers", "model-one-layer", "model-nan-weight", "model-label-repeated",
        "model-label-not-its-name", "norm-no-std", "norm-array",
        "norm-mean-str", "norm-lengths", "norm-std-0", "norm-std-negative", "norm-std-inf",
        "norm-mean-nan"])
def test_malformed_model_or_normalizer_exits_two_naming_the_file(pipeline, tmp_path,
                                                                 name, edit, message):
    path, code, err = _calibrate_copy(pipeline, tmp_path, name, edit)
    assert code == 2
    assert err.startswith(f"error: {path}: ") and message in err
    assert err.count("\n") == 1


def test_calibrate_on_a_version_1_model_file_exits_two_asking_to_retrain(pipeline, tmp_path):
    def version_1(doc):
        # the old layout: four networks, each with its own version, and the dimensions
        net = {**doc["inverse"], "version": 1}
        return {"version": 1, "class_label": 2, "input_dim": 1, "latent_dim": 1,
                "train_config": doc["train_config"], "generator": net, "inverse": net,
                "discriminator": net, "head": net}

    path, code, err = _calibrate_copy(pipeline, tmp_path, "class_2.json", _doc_edit(version_1))
    assert code == 2
    assert err == f"error: {path}: model format version 1 is not 2; rerun train\n"


# -- predict ---------------------------------------------------------------------------------

def test_predict_writes_pvalues_and_sets_per_rate(pipeline):
    _, out = pipeline
    for token in ("c0", "c10"):
        assert (out / "predictions" / f"pvalues_{token}.csv").exists()
        assert (out / "predictions" / f"sets_{token}.csv").exists()


def test_predict_rerun_is_byte_identical(pipeline):
    cfg_path, out = pipeline
    target = out / "predictions" / "pvalues_c10.csv"
    before = target.read_bytes()
    assert main(["predict", "--config", cfg_path]) == 0
    assert target.read_bytes() == before


def test_sets_re_derivable_from_p_values(pipeline):
    _, out = pipeline
    for token in ("c0", "c10"):
        labels, matrix = load_p_values(
            str(out / "predictions" / f"pvalues_{token}.csv"))
        named, member = load_sets(str(out / "predictions" / f"sets_{token}.csv"))
        assert named == labels
        assert np.array_equal(member, matrix >= ALPHA)


def test_outlier_token_written_iff_every_p_below_alpha(pipeline):
    _, out = pipeline
    labels, matrix = load_p_values(str(out / "predictions" / "pvalues_c10.csv"))
    raw = (out / "predictions" / "sets_c10.csv").read_text().splitlines()[1:]
    tokens = [line.split(",", 1)[1] for line in raw]
    assert len(tokens) == len(matrix)
    for row, token in zip(matrix, tokens):
        assert (token == ",".join(["0"] * len(labels))) == bool(np.all(row < ALPHA))


def test_predict_accepts_explicit_test_file(pipeline):
    cfg_path, out = pipeline
    custom = out / "data" / "custom_arm.csv"
    custom.write_bytes((out / "data" / "test_c0.csv").read_bytes())
    assert main(["predict", "--config", cfg_path, "--test-file", str(custom)]) == 0
    assert (out / "predictions" / "pvalues_custom_arm.csv").exists()
    assert (out / "predictions" / "sets_custom_arm.csv").exists()


@pytest.fixture(scope="module")
def out_copy(pipeline, tmp_path_factory):
    """A copy of the pipeline's output directory, for tests that write into it."""
    cfg_path, out = pipeline
    copy = tmp_path_factory.mktemp("copy") / "out"
    shutil.copytree(out, copy)
    return cfg_path, copy


def _stage(cfg_path, out, *args):
    """(exit code, stderr) of one stage run into ``out``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*args, "--config", cfg_path, "--out", str(out)])
    return code, err.getvalue()


def test_predict_names_the_line_of_an_oversized_label(out_copy):
    cfg_path, out = out_copy
    lines = (out / "data" / "test_c10.csv").read_text().splitlines()
    lines[1] = "99999999999999999999" + lines[1][lines[1].index(","):]
    path = out / "data" / "test_c5.csv"
    path.write_text("\n".join(lines) + "\n")
    code, err = _stage(cfg_path, out, "predict", "--test-file", str(path))
    assert code == 2
    assert err == f"error: {path}:2: int field '99999999999999999999' is outside int64\n"


@st.composite
def _mutated_arms(draw, text):
    """``text``, a dataset table, with one to three of: a comma dropped or
    added, a field replaced by junk, and a blank or whitespace-only line."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        kind = draw(st.sampled_from(["drop_comma", "add_comma", "field", "blank"]))
        if kind == "blank":
            lines.insert(i, draw(st.sampled_from(["", " ", "\t", " \r"])))
            continue
        fields = lines[i].split(",")
        if kind == "drop_comma" and len(fields) > 1:
            j = draw(st.integers(1, len(fields) - 1))
            fields[j - 1:j + 1] = [fields[j - 1] + fields[j]]
        elif kind == "add_comma":
            fields.insert(draw(st.integers(0, len(fields))), draw(st.sampled_from(["", "1"])))
        else:
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(
                ["x", "", "99999999999999999999", "nan", "1e999", "-1e999", " 2 "]))
        lines[i] = ",".join(fields)
    return "\n".join(lines)


@settings(max_examples=150)
@given(data=st.data())
def test_predict_on_a_mutated_arm_exits_cleanly(out_copy, data):
    cfg_path, out = out_copy
    text = data.draw(_mutated_arms((out / "data" / "test_c10.csv").read_text()))
    path = out / "data" / "fuzz.csv"
    path.write_text(text)
    try:
        oracle_read(str(path), ("label",), (int,), prefix="f_")
        expected = None
    except DataError as exc:
        expected = f"error: {exc}\n"
    except OverflowError:  # raised after every line is read: no line to name
        expected = OverflowError
    code, err = _stage(cfg_path, out, "predict", "--test-file", str(path))
    oversized = re.fullmatch(rf"error: {re.escape(str(path))}:(\d+): int field .* is outside "
                             rf"int64\n", err)
    if oversized:
        # the line loop meets an oversized int only after every line parses
        assert code == 2 and (expected is OverflowError or _line_named(expected, path)
                              > int(oversized.group(1))), (err, expected)
    elif expected is None:
        assert code == 0 or code == 2 and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert (code, err) == (2, expected)


def _line_named(message, path):
    return int(re.match(rf"error: {re.escape(str(path))}:(\d+): ", message).group(1))


# -- evaluate --------------------------------------------------------------------------------

def test_evaluate_writes_reports_and_histograms(pipeline):
    _, out = pipeline
    for token in ("c0", "c10"):
        doc = json.loads((out / "reports" / f"report_flow_{token}.json").read_text())
        assert set(doc) == {"coverage", "size_error_paper", "size_error_excess",
                            "type1_per_class", "outlier_detection_rate", "ks", "counts"}
        for label in (1, 2):
            hist = (out / "reports" / f"hist_{token}_class{label}.csv")
            assert hist.read_text().splitlines()[0] == "bin_left,bin_right,count"
    assert json.loads(
        (out / "reports" / "report_flow_c0.json").read_text()
    )["outlier_detection_rate"] is None


def test_evaluate_writes_baseline_reports_and_probs(pipeline):
    _, out = pipeline
    for token in ("c0", "c10"):
        assert (out / "predictions" / f"probs_{token}.csv").exists()
        for method in ("scaling", "aps"):
            assert (out / "reports" / f"report_{method}_{token}.json").exists()


def test_comparison_table_layout(pipeline):
    _, out = pipeline
    lines = (out / "reports" / "comparison.csv").read_text().splitlines()
    assert lines[0] == "method,rate,coverage,size_error_paper,size_error_excess"
    rows = [line.split(",") for line in lines[1:]]
    # flow's row for every rate first, then the baselines' rows rate by rate
    assert [(r[0], r[1]) for r in rows] == [
        ("flow", "0"), ("flow", "0.1"),
        ("scaling", "0"), ("aps", "0"),
        ("scaling", "0.1"), ("aps", "0.1"),
    ]
    for r in rows:
        assert 0.0 <= float(r[2]) <= 1.0
        float(r[3]), float(r[4])


def test_evaluate_holds_one_test_arm_at_a_time(pipeline, tmp_path, monkeypatch):
    cfg_path, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    arms = []

    def load(path):
        ds = load_dataset_csv(path)
        if os.path.basename(path).startswith("test_"):
            assert all(arm() is None for arm in arms), f"{path} loads while another arm is held"
            arms.append(weakref.ref(ds))
        return ds

    monkeypatch.setattr(cli, "load_dataset_csv", load)
    assert _stage(cfg_path, copy, "evaluate") == (0, "")
    assert len(arms) == 2
    for path in (out / "reports").iterdir():
        assert (copy / "reports" / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("table", ["pvalues", "sets"])
def test_evaluate_exits_two_naming_an_arm_without_predictions_before_any_work(
        pipeline, tmp_path, monkeypatch, table):
    cfg_path, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    shutil.rmtree(copy / "reports")
    (copy / "predictions" / f"{table}_c10.csv").unlink()

    def fit(*args, **kwargs):
        raise AssertionError("the classifier was fit")

    monkeypatch.setattr(baselines, "train_softmax_classifier", fit)
    assert _stage(cfg_path, copy, "evaluate") == (
        2, "error: predictions missing for rate 0.1; run predict first\n")
    assert list((copy / "reports").iterdir()) == []


@pytest.mark.parametrize("stage, name", [
    ("train", "train_labels.npy"), ("calibrate", "train_labels.npy"),
    ("evaluate", "train_labels.npy"), ("evaluate", "calibration_labels.npy"),
])
def test_stage_exits_two_on_an_outlier_row_in_training_or_calibration_data(
        pipeline, tmp_path, stage, name):
    cfg_path, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    features = np.load(copy / "data" / "train_features.npy")
    labels = np.load(copy / "data" / "train_labels.npy")
    if name.startswith("calibration"):
        features, labels = features[:8], labels[:8]
    labels[[2, 5]] = 0
    path = copy / "data" / name
    np.save(copy / "data" / name.replace("labels", "features"), features)
    np.save(path, labels)
    assert _stage(cfg_path, copy, stage) == (
        2, f"error: {path}: row 3 has the outlier label 0; training and calibration "
           f"rows must be of a class\n")


@pytest.mark.parametrize("stage, name, writer", [
    ("train", "data/train_features.npy", "gen-data"),
    ("train", "data/train_labels.npy", "gen-data"),
    ("calibrate", "data/train_features.npy", "gen-data"),
    ("calibrate", "data/train_labels.npy", "gen-data"),
    ("predict", "pools/pools.csv", "calibrate"),
    ("predict", "data/test_c10.csv", "gen-data"),
    # a user's file, which no stage writes: the message names the flag
    pytest.param("predict --test-file", "data/nope.csv", None, id="predict-test_file-nope.csv"),
    ("evaluate", "data/train_features.npy", "gen-data"),
    ("evaluate", "data/train_labels.npy", "gen-data"),
    ("evaluate", "data/calibration_features.npy", "gen-data"),
    ("evaluate", "data/calibration_labels.npy", "gen-data"),
    ("evaluate", "data/test_c10.csv", "gen-data"),
], ids=lambda value: value.replace("data/", "").replace("pools/", ""))
def test_stage_exits_two_naming_a_missing_input_and_the_stage_that_writes_it(
        pipeline, tmp_path, stage, name, writer):
    cfg_path, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / name
    if writer is None:
        args, message = [*stage.split(), str(path)], f"--test-file {path} does not exist"
    else:
        path.unlink()
        args, message = [stage], f"{path} is missing; run {writer} first"
    assert _stage(cfg_path, copy, *args) == (2, f"error: {message}\n")


def _refill(path, change):
    """Save ``change`` of the array in the .npy file ``path`` over it."""
    np.save(path, change(np.load(path)))


def _bad_value(array):
    array.flat[0] = np.nan if array.dtype.kind == "f" else -1
    return array


# each turns a good .npy file into one the reader must refuse
_NPY_DAMAGE = {
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:-8]),
    "pickled": lambda path: path.write_bytes(pickle.dumps(np.load(path))),
    "object_dtype": lambda path: _refill(path, lambda a: a.astype(object)),
    "wrong_dtype": lambda path: _refill(path, lambda a: a.astype(np.float32)),
    "wrong_ndim": lambda path: _refill(path, lambda a: a[..., None]),
    "row_count": lambda path: _refill(path, lambda a: a[:-1]),
    "bad_value": lambda path: _refill(path, _bad_value),
}


@pytest.mark.parametrize("damage", list(_NPY_DAMAGE))
@pytest.mark.parametrize("name", ["train_features.npy", "train_labels.npy"])
@pytest.mark.parametrize("stage", ["train", "calibrate", "evaluate"])
def test_stage_exits_two_naming_a_bad_npy_file(pipeline, tmp_path, stage, name, damage):
    cfg_path, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / "data" / name
    _NPY_DAMAGE[damage](path)
    code, err = _stage(cfg_path, copy, stage)
    assert code == 2 and err.startswith("error: ") and str(path) in err, err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("normalize", [True, False], ids=["on-missing", "off-present"])
@pytest.mark.parametrize("stage", ["calibrate", "predict", "evaluate"])
def test_scoring_stage_exits_two_when_the_normalizer_disagrees_with_the_config(
        pipeline, tmp_path, stage, normalize):
    # a test row must go through the map its class's pool was built with, so
    # the config decides normalization and the file must agree with it
    cfg_path, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / "models" / "normalizer.json"
    if normalize:
        path.unlink()
        state = "is missing but normalize is on"
    else:
        doc = json.loads(pathlib.Path(cfg_path).read_text())
        cfg_path = tmp_path / "unnormalized.json"
        cfg_path.write_text(json.dumps(dict(doc, normalize=False)))
        state = "exists but normalize is off"
    assert _stage(str(cfg_path), copy, stage) == (2, f"error: {path} {state}; rerun train\n")


def test_evaluate_grades_every_method_at_its_own_alpha(pipeline, tmp_path):
    # predict ran at 0.05; evaluate at 0.3 grades as if predict had run at 0.3 too
    cfg_path, out = pipeline
    late, both = tmp_path / "late", tmp_path / "both"
    shutil.copytree(out, late)
    shutil.copytree(out, both)
    assert _stage(cfg_path, late, "evaluate", "--alpha", "0.3") == (0, "")
    assert _stage(cfg_path, both, "predict", "--alpha", "0.3") == (0, "")
    assert _stage(cfg_path, both, "evaluate", "--alpha", "0.3") == (0, "")
    names = sorted(path.name for path in (both / "reports").iterdir())
    assert names == sorted(path.name for path in (late / "reports").iterdir())
    for name in names:
        assert (late / "reports" / name).read_bytes() == (both / "reports" / name).read_bytes()
    flow = "reports/report_flow_c10.json"
    assert (late / flow).read_bytes() != (out / flow).read_bytes()


@pytest.mark.parametrize("field", ["nan", "7.5"])
def test_evaluate_exits_two_on_a_p_value_outside_the_unit_interval(pipeline, tmp_path, field):
    cfg_path, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / "predictions" / "pvalues_c0.csv"
    header, *rows = path.read_text().splitlines()
    rows[4] = rows[4].rsplit(",", 1)[0] + f",{field}"
    path.write_text("\n".join([header, *rows]) + "\n")
    code, err = _stage(cfg_path, copy, "evaluate", "--baselines", "off")
    assert code == 2
    assert err == (f"error: {path}: data row 5 holds {field} in column "
                   f"{header.rsplit(',', 1)[1]}; p-values lie in [0, 1]\n")


def test_predict_exits_two_naming_the_pool_file_of_a_bad_row(pipeline, tmp_path):
    cfg_path, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / "pools" / "pools.csv"
    header, *rows = path.read_text().splitlines()
    rows[0] = "0," + rows[0].split(",", 1)[1]
    path.write_text("\n".join([header, *rows]) + "\n")
    assert _stage(cfg_path, copy, "predict") == (
        2, f"error: {path}: class_label must be positive, got 0\n")


# each edit takes and returns (class, rest of the row) pairs
_CLASS_EDITS = pytest.mark.parametrize("edit, classes", [
    (lambda rows: [row for row in rows if row[0] != 2], [1]),
    (lambda rows: [*rows, (3, rows[0][1])], [1, 2, 3]),
], ids=["missing", "extra"])


def _edit_pools(copy, edit):
    """Rewrite the pool table's rows by ``edit``; returns its path."""
    path = copy / "pools" / "pools.csv"
    header, *lines = path.read_text().splitlines()
    rows = [(int(label), rest) for label, rest in (line.split(",", 1) for line in lines)]
    path.write_text("\n".join([header, *(f"{label},{rest}" for label, rest in edit(rows))])
                    + "\n")
    return path


def _edit_train(copy, edit):
    """Rewrite the training rows by ``edit``; returns the labels file."""
    features, labels = copy / "data" / "train_features.npy", copy / "data" / "train_labels.npy"
    rows = edit(list(zip(np.load(labels).tolist(), np.load(features))))
    np.save(features, np.array([row for _, row in rows]))
    np.save(labels, np.array([label for label, _ in rows], dtype=np.int64))
    return labels


def _differing_classes(pipeline, tmp_path, stage, rewrite, edit, classes, rerun, output):
    """Run ``stage`` on a copy whose table ``rewrite`` rewrites by ``edit``:
    it exits 2 naming the table's classes, and leaves the ``output``
    directory as it was."""
    cfg_path, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = rewrite(copy, edit)
    assert _stage(cfg_path, copy, stage) == (
        2, f"error: {path} holds classes {classes}, the models are of classes [1, 2]; "
           f"rerun {rerun}\n")
    for kept in (out / output).iterdir():
        assert (copy / output / kept.name).read_bytes() == kept.read_bytes()


@_CLASS_EDITS
def test_predict_exits_two_when_pool_classes_differ_from_the_models(pipeline, tmp_path,
                                                                    edit, classes):
    _differing_classes(pipeline, tmp_path, "predict", _edit_pools, edit, classes,
                       "calibrate", "predictions")


@_CLASS_EDITS
def test_calibrate_exits_two_when_training_classes_differ_from_the_models(pipeline, tmp_path,
                                                                          edit, classes):
    _differing_classes(pipeline, tmp_path, "calibrate", _edit_train, edit, classes,
                       "train", "pools")


def test_evaluate_exits_two_on_an_arm_class_without_a_p_value_column(pipeline, tmp_path):
    # graded, such rows would count as inliers that no set ever covers
    cfg_path, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    arm = copy / "data" / "test_c0.csv"
    header, *rows = arm.read_text().splitlines()
    rows[3] = "3," + rows[3].split(",", 1)[1]
    arm.write_text("\n".join([header, *rows]) + "\n")
    pv_path = copy / "predictions" / "pvalues_c0.csv"
    assert _stage(cfg_path, copy, "evaluate", "--baselines", "off") == (
        2, f"error: {arm} holds class 3, which {pv_path} has no column for\n")


@pytest.mark.parametrize("header", ["in_2,in_1", "in_1,in_7", "in_1,in_2,in_3", "in_1"])
def test_evaluate_exits_two_when_set_classes_differ_from_the_p_values(pipeline, tmp_path,
                                                                      header):
    cfg_path, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    n = len(load_dataset_csv(str(copy / "data" / "test_c0.csv")).labels)
    width = header.count(",") + 1
    path = copy / "predictions" / "sets_c0.csv"
    path.write_text(f"sample_id,{header}\n" + "".join(f"{i}{',0' * width}\n" for i in range(n)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["evaluate", "--config", cfg_path, "--out", str(copy), "--baselines", "off"])
    assert code == 2
    assert f"{path} has classes" in err.getvalue() and "has (1, 2)" in err.getvalue()


@pytest.mark.parametrize("table", ["pvalues", "sets"])
@pytest.mark.parametrize("ids", ["all_seven", "swapped", "repeated"])
def test_evaluate_exits_two_on_a_bad_sample_id(pipeline, tmp_path, table, ids):
    cfg_path, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / "predictions" / f"{table}_c0.csv"
    header, *rows = path.read_text().splitlines()
    first = {"all_seven": 0, "swapped": 1, "repeated": 2}[ids]
    bad = {"all_seven": [7] * len(rows), "swapped": [0, 2, 1], "repeated": [0, 1, 1]}[ids]
    for i, sample_id in enumerate(bad):
        rows[i] = f"{sample_id},{rows[i].split(',', 1)[1]}"
    path.write_text("\n".join([header, *rows]) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["evaluate", "--config", cfg_path, "--out", str(copy), "--baselines", "off"])
    assert code == 2
    assert err.getvalue() == (f"error: {path}: data row {first + 1} has sample_id "
                              f"{bad[first]}; expected {first}\n")


def test_evaluate_with_the_tape_cross_entropy_writes_the_same_bytes(pipeline, tmp_path,
                                                                   monkeypatch):
    # the fused classifier loss trains the parameters the Tensor-op graph trains
    cfg_path, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    monkeypatch.setattr(baselines, "_cross_entropy", tape_cross_entropy)
    assert main(["evaluate", "--config", cfg_path, "--out", str(copy)]) == 0
    names = [*sorted((out / "predictions").glob("probs_*.csv")),
             *sorted((out / "reports").glob("report_[as]*.json")),
             out / "reports" / "comparison.csv"]
    assert len(names) == 2 + 2 * 2 + 1
    for path in names:
        assert (copy / path.relative_to(out)).read_bytes() == path.read_bytes(), path.name


def test_baselines_off_limits_comparison_to_flow(tmp_path):
    cfg_path, out = write_config(tmp_path, baselines={"enabled": False})
    assert main(["run-experiment", "--config", cfg_path]) == 0
    lines = (out / "reports" / "comparison.csv").read_text().splitlines()
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"flow"}
    assert not (out / "predictions" / "probs_c0.csv").exists()


# -- manifest --------------------------------------------------------------------------------

def test_manifest_lists_existing_artifacts_for_every_stage(pipeline):
    _, out = pipeline
    doc = json.loads((out / "manifest.json").read_text())
    assert set(doc["artifacts"]) == {"gen-data", "train", "calibrate",
                                     "predict", "evaluate"}
    for stage, paths in doc["artifacts"].items():
        assert paths == sorted(paths)
        for rel in paths:
            assert (out / rel).exists(), f"{stage}: {rel}"
    assert doc["created"] and doc["updated"]


@pytest.mark.parametrize("text, message", [
    ("[]", "expected a JSON object, got list"),
    ("{", "not valid JSON"),
    ('{"artifacts": 5, "created": "", "updated": ""}',
     "artifacts must be an object of path lists"),
    ('{"artifacts": {"train": "models"}, "created": "", "updated": ""}',
     "artifacts must be an object of path lists"),
    ('{"artifacts": {"train": [1]}, "created": "", "updated": ""}',
     "artifacts must be an object of path lists"),
    ('{"artifacts": {}, "created": 5, "updated": ""}', "created and updated must be strings"),
    ('{"artifacts": {}, "created": ""}', "missing key 'updated'"),
], ids=["array", "not-json", "artifacts-int", "paths-str", "path-int", "created-int",
        "no-updated"])
def test_malformed_manifest_exits_two_naming_the_file(tmp_path, text, message):
    cfg_path, out = write_config(tmp_path)
    out.mkdir()
    (out / "manifest.json").write_text(text)
    code, err = _stage(cfg_path, out, "gen-data")
    assert code == 2
    assert err.startswith(f"error: {out / 'manifest.json'}: ") and message in err
    assert err.count("\n") == 1


def test_manifest_hash_matches_effective_config(pipeline):
    cfg_path, out = pipeline
    doc = json.loads((out / "manifest.json").read_text())
    args = build_parser().parse_args(["gen-data", "--config", cfg_path])
    cfg = load_config(cfg_path, args)
    assert doc["config_hash"] == cfg.config_hash()


def test_seed_override_changes_hash_and_outputs(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["gen-data", "--config", cfg_path]) == 0
    first = json.loads((out / "manifest.json").read_text())["config_hash"]
    first_train = (out / "data" / "train_features.npy").read_bytes()
    assert main(["gen-data", "--config", cfg_path, "--seed", "99"]) == 0
    second = json.loads((out / "manifest.json").read_text())["config_hash"]
    assert first != second
    assert (out / "data" / "train_features.npy").read_bytes() != first_train


def test_alpha_override_flows_into_config(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    args = build_parser().parse_args(
        ["predict", "--config", cfg_path, "--alpha", "0.2",
         "--p-value-mode", "paper-literal"])
    cfg = load_config(cfg_path, args)
    assert cfg.conformal.alpha == 0.2
    assert cfg.conformal.p_value_mode == "paper-literal"


def test_contamination_override_replaces_rates(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    args = build_parser().parse_args(
        ["gen-data", "--config", cfg_path,
         "--contamination-rate", "0.0", "--contamination-rate", "0.2"])
    cfg = load_config(cfg_path, args)
    assert cfg.rates == (0.0, 0.2)


@pytest.mark.parametrize("via", ["config", "flags"])
@pytest.mark.parametrize("rates, token", [
    ([0.123456789, 0.1234567891], "c12_3457"),
    ([0.1, 0.1], "c10"),
])
def test_rates_that_share_an_arm_token_exit_one(tmp_path, capsys, via, rates, token):
    if via == "config":
        cfg_path, out = write_config(tmp_path, contamination={"rates": rates})
        flags = []
    else:
        cfg_path, out = write_config(tmp_path)
        flags = [arg for rate in rates for arg in ("--contamination-rate", repr(rate))]
    assert main(["run-experiment", "--config", cfg_path, *flags]) == 1
    assert capsys.readouterr().err == (
        f"config error: contamination.rates {rates[0]!r} and {rates[1]!r} both name the arm "
        f"{token}; rates must differ in the first six significant digits of their "
        f"percentage\n")
    assert not out.exists()


# -- IDX ingestion through the pipeline -------------------------------------------------------

def _idx_pair(tmp_path, stem, labels, pixel_base):
    n = len(labels)
    pixels = (np.arange(n * 4, dtype=np.uint8).reshape(n, 2, 2) + pixel_base) % 251
    img = struct.pack(">iiii", 0x00000803, n, 2, 2) + pixels.tobytes()
    lab = struct.pack(">ii", 0x00000801, n) + bytes(labels)
    (tmp_path / f"{stem}-images.idx").write_bytes(img)
    (tmp_path / f"{stem}-labels.idx").write_bytes(lab)
    return str(tmp_path / f"{stem}-images.idx"), str(tmp_path / f"{stem}-labels.idx")


def test_gen_data_from_idx_files_with_holdout_class(tmp_path):
    train_labels = [0, 1, 0, 1, 2, 2, 0, 1] * 3
    test_labels = [0, 1, 2, 0, 1, 2]
    tri, trl = _idx_pair(tmp_path, "train", train_labels, 0)
    tei, tel = _idx_pair(tmp_path, "test", test_labels, 7)
    out_dir = tmp_path / "out"
    doc = {
        "seed": 1,
        "out_dir": str(out_dir),
        "dataset": {"idx": {
            "train_images": tri, "train_labels": trl,
            "test_images": tei, "test_labels": tel,
            "holdout_raw_label": 2,
            "calibration_fraction": 0.25,
        }},
        "contamination": {"rates": [0.0]},
    }
    cfg_path = tmp_path / "idx.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["gen-data", "--config", str(cfg_path)]) == 0
    train = load_dataset_npy(str(out_dir / "data" / "train"))
    calib = load_dataset_npy(str(out_dir / "data" / "calibration"))
    outliers = load_dataset_npy(str(out_dir / "data" / "outliers"))
    test = load_dataset_csv(str(out_dir / "data" / "test_c0.csv"))
    # raw labels 0 and 1 become classes 1 and 2; raw 2 rows become outliers
    assert set(train.class_labels()) <= {1, 2}
    assert train.n + calib.n == 18  # the 6 holdout rows left the training pool
    assert outliers.n == 2 and np.all(outliers.labels == 0)
    assert test.n == 4 and set(test.labels.tolist()) == {1, 2}
