"""Command-line pipeline: exit codes, artifacts, determinism, manifest.

Runs the entry point in process on a tiny two-class synthetic problem and
asserts on the files each stage writes. Predictive-set files must be exactly
re-derivable from the p-value files, and reruns must be byte-identical.
"""

import json
import os
import shutil
import struct

import numpy as np
import pytest

from flowconformal import roundtrip
from flowconformal.cli import ExperimentConfig, build_parser, load_config, main
from flowconformal.conformal import load_p_values, load_set_matrix
from flowconformal.datasets import load_dataset_csv
from flowconformal.errors import ConfigError

ALPHA = 0.05


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
    for name in ("train.csv", "calibration.csv", "outliers.csv",
                 "test_c0.csv", "test_c10.csv"):
        assert (out / "data" / name).exists(), name


def test_gen_data_row_counts(pipeline):
    _, out = pipeline
    train = load_dataset_csv(str(out / "data" / "train.csv"))
    assert train.n == 128 and train.class_labels() == (1, 2)
    outliers = load_dataset_csv(str(out / "data" / "outliers.csv"))
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
    # 3 classes: serial, two processes (classes 1 and 3 here, 2 in a worker),
    # and more CPUs than classes (one class per process)
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


def test_calibrate_pool_sizes_match_training_rows(pipeline):
    _, out = pipeline
    lines = (out / "pools" / "pools.csv").read_text().splitlines()
    assert lines[0] == "class,score"
    per_class = {}
    for line in lines[1:]:
        label = int(line.split(",")[0])
        per_class[label] = per_class.get(label, 0) + 1
    assert per_class == {1: 64, 2: 64}


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
        labels, _, matrix = load_p_values(
            str(out / "predictions" / f"pvalues_{token}.csv"))
        member = load_set_matrix(str(out / "predictions" / f"sets_{token}.csv"), labels)
        assert np.array_equal(member, matrix >= ALPHA)


def test_outlier_token_written_iff_every_p_below_alpha(pipeline):
    _, out = pipeline
    labels, _, matrix = load_p_values(str(out / "predictions" / "pvalues_c10.csv"))
    raw = (out / "predictions" / "sets_c10.csv").read_text().splitlines()[1:]
    tokens = [line.split(",", 1)[1] for line in raw]
    for row, token in zip(matrix, tokens):
        assert (token == "OUTLIER") == bool(np.all(row < ALPHA))


def test_predict_accepts_explicit_test_file(pipeline):
    cfg_path, out = pipeline
    custom = out / "data" / "custom_arm.csv"
    custom.write_bytes((out / "data" / "test_c0.csv").read_bytes())
    assert main(["predict", "--config", cfg_path, "--test-file", str(custom)]) == 0
    assert (out / "predictions" / "pvalues_custom_arm.csv").exists()
    assert (out / "predictions" / "sets_custom_arm.csv").exists()


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
    assert {(r[0], r[1]) for r in rows} == {
        ("flow", "0"), ("flow", "0.1"),
        ("scaling", "0"), ("scaling", "0.1"),
        ("aps", "0"), ("aps", "0.1"),
    }
    for r in rows:
        assert 0.0 <= float(r[2]) <= 1.0
        float(r[3]), float(r[4])


def test_evaluate_places_set_columns_by_class_label(pipeline, tmp_path):
    # a sets file that never names class 1 still scores class 2 in its own column
    cfg_path, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    labels = load_dataset_csv(str(copy / "data" / "test_c0.csv")).labels
    tokens = ["2" if lab == 2 else "OUTLIER" for lab in labels]
    (copy / "predictions" / "sets_c0.csv").write_text(
        "sample_id,set\n" + "".join(f"{i},{t}\n" for i, t in enumerate(tokens)))
    assert main(["evaluate", "--config", cfg_path, "--out", str(copy),
                 "--baselines", "off"]) == 0
    doc = json.loads((copy / "reports" / "report_flow_c0.json").read_text())
    assert doc["coverage"] == float(np.mean(labels == 2))
    (copy / "predictions" / "sets_c0.csv").write_text("sample_id,set\n0,7\n")
    assert main(["evaluate", "--config", cfg_path, "--out", str(copy),
                 "--baselines", "off"]) == 2


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
    first_train = (out / "data" / "train.csv").read_bytes()
    assert main(["gen-data", "--config", cfg_path, "--seed", "99"]) == 0
    second = json.loads((out / "manifest.json").read_text())["config_hash"]
    assert first != second
    assert (out / "data" / "train.csv").read_bytes() != first_train


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
    train = load_dataset_csv(str(out_dir / "data" / "train.csv"))
    calib = load_dataset_csv(str(out_dir / "data" / "calibration.csv"))
    outliers = load_dataset_csv(str(out_dir / "data" / "outliers.csv"))
    test = load_dataset_csv(str(out_dir / "data" / "test_c0.csv"))
    # raw labels 0 and 1 become classes 1 and 2; raw 2 rows become outliers
    assert set(train.class_labels()) <= {1, 2}
    assert train.n + calib.n == 18  # the 6 holdout rows left the training pool
    assert outliers.n == 2 and np.all(outliers.labels == 0)
    assert test.n == 4 and set(test.labels.tolist()) == {1, 2}
