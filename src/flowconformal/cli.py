"""Command-line pipeline: data generation, per-class training, score-pool
calibration, prediction, and evaluation, driven by one JSON config.

A stage reads its inputs, calls the module that owns its computation, and
writes what that returns. This module adds no seed offset and computes
nothing of its own; the acceptance checks call the same functions in memory:

    gen-data   datasets.make_splits, datasets.contaminated_arms
    train      datasets.fit_normalizer, roundtrip.train_class_flows
    calibrate  conformal.build_score_pool
    predict    conformal.p_value_matrix, conformal.predictive_set
    evaluate   baselines.fit_baselines, evaluation.grade_arm

Stages persist their outputs under the configured output directory so each
can be rerun or tested in isolation:

    data/         train, calibration and outlier rows as .npy pairs
                  (train_features.npy, train_labels.npy, ...), plus one test
                  CSV per contamination rate (test_c0.csv, test_c5.csv, ...)
    models/       one JSON bundle and loss trace per class, normalizer
    pools/        score pools CSV
    predictions/  p-value, set, and (with baselines) probability CSVs per arm
    reports/      metric reports per method and arm, per-class p-value
                  histograms, and a method-by-rate comparison CSV
    manifest.json config hash, artifact index, timestamps

``evaluate`` grades one test arm at a time, each method at its own alpha,
and lets it go before the next loads. The sets files are ``predict``'s
output for users, made at predict's alpha; ``evaluate`` checks their classes
and rows against the p-values and does not grade them.

The class rows are ``.npy``; the test arms stay CSV, since
``predict --test-file`` scores a CSV arm a user may write. A training or
calibration row with the outlier label (0) exits 2, naming the file and row.

Each stage loads only the package modules it calls: this module imports
``config``, ``datasets``, ``_table`` and ``errors``, and each stage imports
the rest of what it calls when it runs. The other modules are put in
``sys.modules`` unexecuted (``_register_lazily``) and each runs on its first
use, so a tool that wraps the package's functions right after importing this
module (``perfbench/tracer.py``) still finds every module.

Each input check has one source. A missing data, arm or pool file exits 2
through ``_existing``, naming the file and the stage that writes it. The
config's ``normalize`` alone decides whether a stage normalizes; a
``models/normalizer.json`` whose presence disagrees with it exits 2. The
training rows and the pools must hold the models' classes, and a test arm
may hold no class that its p-value file lacks.

The config is checked against one typed schema (``_SCHEMA``) before any
stage runs. Exit codes: 0 success, 1 usage or configuration error (an
unknown key or a wrongly typed value included), 2 runtime or data error.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.util
import json
import math
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import __version__
from ._table import read_json, write_json
from .config import ClassifierConfig, ConformalConfig, FlowArchitecture, TrainConfig
from .datasets import (
    OUTLIER,
    LabeledDataset,
    Normalizer,
    SyntheticSpec,
    contaminated_arms,
    fit_normalizer,
    load_dataset_csv,
    load_dataset_npy,
    make_splits,
    npy_paths,
    save_dataset_csv,
    save_dataset_npy,
)
from .errors import ConfigError, DataError

__all__ = ["ExperimentConfig", "RunManifest", "main"]


def _register_lazily(*names: str) -> None:
    """Put each package module of ``names`` that is not loaded yet into
    ``sys.modules`` and onto the package unexecuted; its code runs on the
    first read of one of its names."""
    package = sys.modules[__package__]
    for name in names:
        full = f"{__package__}.{name}"
        if full in sys.modules:
            continue
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        setattr(package, name, module)
        spec.loader.exec_module(module)


_register_lazily("autodiff", "nn", "kernels", "roundtrip", "conformal", "baselines",
                 "special", "evaluation")

# -- configuration ---------------------------------------------------------------

class _OneOf(dict):
    """A schema section that holds exactly one of its sections."""


def _fields(cls, *skip: str) -> dict:
    """Schema leaves of a dataclass: its field annotations and defaults."""
    return {f.name: (f.type, f.default) for f in fields(cls) if f.name not in skip}


# Each leaf is (type, default), the type written as a field annotation and
# MISSING for a required key; a nested dict is a section.
_SCHEMA = {
    "seed": ("int", 0),
    "out_dir": ("str", "out"),
    "normalize": ("bool", True),
    "dataset": _OneOf(
        synthetic={
            "means": ("list[list[float]]", MISSING),
            "covariances": ("list[list[list[float]]] | None", None),
            "train_per_class": ("int", MISSING),
            "calibration_per_class": ("int", 0),
            "test_per_class": ("int", MISSING),
            "outlier": {
                "mean": ("list[float]", MISSING),
                "covariance": ("list[list[float]] | None", None),
                "n": ("int", 1000),
            },
        },
        idx={
            **dict.fromkeys(("train_images", "train_labels", "test_images", "test_labels"),
                            ("str", MISSING)),
            "holdout_raw_label": ("int | None", None),
            "calibration_fraction": ("float", 0.0),
        },
    ),
    "model": {
        "latent_dim": ("int", 2),
        **_fields(FlowArchitecture, "input_dim", "latent_dim"),
        # the run seed seeds training
        "train": _fields(TrainConfig, "seed"),
    },
    "conformal": _fields(ConformalConfig),
    "contamination": {"rates": ("tuple[float, ...]", (0.0,))},
    "baselines": {
        "enabled": ("bool", True),
        **_fields(ClassifierConfig),
        "calibration_fraction": ("float", 0.5),
    },
}


def _typed(value, kind: str):
    """``value`` as the annotation ``kind`` reads it; TypeError when it is not one.
    A finite int given for a float becomes a float, a list for a tuple a tuple."""
    if value is None and kind.endswith(" | None"):
        return None
    kind = kind.removesuffix(" | None")
    outer, _, inner = kind.partition("[")
    if inner and isinstance(value, (list, tuple)):  # a tuple only as a default
        items = [_typed(v, inner[:-1].removesuffix(", ...")) for v in value]
        return tuple(items) if outer == "tuple" else items
    if kind == "float" and type(value) is int:
        value = float(value)  # OverflowError past the float range
    # JSON values are exactly int, float, bool, str, list, dict or None
    if type(value).__name__ != kind or kind == "float" and not math.isfinite(value):
        raise TypeError(kind)
    return value


def _walk(doc: dict, schema: dict, where: str) -> dict:
    """``doc`` checked against ``schema``, typed, with every default filled in.

    ``where`` is the key path of ``doc``, "config" at the top. Every
    ConfigError names the key: unknown, missing, not an object, or mistyped.
    """
    unknown = sorted(doc.keys() - schema.keys())
    if unknown:
        raise ConfigError(f"unknown {where} key {unknown[0]!r}; valid: {', '.join(schema)}")
    if isinstance(schema, _OneOf):
        if len(doc) != 1:
            raise ConfigError(f"{where} needs exactly one of {' or '.join(map(repr, schema))}")
        schema = {key: schema[key] for key in doc}
    out = {}
    for key, rule in schema.items():
        if isinstance(rule, dict):
            section = doc[key] if key in doc else {}
            if not isinstance(section, dict):
                raise ConfigError(f"{where}.{key} must be a JSON object, got {section!r}")
            out[key] = _walk(section, rule, key if where == "config" else f"{where}.{key}")
        elif key not in doc and rule[1] is MISSING:
            raise ConfigError(f"missing required config key {where}.{key}")
        else:
            value = doc[key] if key in doc else rule[1]
            try:
                out[key] = _typed(value, rule[0])
            except (TypeError, OverflowError):
                raise ConfigError(f"{where} key {key!r} must be of type {rule[0]}, "
                                  f"got {value!r}") from None
    return out


def _checked(section: str, cls, **values):
    """``cls(**values)``; its range errors, which start with the field name,
    name the key under ``section``."""
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{section}.{exc}") from None


@dataclass
class ExperimentConfig:
    """Validated experiment description; built before any stage runs."""

    raw: dict
    seed: int
    out_dir: str
    normalize: bool
    dataset: dict  # the one given branch, "synthetic" or "idx", typed and defaulted
    model: dict  # FlowArchitecture's fields but input_dim
    train: dict  # TrainConfig's fields but seed
    conformal: ConformalConfig
    rates: tuple[float, ...]
    baselines_enabled: bool
    classifier: ClassifierConfig
    calibration_fraction: float

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        v = _walk(doc, _SCHEMA, "config")
        if v["seed"] < 0:
            raise ConfigError(f"config.seed must be >= 0, got {v['seed']}")
        dataset = v["dataset"]
        dim = None  # an IDX input dimension is known only once the images load
        if "synthetic" in dataset:
            syn = dataset["synthetic"]
            for key, low in (("train_per_class", 1), ("calibration_per_class", 0),
                             ("test_per_class", 1)):
                if syn[key] < low:
                    raise ConfigError(f"dataset.synthetic.{key} must be >= {low}, got {syn[key]}")
            # validate eagerly; generation rebuilds with run seeds
            dim = SyntheticSpec(means=syn["means"], n_per_class=1,
                                covariances=syn["covariances"]).dim
            out = syn["outlier"]
            if len(out["mean"]) != dim:
                raise ConfigError(f"dataset.synthetic.outlier.mean has dimension "
                                  f"{len(out['mean'])}, the class means {dim}")
            if out["n"] < 1:
                raise ConfigError(f"dataset.synthetic.outlier.n must be >= 1, got {out['n']}")
        elif not 0.0 <= dataset["idx"]["calibration_fraction"] < 1.0:
            raise ConfigError("dataset.idx.calibration_fraction must lie in [0, 1)")

        model = v["model"]
        train = model.pop("train")
        # range checks now, before any stage runs
        _checked("model", FlowArchitecture, input_dim=dim or model["latent_dim"], **model)
        _checked("model.train", TrainConfig, **train)

        rates = v["contamination"]["rates"]
        if not rates or not all(0.0 <= r < 1.0 for r in rates):
            raise ConfigError(f"contamination.rates must be one or more rates in [0, 1), "
                              f"got {list(rates)}")
        # an arm's files are named by its token, so no two rates may share one
        arms = {}
        for rate in rates:
            token = cls.rate_token(rate)
            if token in arms:
                raise ConfigError(f"contamination.rates {arms[token]!r} and {rate!r} both name "
                                  f"the arm {token}; rates must differ in the first six "
                                  f"significant digits of their percentage")
            arms[token] = rate

        base = v["baselines"]
        enabled = base.pop("enabled")
        frac = base.pop("calibration_fraction")
        if not 0.0 < frac < 1.0:
            raise ConfigError("baselines.calibration_fraction must lie in (0, 1)")

        return cls(raw=doc, seed=v["seed"], out_dir=v["out_dir"], normalize=v["normalize"],
                   dataset=dataset, model=model, train=train,
                   conformal=_checked("conformal", ConformalConfig, **v["conformal"]),
                   rates=rates, baselines_enabled=enabled,
                   classifier=_checked("baselines", ClassifierConfig, **base),
                   calibration_fraction=frac)

    def effective_dict(self) -> dict:
        return {**self.raw, "seed": self.seed, "out_dir": self.out_dir}

    def config_hash(self) -> str:
        canon = json.dumps(self.effective_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    # -- paths -----------------------------------------------------------

    def path(self, *parts: str) -> str:
        return os.path.join(self.out_dir, *parts)

    @staticmethod
    def rate_token(rate: float) -> str:
        """Arm token of a rate in percent, to six significant digits: c0, c5, c12_5."""
        return "c" + format(rate * 100, "g").replace(".", "_")

    def test_csv(self, rate: float) -> str:
        return self.path("data", f"test_{self.rate_token(rate)}.csv")


def load_config(path: str, overrides: argparse.Namespace) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None

    baselines = None if overrides.baselines is None else overrides.baselines == "on"
    for section, key, value in (
        (None, "seed", overrides.seed),
        (None, "out_dir", overrides.out),
        ("conformal", "alpha", overrides.alpha),
        ("conformal", "p_value_mode", overrides.p_value_mode),
        ("contamination", "rates", overrides.contamination_rate),
        ("baselines", "enabled", baselines),
    ):
        # a document or section that is not an object is left for the walk to reject
        if value is not None and isinstance(doc, dict):
            holder = doc.setdefault(section, {}) if section else doc
            if isinstance(holder, dict):
                holder[key] = value
    return ExperimentConfig.from_dict(doc)


# -- manifest ---------------------------------------------------------------------

@dataclass
class RunManifest:
    config_hash: str
    tool_version: str = __version__
    created: str = ""
    updated: str = ""
    artifacts: dict = field(default_factory=dict)

    @classmethod
    def load_or_new(cls, path: str, config_hash: str) -> "RunManifest":
        if not os.path.exists(path):
            now = time.strftime("%Y-%m-%dT%H:%M:%S")
            return cls(config_hash=config_hash, created=now, updated=now)
        doc = read_json(path, ("artifacts", "created", "updated"))
        artifacts = doc["artifacts"]
        if not (isinstance(artifacts, dict) and all(
                isinstance(paths, list) and all(isinstance(p, str) for p in paths)
                for paths in artifacts.values())):
            raise DataError(f"{path}: artifacts must be an object of path lists")
        if not isinstance(doc["created"], str) or not isinstance(doc["updated"], str):
            raise DataError(f"{path}: created and updated must be strings")
        return cls(config_hash=config_hash, created=doc["created"], updated=doc["updated"],
                   artifacts=artifacts)

    def record(self, stage: str, paths: list[str], out_dir: str) -> None:
        """Add a stage's artifacts to those recorded before, then drop every
        recorded path that no longer exists (say, a model of a class that a
        later ``train`` no longer has)."""
        rel = {os.path.relpath(p, out_dir) for p in paths}
        self.artifacts[stage] = sorted(set(self.artifacts.get(stage, [])) | rel)
        for name, listed in self.artifacts.items():
            self.artifacts[name] = [p for p in listed
                                    if os.path.exists(os.path.join(out_dir, p))]

    def save(self, path: str) -> None:
        self.updated = time.strftime("%Y-%m-%dT%H:%M:%S")
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _finish_stage(cfg: ExperimentConfig, stage: str, paths: list[str]) -> None:
    man_path = cfg.path("manifest.json")
    man = RunManifest.load_or_new(man_path, cfg.config_hash())
    man.record(stage, paths, cfg.out_dir)
    man.save(man_path)


def _ensure_dirs(cfg: ExperimentConfig) -> None:
    for sub in ("data", "models", "pools", "predictions", "reports"):
        os.makedirs(cfg.path(sub), exist_ok=True)


# -- stage implementations -----------------------------------------------------------

def cmd_gen_data(cfg: ExperimentConfig) -> list[str]:
    _ensure_dirs(cfg)
    train, calib, test, outliers = make_splits(cfg.dataset, cfg.seed)
    # an IDX image size is known only now; check the latent size before writing
    _checked("model", FlowArchitecture, input_dim=train.dim, **cfg.model)

    written = []
    for name, ds in (("train", train), ("calibration", calib), ("outliers", outliers)):
        written.extend(save_dataset_npy(ds, cfg.path("data", name)))
    for rate, arm in zip(cfg.rates, contaminated_arms(test, outliers, cfg.rates, cfg.seed)):
        p = cfg.test_csv(rate)
        save_dataset_csv(arm, p)
        written.append(p)
    _finish_stage(cfg, "gen-data", written)
    return written


def _existing(path: str, stage: str) -> str:
    """``path``, an input that ``stage`` writes; DataError when it is missing."""
    if not os.path.exists(path):
        raise DataError(f"{path} is missing; run {stage} first")
    return path


def _same_classes(path: str, classes, models, rerun: str) -> None:
    """DataError, asking to rerun ``rerun``, unless ``path``'s ``classes``
    (ascending) are the models' classes."""
    model_classes = [m.class_label for m in models]
    if list(classes) != model_classes:
        raise DataError(f"{path} holds classes {list(classes)}, the models are of classes "
                        f"{model_classes}; rerun {rerun}")


def _load_class_rows(stem: str, norm: Normalizer | None = None) -> LabeledDataset:
    """The dataset whose ``.npy`` pair ``gen-data`` wrote at ``stem``, its
    features normalized in place by ``norm``. It may hold no outlier row: a
    model or classifier fit on one would take the outlier token for a class."""
    features_path, labels_path = npy_paths(stem)
    _existing(features_path, "gen-data")
    _existing(labels_path, "gen-data")
    ds = load_dataset_npy(stem)
    outliers = np.flatnonzero(ds.labels == OUTLIER)
    if outliers.size:
        raise DataError(f"{labels_path}: row {outliers[0] + 1} has the outlier label "
                        f"{OUTLIER}; training and calibration rows must be of a class")
    _normalize(norm, ds.features)
    return ds


def _load_normalizer(cfg: ExperimentConfig) -> Normalizer | None:
    """The normalizer ``train`` wrote, or None with ``normalize`` off; a file
    whose presence disagrees with ``normalize`` is a DataError."""
    path = cfg.path("models", "normalizer.json")
    if os.path.exists(path) != cfg.normalize:
        state = "is missing but normalize is on" if cfg.normalize else "exists but normalize is off"
        raise DataError(f"{path} {state}; rerun train")
    if not cfg.normalize:
        return None
    doc = read_json(path, ("mean", "std"))
    try:
        return Normalizer.from_dict(doc)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _normalize(norm: Normalizer | None, features: np.ndarray) -> np.ndarray:
    """``features``, normalized in place when there is a normalizer: each
    stage normalizes the matrix it loaded and holds no second copy."""
    return features if norm is None else norm.apply(features, out=features)


def cmd_train(cfg: ExperimentConfig) -> list[str]:
    from .roundtrip import save_class_flow, train_class_flows

    _ensure_dirs(cfg)
    train = _load_class_rows(cfg.path("data", "train"))
    if not train.class_labels():
        raise DataError("training data has no class rows")

    norm = fit_normalizer(train.features) if cfg.normalize else None
    trained = train_class_flows(_normalize(norm, train.features), train.labels,
                                FlowArchitecture(input_dim=train.dim, **cfg.model),
                                TrainConfig(**cfg.train, seed=cfg.seed))

    norm_path = cfg.path("models", "normalizer.json")
    paths = [(cfg.path("models", f"class_{model.class_label}.json"),
              cfg.path("models", f"trace_class_{model.class_label}.json"))
             for model, _ in trained]
    written = ([norm_path] if norm is not None else []) + [p for pair in paths for p in pair]
    # later stages read every model file they find, so none may outlive its run
    for pattern in ("normalizer.json", "class_*.json", "trace_class_*.json"):
        for stale in set(glob.glob(cfg.path("models", pattern))) - set(written):
            os.remove(stale)

    if norm is not None:
        write_json(norm_path, norm.to_dict())
    for (model, trace), (model_path, trace_path) in zip(trained, paths):
        save_class_flow(model, model_path)
        write_json(trace_path, trace.to_dict())
    _finish_stage(cfg, "train", written)
    return written


def _load_models(cfg: ExperimentConfig):
    from .roundtrip import load_class_flow

    paths = sorted(glob.glob(cfg.path("models", "class_*.json")))
    if not paths:
        raise DataError(f"no model bundles under {cfg.path('models')}; run train first")
    models, names = [], {}
    for path in paths:
        model = load_class_flow(path)
        label, name = model.class_label, os.path.basename(path)
        if label in names:
            raise DataError(f"{path}: class_label {label} repeats that of {names[label]}")
        if name != f"class_{label}.json":
            raise DataError(f"{path}: class_label {label} does not match the file name "
                            f"(expected class_{label}.json)")
        names[label] = name
        models.append(model)
    models.sort(key=lambda m: m.class_label)
    return models


def cmd_calibrate(cfg: ExperimentConfig) -> list[str]:
    from .conformal import build_score_pool, save_pools

    _ensure_dirs(cfg)
    models = _load_models(cfg)
    stem = cfg.path("data", "train")
    train = _load_class_rows(stem, _load_normalizer(cfg))
    _same_classes(npy_paths(stem)[1], train.class_labels(), models, "train")
    pools = [build_score_pool(model, train.features[train.labels == model.class_label])
             for model in models]
    p = cfg.path("pools", "pools.csv")
    save_pools(pools, p)
    _finish_stage(cfg, "calibrate", [p])
    return [p]


def _predict_one(cfg: ExperimentConfig, models, pools, norm, test_path: str,
                 token: str) -> list[str]:
    from .conformal import p_value_matrix, predictive_set, save_p_values, save_sets

    feats = _normalize(norm, load_dataset_csv(test_path).features)
    labels, matrix = p_value_matrix(models, pools, feats, cfg.conformal.p_value_mode)
    pv_path, set_path = _prediction_paths(cfg, token)
    save_p_values(pv_path, labels, matrix)
    save_sets(set_path, labels, predictive_set(matrix, cfg.conformal.alpha))
    return [pv_path, set_path]


def cmd_predict(cfg: ExperimentConfig, test_file: str | None = None) -> list[str]:
    from .conformal import load_pools

    # a user's file: no stage writes it, so the message names the flag
    if test_file is not None and not os.path.exists(test_file):
        raise DataError(f"--test-file {test_file} does not exist")
    _ensure_dirs(cfg)
    models = _load_models(cfg)
    pool_path = cfg.path("pools", "pools.csv")
    pools = load_pools(_existing(pool_path, "calibrate"))
    # both lists are in ascending class order
    _same_classes(pool_path, [p.class_label for p in pools], models, "calibrate")
    norm = _load_normalizer(cfg)
    written = []
    if test_file is not None:
        token = os.path.splitext(os.path.basename(test_file))[0]
        written.extend(_predict_one(cfg, models, pools, norm, test_file, token))
    else:
        for rate in cfg.rates:
            written.extend(_predict_one(cfg, models, pools, norm,
                                        _existing(cfg.test_csv(rate), "gen-data"),
                                        cfg.rate_token(rate)))
    _finish_stage(cfg, "predict", written)
    return written


def cmd_evaluate(cfg: ExperimentConfig) -> list[str]:
    from .evaluation import emit_comparison

    _ensure_dirs(cfg)
    # every arm's predictions, before the classifier is fit or any report written
    for rate in cfg.rates:
        if not all(map(os.path.exists, _prediction_paths(cfg, cfg.rate_token(rate)))):
            raise DataError(f"predictions missing for rate {rate}; run predict first")
    norm = baseline = None
    if cfg.baselines_enabled:
        from .baselines import fit_baselines

        norm = _load_normalizer(cfg)
        # passed, not named here, so the fit can let go of the training rows
        baseline = fit_baselines(_load_class_rows(cfg.path("data", "train"), norm),
                                 _load_class_rows(cfg.path("data", "calibration"), norm),
                                 cfg.classifier, cfg.calibration_fraction, cfg.conformal.alpha,
                                 cfg.seed)
    written, comparison_rows = [], []
    for rate in cfg.rates:
        paths, rows = _grade_arm(cfg, rate, norm, baseline)
        written += paths
        comparison_rows += rows
    # flow's row for every rate first, then the baselines' rows rate by rate
    comparison_rows.sort(key=lambda row: row[0] != "flow")
    cmp_path = cfg.path("reports", "comparison.csv")
    emit_comparison(comparison_rows, cmp_path)
    written.append(cmp_path)
    _finish_stage(cfg, "evaluate", written)
    return written


def _prediction_paths(cfg: ExperimentConfig, token: str) -> tuple[str, str]:
    """The p-value and set files of the arm named ``token``."""
    return (cfg.path("predictions", f"pvalues_{token}.csv"),
            cfg.path("predictions", f"sets_{token}.csv"))


def _grade_arm(cfg: ExperimentConfig, rate: float, norm: Normalizer | None, baseline):
    """(paths written, comparison rows) of one test arm: its reports, flow's
    histograms and, with ``baseline``, its probabilities. The arm goes after."""
    from .conformal import load_p_values, load_sets
    from .evaluation import emit_histogram, emit_report, grade_arm

    token = cfg.rate_token(rate)
    pv_path, set_path = _prediction_paths(cfg, token)
    test_path = _existing(cfg.test_csv(rate), "gen-data")
    test = load_dataset_csv(test_path)
    labels, matrix = load_p_values(pv_path)
    # a row of a class with no p-value column would be graded as never covered
    unknown = sorted(set(test.class_labels()) - set(labels))
    if unknown:
        raise DataError(f"{test_path} holds class {unknown[0]}, which {pv_path} has no "
                        f"column for")
    # predict's sets, made at its own alpha, are not graded; their classes and
    # rows must match the p-values', so outputs of two runs do not mix
    set_labels, saved = load_sets(set_path)
    if set_labels != labels:
        raise DataError(f"{set_path} has classes {set_labels}; {pv_path} has {labels}")
    if saved.shape[0] != test.n or matrix.shape[0] != test.n:
        raise DataError(f"prediction row count disagrees with {test_path}")

    written, probs = [], None
    if baseline is not None:
        from .baselines import save_prob_matrix

        probs = baseline[0].predict_proba(_normalize(norm, test.features))
        pp = cfg.path("predictions", f"probs_{token}.csv")
        save_prob_matrix(pp, baseline[0].class_labels, probs)
        written.append(pp)
    rows = []
    for method, _, report in grade_arm(test.labels, labels, matrix, cfg.conformal.alpha,
                                       baseline, probs):
        rp = cfg.path("reports", f"report_{method}_{token}.json")
        emit_report(report, rp)
        written.append(rp)
        rows.append((method, rate, report))
    for j, cls in enumerate(labels):
        hp = cfg.path("reports", f"hist_{token}_class{cls}.csv")
        emit_histogram(matrix[test.labels == cls, j], hp)
        written.append(hp)
    return written, rows


_STAGES = {"gen-data": cmd_gen_data, "train": cmd_train, "calibrate": cmd_calibrate,
           "predict": cmd_predict, "evaluate": cmd_evaluate}


def cmd_run_experiment(cfg: ExperimentConfig) -> list[str]:
    return [p for stage in _STAGES.values() for p in stage(cfg)]


# -- argument parsing -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowconformal",
                     description="Per-class roundtrip models with conformal "
                                 "predictive sets and outlier detection.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("gen-data", "generate or ingest datasets and contamination arms"),
        ("train", "train one roundtrip model per class"),
        ("calibrate", "build per-class score pools from training rows"),
        ("predict", "emit p-values and predictive sets for test arms"),
        ("evaluate", "emit metric reports, histograms, and the comparison table"),
        ("run-experiment", "run all stages in order"),
    ):
        p = sub.add_parser(name, help=helptext, parents=[], add_help=True)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--contamination-rate", type=float, action="append",
                       default=None, metavar="RATE",
                       help="test contamination rate; repeat for several arms")
        p.add_argument("--p-value-mode", choices=("smoothed", "paper-literal"),
                       default=None)
        p.add_argument("--baselines", choices=("on", "off"), default=None)
        if name == "predict":
            p.add_argument("--test-file", default=None,
                           help="score one CSV instead of the configured arms")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        if args.command == "predict":
            cmd_predict(cfg, args.test_file)
        elif args.command == "run-experiment":
            cmd_run_experiment(cfg)
        else:
            _STAGES[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, FloatingPointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
