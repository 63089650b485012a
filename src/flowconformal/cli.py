"""Command-line pipeline: data generation, per-class training, score-pool
calibration, prediction, and evaluation, driven by one JSON config.

Stages persist their outputs under the configured output directory so each
can be rerun or tested in isolation:

    data/         train/calibration/outlier CSVs plus one test CSV per
                  contamination rate (test_c0.csv, test_c5.csv, ...)
    models/       one JSON bundle and loss trace per class, normalizer
    pools/        score pools CSV
    predictions/  p-value, set, and (with baselines) probability CSVs per arm
    reports/      metric reports per method and arm, per-class p-value
                  histograms, and a method-by-rate comparison CSV
    manifest.json config hash, artifact index, timestamps

``train`` trains the class models in up to one process per usable CPU, this
one included (``roundtrip.train_class_flows``); the models are the same
bytes as training the classes one after another.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime or data
error.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .baselines import (
    ClassifierConfig,
    aps_calibrate,
    aps_set,
    save_prob_matrix,
    scaling_set,
    train_softmax_classifier,
)
from .conformal import (
    ConformalConfig,
    build_score_pool,
    load_p_values,
    load_pools,
    load_set_matrix,
    p_value_matrix,
    predictive_set,
    save_p_values,
    save_pools,
    save_sets,
)
from .datasets import (
    ContaminationSpec,
    LabeledDataset,
    Normalizer,
    SyntheticSpec,
    fit_normalizer,
    gen_gaussian_classes,
    inject_contamination,
    load_dataset_csv,
    load_idx_dataset,
    save_dataset_csv,
    split_stratified,
)
from .errors import ConfigError, DataError
from .evaluation import build_report, emit_comparison, emit_histogram, emit_report
from .nn import to_json
from .roundtrip import (
    FlowArchitecture,
    TrainConfig,
    load_class_flow,
    save_class_flow,
    train_class_flows,
)

__all__ = ["ExperimentConfig", "RunManifest", "main"]

_STAGES = ("gen-data", "train", "calibrate", "predict", "evaluate")


# -- configuration ---------------------------------------------------------------

def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"missing required config key {where}.{key}")
    return doc[key]


def _section(doc: dict, key: str, where: str, required: bool = False) -> dict:
    """``doc[key]``, which must be a JSON object; an absent optional one reads as {}."""
    value = _require(doc, key, where) if required else doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{where}.{key} must be a JSON object, got {value!r}")
    return value


@dataclass
class ExperimentConfig:
    """Validated experiment description; built before any stage runs."""

    raw: dict
    seed: int
    out_dir: str
    dataset: dict
    latent_dim: int
    gen_hidden: tuple[int, ...]
    inv_hidden: tuple[int, ...]
    disc_hidden: tuple[int, ...]
    train: dict
    conformal: ConformalConfig
    rates: tuple[float, ...]
    baselines_enabled: bool
    classifier: ClassifierConfig
    calibration_fraction: float
    normalize: bool

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        seed = int(doc.get("seed", 0))
        out_dir = str(doc.get("out_dir", "out"))

        dataset = _section(doc, "dataset", "config", required=True)
        if len(dataset.keys() & {"synthetic", "idx"}) != 1:
            raise ConfigError("config.dataset needs exactly one of 'synthetic' or 'idx'")
        if "synthetic" in dataset:
            syn = _section(dataset, "synthetic", "dataset")
            means = _require(syn, "means", "dataset.synthetic")
            # validate eagerly; generation rebuilds with run seeds
            SyntheticSpec(
                means=tuple(means),
                n_per_class=int(_require(syn, "train_per_class", "dataset.synthetic")),
                covariances=tuple(syn["covariances"]) if syn.get("covariances") else None,
            )
            if int(syn.get("calibration_per_class", 0)) < 0:
                raise ConfigError("dataset.synthetic.calibration_per_class must be >= 0")
            if int(_require(syn, "test_per_class", "dataset.synthetic")) < 1:
                raise ConfigError("dataset.synthetic.test_per_class must be >= 1")
            out = _section(syn, "outlier", "dataset.synthetic", required=True)
            np.asarray(_require(out, "mean", "dataset.synthetic.outlier"), dtype=np.float64)
        else:
            idx = _section(dataset, "idx", "dataset")
            for key in ("train_images", "train_labels", "test_images", "test_labels"):
                _require(idx, key, "dataset.idx")
            frac = float(idx.get("calibration_fraction", 0.0))
            if not 0.0 <= frac < 1.0:
                raise ConfigError("dataset.idx.calibration_fraction must lie in [0, 1)")

        model = _section(doc, "model", "config")
        latent_dim = int(model.get("latent_dim", 2))
        gen_hidden = tuple(int(w) for w in model.get("gen_hidden", (48, 48)))
        inv_hidden = tuple(int(w) for w in model.get("inv_hidden", (48, 48)))
        disc_hidden = tuple(int(w) for w in model.get("disc_hidden", (48, 48)))
        train = model.get("train", {})
        TrainConfig.from_dict(train)  # validate field names, types and ranges now

        conf = _section(doc, "conformal", "config")
        conformal = ConformalConfig(
            alpha=float(conf.get("alpha", 0.05)),
            p_value_mode=str(conf.get("p_value_mode", "smoothed")),
        )

        cont = _section(doc, "contamination", "config")
        rates = tuple(float(r) for r in cont.get("rates", (0.0,)))
        if not rates:
            raise ConfigError("contamination.rates must not be empty")
        for r in rates:
            if not 0.0 <= r < 1.0:
                raise ConfigError(f"contamination rate must lie in [0, 1), got {r}")
        if len(set(rates)) != len(rates):
            raise ConfigError(f"duplicate contamination rates {rates}")

        base = _section(doc, "baselines", "config")
        enabled = bool(base.get("enabled", True))
        classifier = ClassifierConfig(
            hidden=tuple(int(w) for w in base.get("hidden", (32,))),
            epochs=int(base.get("epochs", 60)),
            batch_size=int(base.get("batch_size", 128)),
            lr=float(base.get("lr", 5e-3)),
        )
        frac = float(base.get("calibration_fraction", 0.5))
        if not 0.0 < frac < 1.0:
            raise ConfigError("baselines.calibration_fraction must lie in (0, 1)")

        return cls(
            raw=doc,
            seed=seed,
            out_dir=out_dir,
            dataset=dataset,
            latent_dim=latent_dim,
            gen_hidden=gen_hidden,
            inv_hidden=inv_hidden,
            disc_hidden=disc_hidden,
            train=train,
            conformal=conformal,
            rates=rates,
            baselines_enabled=enabled,
            classifier=classifier,
            calibration_fraction=frac,
            normalize=bool(doc.get("normalize", True)),
        )

    def effective_dict(self) -> dict:
        doc = dict(self.raw)
        doc["seed"] = self.seed
        doc["out_dir"] = self.out_dir
        return doc

    def config_hash(self) -> str:
        canon = json.dumps(self.effective_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    # -- paths -----------------------------------------------------------

    def path(self, *parts: str) -> str:
        return os.path.join(self.out_dir, *parts)

    def rate_token(self, rate: float) -> str:
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
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    def section(key: str) -> dict:
        doc.setdefault(key, {})
        return _section(doc, key, "config")

    if overrides.seed is not None:
        doc["seed"] = overrides.seed
    if overrides.out is not None:
        doc["out_dir"] = overrides.out
    if overrides.alpha is not None:
        section("conformal")["alpha"] = overrides.alpha
    if overrides.p_value_mode is not None:
        section("conformal")["p_value_mode"] = overrides.p_value_mode
    if overrides.contamination_rate:
        section("contamination")["rates"] = list(overrides.contamination_rate)
    if overrides.baselines is not None:
        section("baselines")["enabled"] = overrides.baselines == "on"
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
        if os.path.exists(path):
            with open(path) as fh:
                doc = json.load(fh)
            man = cls(
                config_hash=doc.get("config_hash", config_hash),
                tool_version=doc.get("tool_version", __version__),
                created=doc.get("created", ""),
                updated=doc.get("updated", ""),
                artifacts=doc.get("artifacts", {}),
            )
            man.config_hash = config_hash
            man.tool_version = __version__
            return man
        now = time.strftime("%Y-%m-%dT%H:%M:%S")
        return cls(config_hash=config_hash, created=now, updated=now)

    def record(self, stage: str, paths: list[str], out_dir: str) -> None:
        rel = [os.path.relpath(p, out_dir) for p in paths]
        self.artifacts[stage] = sorted(set(self.artifacts.get(stage, [])) | set(rel))

    def save(self, path: str) -> None:
        self.updated = time.strftime("%Y-%m-%dT%H:%M:%S")
        doc = {
            "config_hash": self.config_hash,
            "tool_version": self.tool_version,
            "created": self.created,
            "updated": self.updated,
            "artifacts": self.artifacts,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
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
    if "synthetic" in cfg.dataset:
        train, calib, test, outliers = _gen_synthetic(cfg)
    else:
        train, calib, test, outliers = _load_idx_splits(cfg)

    written = []
    for name, ds in (("train.csv", train), ("calibration.csv", calib),
                     ("outliers.csv", outliers)):
        p = cfg.path("data", name)
        save_dataset_csv(ds, p)
        written.append(p)
    for i, rate in enumerate(cfg.rates):
        arm = inject_contamination(
            test, ContaminationSpec(rate, outliers.features, seed=cfg.seed + 40_000 + i)
        )
        p = cfg.test_csv(rate)
        save_dataset_csv(arm, p)
        written.append(p)
    _finish_stage(cfg, "gen-data", written)
    return written


def _gen_synthetic(cfg: ExperimentConfig):
    syn = cfg.dataset["synthetic"]
    means = tuple(syn["means"])
    covs = tuple(syn["covariances"]) if syn.get("covariances") else None
    n_train = int(syn["train_per_class"])
    n_cal = int(syn.get("calibration_per_class", 0))
    n_test = int(syn["test_per_class"])

    train = gen_gaussian_classes(SyntheticSpec(
        means=means, n_per_class=n_train, seed=cfg.seed, covariances=covs))
    if n_cal > 0:
        calib = gen_gaussian_classes(SyntheticSpec(
            means=means, n_per_class=n_cal, seed=cfg.seed + 10_000, covariances=covs))
    else:
        calib = LabeledDataset(np.empty((0, train.dim)), np.empty(0, dtype=np.int64))
    test = gen_gaussian_classes(SyntheticSpec(
        means=means, n_per_class=n_test, seed=cfg.seed + 20_000, covariances=covs))

    out = syn["outlier"]
    out_mean = np.asarray(out["mean"], dtype=np.float64)
    out_cov = (out["covariance"],) if out.get("covariance") else None
    n_out = int(out.get("n", 1000))
    out_label = len(means) + 1
    outliers = gen_gaussian_classes(SyntheticSpec(
        means=(out_mean,), n_per_class=n_out, seed=cfg.seed + 30_000,
        covariances=out_cov, labels=(out_label,)))
    # exported with label 0: these rows are never a training class
    outliers = LabeledDataset(outliers.features,
                              np.zeros(outliers.n, dtype=np.int64),
                              ("outlier",) * outliers.n)
    return train, calib, test, outliers


def _load_idx_splits(cfg: ExperimentConfig):
    idx = cfg.dataset["idx"]
    train_all = load_idx_dataset(idx["train_images"], idx["train_labels"])
    test_all = load_idx_dataset(idx["test_images"], idx["test_labels"])
    holdout = idx.get("holdout_raw_label")
    frac = float(idx.get("calibration_fraction", 0.0))
    if holdout is not None:
        internal = int(holdout) + 1
        keep_train = train_all.labels != internal
        train_all = train_all.take(np.flatnonzero(keep_train))
        out_rows = np.flatnonzero(test_all.labels == internal)
        outliers = LabeledDataset(test_all.features[out_rows],
                                  np.zeros(out_rows.size, dtype=np.int64),
                                  ("outlier",) * out_rows.size)
        test = test_all.take(np.flatnonzero(test_all.labels != internal))
    else:
        outliers = LabeledDataset(np.empty((0, train_all.dim)), np.empty(0, dtype=np.int64))
        test = test_all
    if frac > 0:
        train, calib, _ = split_stratified(train_all, (1.0 - frac, frac, 0.0),
                                           cfg.seed + 50_000)
    else:
        train = train_all
        calib = LabeledDataset(np.empty((0, train_all.dim)), np.empty(0, dtype=np.int64))
    return train, calib, test, outliers


def _load_normalizer(cfg: ExperimentConfig) -> Normalizer | None:
    path = cfg.path("models", "normalizer.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return Normalizer.from_dict(json.load(fh))


def _apply_norm(norm: Normalizer | None, features: np.ndarray) -> np.ndarray:
    return norm.apply(features) if norm is not None else features


def cmd_train(cfg: ExperimentConfig) -> list[str]:
    _ensure_dirs(cfg)
    train_path = cfg.path("data", "train.csv")
    if not os.path.exists(train_path):
        raise DataError(f"training data missing: {train_path}; run gen-data first")
    train = load_dataset_csv(train_path)
    if not train.class_labels():
        raise DataError("training data has no class rows")

    written = []
    norm = None
    if cfg.normalize:
        norm = fit_normalizer(train.features)
        p = cfg.path("models", "normalizer.json")
        with open(p, "w") as fh:
            fh.write(to_json(norm.to_dict()) + "\n")
        written.append(p)
    feats = _apply_norm(norm, train.features)

    arch = FlowArchitecture(
        input_dim=train.dim,
        latent_dim=cfg.latent_dim,
        gen_hidden=cfg.gen_hidden,
        inv_hidden=cfg.inv_hidden,
        disc_hidden=cfg.disc_hidden,
    )
    config = TrainConfig.from_dict({**cfg.train, "seed": cfg.seed})
    for model, trace in train_class_flows(feats, train.labels, arch, config):
        label = model.class_label
        mp = cfg.path("models", f"class_{label}.json")
        save_class_flow(model, mp)
        tp = cfg.path("models", f"trace_class_{label}.json")
        with open(tp, "w") as fh:
            fh.write(to_json(trace.to_dict()) + "\n")
        written.extend([mp, tp])
    _finish_stage(cfg, "train", written)
    return written


def _load_models(cfg: ExperimentConfig):
    paths = sorted(glob.glob(cfg.path("models", "class_*.json")))
    if not paths:
        raise DataError(f"no model bundles under {cfg.path('models')}; run train first")
    models = [load_class_flow(p) for p in paths]
    models.sort(key=lambda m: m.class_label)
    return models


def cmd_calibrate(cfg: ExperimentConfig) -> list[str]:
    _ensure_dirs(cfg)
    models = _load_models(cfg)
    train = load_dataset_csv(cfg.path("data", "train.csv"))
    norm = _load_normalizer(cfg)
    feats = _apply_norm(norm, train.features)
    pools = []
    for model in models:
        own = feats[train.labels == model.class_label]
        if own.shape[0] == 0:
            raise DataError(f"no training rows for class {model.class_label}")
        pools.append(build_score_pool(model, own))
    p = cfg.path("pools", "pools.csv")
    save_pools(pools, p)
    _finish_stage(cfg, "calibrate", [p])
    return [p]


def _predict_one(cfg: ExperimentConfig, models, pools, norm, test_path: str,
                 token: str) -> list[str]:
    test = load_dataset_csv(test_path)
    feats = _apply_norm(norm, test.features)
    labels, matrix = p_value_matrix(models, pools, feats, cfg.conformal.p_value_mode)
    pv_path = cfg.path("predictions", f"pvalues_{token}.csv")
    save_p_values(pv_path, labels, matrix)
    set_path = cfg.path("predictions", f"sets_{token}.csv")
    save_sets(set_path, labels, predictive_set(matrix, cfg.conformal.alpha))
    return [pv_path, set_path]


def cmd_predict(cfg: ExperimentConfig, test_file: str | None = None) -> list[str]:
    _ensure_dirs(cfg)
    models = _load_models(cfg)
    pools = load_pools(cfg.path("pools", "pools.csv"))
    by_label = {p.class_label: p for p in pools}
    try:
        pools = [by_label[m.class_label] for m in models]
    except KeyError as exc:
        raise DataError(f"no score pool for class {exc.args[0]}") from None
    norm = _load_normalizer(cfg)
    written = []
    if test_file is not None:
        token = os.path.splitext(os.path.basename(test_file))[0]
        written.extend(_predict_one(cfg, models, pools, norm, test_file, token))
    else:
        for rate in cfg.rates:
            path = cfg.test_csv(rate)
            if not os.path.exists(path):
                raise DataError(f"test arm missing: {path}; run gen-data first")
            written.extend(_predict_one(cfg, models, pools, norm, path,
                                        cfg.rate_token(rate)))
    _finish_stage(cfg, "predict", written)
    return written


def cmd_evaluate(cfg: ExperimentConfig) -> list[str]:
    _ensure_dirs(cfg)
    written = []
    alpha = cfg.conformal.alpha
    comparison_rows = []
    tests = [load_dataset_csv(cfg.test_csv(rate)) for rate in cfg.rates]
    for rate, test in zip(cfg.rates, tests):
        token = cfg.rate_token(rate)
        pv_path = cfg.path("predictions", f"pvalues_{token}.csv")
        set_path = cfg.path("predictions", f"sets_{token}.csv")
        if not (os.path.exists(pv_path) and os.path.exists(set_path)):
            raise DataError(f"predictions missing for rate {rate}; run predict first")
        labels, _, matrix = load_p_values(pv_path)
        sets = load_set_matrix(set_path, labels)
        if sets.shape[0] != test.n or matrix.shape[0] != test.n:
            raise DataError(f"prediction row count disagrees with {cfg.test_csv(rate)}")
        report = build_report(sets, test.labels, alpha,
                              class_labels=labels, p_matrix=matrix)
        rp = cfg.path("reports", f"report_flow_{token}.json")
        emit_report(report, rp)
        written.append(rp)
        comparison_rows.append(("flow", rate, report))
        for j, cls in enumerate(labels):
            own = matrix[test.labels == cls, j]
            hp = cfg.path("reports", f"hist_{token}_class{cls}.csv")
            emit_histogram(own, hp)
            written.append(hp)

    if cfg.baselines_enabled:
        written.extend(_evaluate_baselines(cfg, tests, comparison_rows))

    cmp_path = cfg.path("reports", "comparison.csv")
    emit_comparison(comparison_rows, cmp_path)
    written.append(cmp_path)
    _finish_stage(cfg, "evaluate", written)
    return written


def _evaluate_baselines(cfg: ExperimentConfig, tests: list[LabeledDataset],
                        comparison_rows) -> list[str]:
    """Baseline reports per arm; ``tests`` holds the arms of ``cfg.rates`` in order."""
    train = load_dataset_csv(cfg.path("data", "train.csv"))
    calib = load_dataset_csv(cfg.path("data", "calibration.csv"))
    norm = _load_normalizer(cfg)
    if calib.n > 0:
        clf_train, aps_cal = train, calib
    else:
        frac = cfg.calibration_fraction
        clf_train, aps_cal, _ = split_stratified(train, (1.0 - frac, frac, 0.0),
                                                 cfg.seed + 60_000)
    clf = train_softmax_classifier(_apply_norm(norm, clf_train.features),
                                   clf_train.labels, cfg.classifier,
                                   seed=cfg.seed + 70_000)
    class_labels = clf.class_labels
    cal_probs = clf.predict_proba(_apply_norm(norm, aps_cal.features))
    cal = aps_calibrate(cal_probs, aps_cal.labels, class_labels, cfg.conformal.alpha)

    written = []
    for rate, test in zip(cfg.rates, tests):
        token = cfg.rate_token(rate)
        probs = clf.predict_proba(_apply_norm(norm, test.features))
        pp = cfg.path("predictions", f"probs_{token}.csv")
        save_prob_matrix(pp, class_labels, probs)
        written.append(pp)
        for method, sets in (("scaling", scaling_set(probs, cfg.conformal.alpha)),
                             ("aps", aps_set(probs, cal))):
            report = build_report(sets, test.labels, cfg.conformal.alpha,
                                  class_labels=class_labels)
            rp = cfg.path("reports", f"report_{method}_{token}.json")
            emit_report(report, rp)
            written.append(rp)
            comparison_rows.append((method, rate, report))
    return written


def cmd_run_experiment(cfg: ExperimentConfig) -> list[str]:
    written = []
    written.extend(cmd_gen_data(cfg))
    written.extend(cmd_train(cfg))
    written.extend(cmd_calibrate(cfg))
    written.extend(cmd_predict(cfg))
    written.extend(cmd_evaluate(cfg))
    return written


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
        if args.command == "gen-data":
            cmd_gen_data(cfg)
        elif args.command == "train":
            cmd_train(cfg)
        elif args.command == "calibrate":
            cmd_calibrate(cfg)
        elif args.command == "predict":
            cmd_predict(cfg, getattr(args, "test_file", None))
        elif args.command == "evaluate":
            cmd_evaluate(cfg)
        elif args.command == "run-experiment":
            cmd_run_experiment(cfg)
        else:  # pragma: no cover - argparse enforces choices
            raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, FloatingPointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
