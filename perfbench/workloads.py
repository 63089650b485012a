"""Workload definitions: seeded inputs and the config each one hands the CLI.

Every input the program sees is written here from the workload seed: the
JSON config and, for ``idx-wide``, the IDX image and label files. Nothing is
downloaded.
"""

from __future__ import annotations

import json
import os
import struct
import numpy as np

STAGES = ("gen-data", "train", "calibrate", "predict", "evaluate")
RATES = (0.0, 0.05, 0.1)
ALPHA = 0.05

# Thresholds copied from acceptance checks 1, 3 and 4 in tests/test_acceptance.py.
MIN_CLEAN_COVERAGE = 0.93
MIN_DETECTION = 0.90
MAX_COVERAGE_DROP = 0.02

_README_MEANS = [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]
_IDX_SIDE = 8
_IDX_RAW_LABELS = 10
_IDX_HOLDOUT = 9


def rate_token(rate: float) -> str:
    """Arm token the CLI uses in file names (test_c0.csv, pvalues_c10.csv, ...)."""
    return "c" + format(rate * 100, "g").replace(".", "_")


WORKLOADS = ("readme", "scoring", "idx-wide")
# outlier detection and coverage drop are checked only on the acceptance setup
DETECTION_CHECKED = ("readme",)
IDX_WORKLOADS = ("idx-wide",)


def _synthetic_config(seed: int, train: int, test: int, outliers: int,
                      epochs: int, batch: int) -> dict:
    return {
        "seed": seed,
        "out_dir": "out",
        "dataset": {"synthetic": {
            "means": _README_MEANS,
            "train_per_class": train,
            "test_per_class": test,
            "outlier": {"mean": [12.0, 12.0], "n": outliers},
        }},
        "model": {"latent_dim": 2, "train": {
            "epochs": epochs, "batch_size": batch, "w_mmd": 8.0, "w_cycle": 0.5}},
        "conformal": {"alpha": ALPHA},
        "contamination": {"rates": list(RATES)},
    }


def _write_idx(stem: str, images: np.ndarray, labels: np.ndarray) -> None:
    n = images.shape[0]
    with open(f"{stem}-images.idx", "wb") as fh:
        fh.write(struct.pack(">iiii", 0x00000803, n, _IDX_SIDE, _IDX_SIDE))
        fh.write(images.astype(np.uint8).tobytes())
    with open(f"{stem}-labels.idx", "wb") as fh:
        fh.write(struct.pack(">ii", 0x00000801, n))
        fh.write(labels.astype(np.uint8).tobytes())


def _idx_split(rng: np.random.Generator, prototypes: np.ndarray, per_label: int):
    labels = np.repeat(np.arange(_IDX_RAW_LABELS), per_label)
    rng.shuffle(labels)
    noise = rng.normal(0.0, 25.0, size=(labels.size, _IDX_SIDE * _IDX_SIDE))
    images = np.clip(np.rint(prototypes[labels] + noise), 0, 255)
    return images, labels


def _idx_config(workdir: str, seed: int, train_per_label: int, test_per_label: int,
                epochs: int, batch: int) -> dict:
    """Write the IDX files under ``workdir`` and return the config.

    Each raw label is a fixed prototype image plus Gaussian pixel noise. The
    held-out label supplies the outlier pool; with equal test counts per
    label it holds exactly the rows a 10% arm needs.
    """
    rng = np.random.default_rng([seed, 8])
    prototypes = rng.uniform(30.0, 225.0, size=(_IDX_RAW_LABELS, _IDX_SIDE * _IDX_SIDE))
    os.makedirs(os.path.join(workdir, "idx"), exist_ok=True)
    for split, per_label in (("train", train_per_label), ("test", test_per_label)):
        _write_idx(os.path.join(workdir, "idx", split),
                   *_idx_split(rng, prototypes, per_label))
    return {
        "seed": seed,
        "out_dir": "out",
        "dataset": {"idx": {
            "train_images": "idx/train-images.idx",
            "train_labels": "idx/train-labels.idx",
            "test_images": "idx/test-images.idx",
            "test_labels": "idx/test-labels.idx",
            "holdout_raw_label": _IDX_HOLDOUT,
            "calibration_fraction": 0.25,
        }},
        "model": {"latent_dim": 8, "train": {
            "epochs": epochs, "batch_size": batch, "w_mmd": 8.0, "w_cycle": 0.5}},
        "conformal": {"alpha": ALPHA},
        "contamination": {"rates": list(RATES)},
    }


def write_inputs(name: str, seed: int, smoke: bool, workdir: str) -> str:
    """Write the workload's inputs under ``workdir``; return the config path relative to it.

    Smoke sizes keep every stage and check on the path but finish in seconds;
    their timings mean nothing.
    """
    if name == "readme":
        doc = (_synthetic_config(seed, 300, 300, 200, 2, 64) if smoke
               else _synthetic_config(seed, 2000, 500, 1000, 40, 128))
    elif name == "scoring":
        doc = (_synthetic_config(seed, 300, 600, 300, 2, 64) if smoke
               else _synthetic_config(seed, 2000, 5000, 2000, 3, 128))
    elif name == "idx-wide":
        doc = (_idx_config(workdir, seed, 120, 40, 2, 32) if smoke
               else _idx_config(workdir, seed, 640, 250, 8, 128))
    else:
        raise KeyError(name)
    with open(os.path.join(workdir, "config.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return "config.json"
