"""Labeled datasets: synthetic Gaussian classes, IDX image files, contamination,
stratified splits, normalization, and the two file formats of a dataset.

Class labels are positive integers 1..L; the reserved label 0 marks outlier
rows (``OUTLIER``). IDX digit labels 0..9 therefore load as 1..10.

A run's rows come from ``make_splits`` and ``contaminated_arms``, which
``gen-data`` writes and the acceptance checks call in memory; each draw's
seeded stream is named once, there.

A dataset is saved in one of two forms, each of which round-trips exactly:

- two ``.npy`` files (``save_dataset_npy``/``load_dataset_npy``):
  ``<stem>_features.npy`` holds the float64 (n, p) matrix and
  ``<stem>_labels.npy`` the int64 labels, written by ``np.save`` and read
  back without pickles. A stage reads them in a few milliseconds and holds
  nothing beyond the two arrays. A file that is truncated, not ``.npy``,
  of another dtype or rank, or of another row count than its twin raises a
  DataError naming the file.
- one CSV table (``save_dataset_csv``/``load_dataset_csv``) with the header
  ``label,f_1,...,f_p`` and feature values with 17 significant digits, for
  files a user writes or reads as text.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from ._table import FLOAT, read_table, write_table
from .errors import ConfigError, DataError

__all__ = [
    "OUTLIER",
    "LabeledDataset",
    "SyntheticSpec",
    "ContaminationSpec",
    "gen_gaussian_classes",
    "inject_contamination",
    "make_splits",
    "contaminated_arms",
    "load_idx_images",
    "load_idx_labels",
    "load_idx_dataset",
    "split_stratified",
    "Normalizer",
    "fit_normalizer",
    "save_dataset_csv",
    "load_dataset_csv",
    "npy_paths",
    "save_dataset_npy",
    "load_dataset_npy",
    "sorted_labels",
]

OUTLIER = 0


def sorted_labels(values) -> np.ndarray:
    """The distinct values of a label array, ascending, as ``np.unique`` gives
    them. A plain ``np.unique(values)`` asks numpy.ma whether its input is
    masked, and importing numpy.ma adds ~10 ms to a stage that never needs
    it; one sort and a comparison of neighbours are also faster."""
    s = np.sort(np.asarray(values).ravel())
    first = np.empty(s.shape, dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]


_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


@dataclass
class LabeledDataset:
    """Feature matrix with integer labels (0 = outlier, 1..L = classes)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.ndim != 1:
            raise DataError(f"labels must be 1-D, got shape {self.labels.shape}")
        if self.features.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"row count mismatch: {self.features.shape[0]} feature rows, "
                f"{self.labels.shape[0]} labels"
            )
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain non-finite values")
        if np.any(self.labels < 0):
            raise DataError("labels must be >= 0 (0 is the outlier token)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def class_labels(self) -> tuple[int, ...]:
        return tuple(int(v) for v in sorted_labels(self.labels) if v != OUTLIER)

    def take(self, idx: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[idx], self.labels[idx])


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian mixture description: one mean (and optional covariance) per class."""

    means: tuple
    n_per_class: int
    seed: int = 0
    covariances: tuple | None = None

    def __post_init__(self):
        means = tuple(np.asarray(m, dtype=np.float64).ravel() for m in self.means)
        object.__setattr__(self, "means", means)
        if not means or means[0].shape[0] == 0:
            raise ConfigError("means must hold at least one class mean of dimension >= 1")
        p = means[0].shape[0]
        if any(m.shape[0] != p for m in means):
            raise ConfigError("all class means must share one dimension")
        if self.n_per_class < 1:
            raise ConfigError(f"n_per_class must be >= 1, got {self.n_per_class}")
        if self.covariances is not None:
            covs = tuple(np.asarray(c, dtype=np.float64) for c in self.covariances)
            if len(covs) != len(means):
                raise ConfigError("covariances: one covariance per class is required when given")
            for i, cov in enumerate(covs):
                if cov.shape != (p, p):
                    raise ConfigError(f"covariances[{i}] shape {cov.shape} != ({p}, {p})")
                if not np.allclose(cov, cov.T, atol=1e-10):
                    raise ConfigError(f"covariances[{i}] is not symmetric")
                try:
                    np.linalg.cholesky(cov)
                except np.linalg.LinAlgError:
                    raise ConfigError(f"covariances[{i}] is not positive definite") from None
            object.__setattr__(self, "covariances", covs)

    @property
    def dim(self) -> int:
        return self.means[0].shape[0]


def gen_gaussian_classes(spec: SyntheticSpec) -> LabeledDataset:
    """Draw spec.n_per_class points per class; classes labeled 1..L."""
    rng = np.random.default_rng(spec.seed)
    p = spec.dim
    covs = spec.covariances if spec.covariances is not None else [np.eye(p)] * len(spec.means)
    feats = [rng.multivariate_normal(mean, cov, size=spec.n_per_class)
             for mean, cov in zip(spec.means, covs)]
    labels = np.repeat(np.arange(1, len(spec.means) + 1), spec.n_per_class)
    return LabeledDataset(np.vstack(feats), labels)


@dataclass(frozen=True)
class ContaminationSpec:
    """Contamination rate plus the pool outlier rows are drawn from."""

    rate: float
    outlier_features: np.ndarray
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"contamination rate must lie in [0, 1), got {self.rate}")
        pool = np.asarray(self.outlier_features, dtype=np.float64)
        if pool.ndim != 2:
            raise ConfigError(f"outlier pool must be 2-D, got shape {pool.shape}")
        object.__setattr__(self, "outlier_features", pool)


def inject_contamination(inliers: LabeledDataset, spec: ContaminationSpec) -> LabeledDataset:
    """Append outliers so they form ``spec.rate`` of the result, then shuffle.

    The outlier count solves o / (m + o) = rate, rounded to the nearest
    integer; outlier rows get label 0. Row order is shuffled even at rate 0.
    """
    if np.any(inliers.labels == OUTLIER):
        raise DataError("inlier dataset already contains outlier-labeled rows")
    rng = np.random.default_rng(spec.seed)
    m = inliers.n
    o = int(round(spec.rate * m / (1.0 - spec.rate)))
    if o == 0:
        return inliers.take(rng.permutation(m))
    pool = spec.outlier_features
    if pool.shape[1] != inliers.dim:
        raise DataError(
            f"outlier pool dim {pool.shape[1]} != inlier feature dim {inliers.dim}"
        )
    if o > pool.shape[0]:
        raise DataError(f"need {o} outlier rows but the pool holds {pool.shape[0]}")
    picks = rng.choice(pool.shape[0], size=o, replace=False)
    feats = np.vstack([inliers.features, pool[picks]])
    labs = np.concatenate([inliers.labels, np.full(o, OUTLIER, dtype=np.int64)])
    combined = LabeledDataset(feats, labs)
    return combined.take(rng.permutation(combined.n))


def _outliers(features: np.ndarray) -> LabeledDataset:
    return LabeledDataset(features, np.full(len(features), OUTLIER))


def make_splits(dataset: dict, seed: int):
    """(train, calibration, test, outliers) of a config's typed ``dataset``
    section (``synthetic`` or ``idx``) and run seed; outlier rows carry the
    label 0 and an absent split is empty. An IDX ``holdout_raw_label``'s test
    rows are the outliers and its training rows are dropped; a
    ``calibration_fraction`` holds out that share of each class."""
    if "synthetic" in dataset:
        syn = dataset["synthetic"]
        means, covs = syn["means"], syn["covariances"]
        train = gen_gaussian_classes(SyntheticSpec(means, syn["train_per_class"], seed, covs))
        calib = (gen_gaussian_classes(SyntheticSpec(means, syn["calibration_per_class"],
                                                    seed + 10_000, covs))
                 if syn["calibration_per_class"] > 0 else train.take([]))
        test = gen_gaussian_classes(SyntheticSpec(means, syn["test_per_class"],
                                                  seed + 20_000, covs))
        out = syn["outlier"]
        drawn = gen_gaussian_classes(SyntheticSpec(
            [out["mean"]], out["n"], seed + 30_000,
            None if out["covariance"] is None else [out["covariance"]]))
        return train, calib, test, _outliers(drawn.features)

    idx = dataset["idx"]
    train = load_idx_dataset(idx["train_images"], idx["train_labels"])
    test = load_idx_dataset(idx["test_images"], idx["test_labels"])
    outliers = test.take([])
    if idx["holdout_raw_label"] is not None:
        label = idx["holdout_raw_label"] + 1
        train = train.take(np.flatnonzero(train.labels != label))
        held = test.labels == label
        outliers = _outliers(test.features[held])
        test = test.take(np.flatnonzero(~held))
    if idx["calibration_fraction"] > 0:
        return (*split_stratified(train, idx["calibration_fraction"], seed + 50_000),
                test, outliers)
    return train, train.take([]), test, outliers


def contaminated_arms(test: LabeledDataset, outliers: LabeledDataset, rates, seed: int):
    """Yield the test arm of each of ``rates`` in turn, made only when asked
    for: ``test`` plus that share of rows drawn from ``outliers``, shuffled."""
    for i, rate in enumerate(rates):
        yield inject_contamination(
            test, ContaminationSpec(rate, outliers.features, seed=seed + 40_000 + i))


# -- IDX binary files -----------------------------------------------------------

def _read_idx(path: str, expect_magic: int) -> bytes:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise DataError(f"{path}: truncated file, no room for the magic number")
    (magic,) = struct.unpack(">i", raw[:4])
    if magic != expect_magic:
        raise DataError(
            f"{path}: bad magic 0x{magic:08x}, expected 0x{expect_magic:08x}"
        )
    return raw


def load_idx_images(path: str) -> np.ndarray:
    """Read an IDX image file into an (n, rows*cols) float array scaled to [0, 1]."""
    raw = _read_idx(path, _IDX_IMAGE_MAGIC)
    if len(raw) < 16:
        raise DataError(f"{path}: truncated file, header incomplete")
    count, rows, cols = struct.unpack(">iii", raw[4:16])
    if count < 0 or rows <= 0 or cols <= 0:
        raise DataError(f"{path}: implausible dimensions ({count}, {rows}, {cols})")
    need = 16 + count * rows * cols
    if len(raw) < need:
        raise DataError(
            f"{path}: truncated file, payload holds {len(raw) - 16} bytes "
            f"but the header promises {need - 16}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count * rows * cols, offset=16)
    images = pixels.reshape(count, rows * cols).astype(np.float64)
    images /= 255.0  # in place: the bytes of a plain division, one float array
    return images


def load_idx_labels(path: str) -> np.ndarray:
    """Read an IDX label file into an int array of raw labels."""
    raw = _read_idx(path, _IDX_LABEL_MAGIC)
    if len(raw) < 8:
        raise DataError(f"{path}: truncated file, header incomplete")
    (count,) = struct.unpack(">i", raw[4:8])
    if count < 0:
        raise DataError(f"{path}: implausible count {count}")
    if len(raw) < 8 + count:
        raise DataError(
            f"{path}: truncated file, payload holds {len(raw) - 8} labels "
            f"but the header promises {count}"
        )
    return np.frombuffer(raw, dtype=np.uint8, count=count, offset=8).astype(np.int64)


def load_idx_dataset(images_path: str, labels_path: str) -> LabeledDataset:
    """Pair image and label files; raw labels shift up by 1 (0 stays the outlier token)."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise DataError(
            f"image/label count mismatch: {images.shape[0]} images, {labels.shape[0]} labels"
        )
    return LabeledDataset(images, labels + 1)


# -- splits and normalization ---------------------------------------------------

def split_stratified(ds: LabeledDataset, fraction: float,
                     seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """(kept, held): each class's rows in a seeded shuffle, the first
    round((1 - fraction) * n) of them kept and the rest held out.

    Outlier-labeled rows land in neither part.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"fraction must lie in [0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    kept, held = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for label in ds.class_labels():
        idx = np.flatnonzero(ds.labels == label)
        idx = idx[rng.permutation(idx.shape[0])]
        cut = int(round((1.0 - fraction) * idx.shape[0]))
        kept.append(idx[:cut])
        held.append(idx[cut:])
    return ds.take(np.concatenate(kept)), ds.take(np.concatenate(held))


@dataclass(frozen=True)
class Normalizer:
    """Per-feature affine transform fit on training data, reused at test time."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, features: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(features - mean) / std, written into ``out`` when given (which
        may be ``features`` itself, to normalize a matrix in place)."""
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.mean.shape[0]:
            raise DataError(
                f"feature shape {x.shape} incompatible with normalizer dim {self.mean.shape[0]}"
            )
        out = np.subtract(x, self.mean, out=out)
        out /= self.std
        return out

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "Normalizer":
        """Raises DataError unless ``mean`` and ``std`` are equal-length lists
        of finite numbers with every ``std`` positive."""
        try:
            mean = np.asarray(doc["mean"], dtype=np.float64)
            std = np.asarray(doc["std"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DataError(f"mean and std must be lists of numbers: {exc}") from None
        if mean.ndim != 1 or mean.shape != std.shape:
            raise DataError(f"mean and std must be lists of equal length, got shapes "
                            f"{mean.shape} and {std.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise DataError("mean must be finite and std finite and positive")
        return cls(mean, std)


def fit_normalizer(features: np.ndarray) -> Normalizer:
    """Per-feature mean/std; zero-variance features keep unit scale (with a
    warning). A feature whose mean or std overflows float64 is a DataError
    naming it, raised before anything is trained on the rows."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DataError("normalizer needs a 2-D array with at least 2 rows")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        std = x.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        j = int(bad[0])
        raise DataError(f"feature f_{j + 1} has mean {float(mean[j])!r} and std "
                        f"{float(std[j])!r}, past the float64 range; rescale it")
    flat = std < 1e-12
    if np.any(flat):
        warnings.warn(
            f"{int(flat.sum())} zero-variance feature(s) centered but not scaled",
            stacklevel=2,
        )
        std = np.where(flat, 1.0, std)
    return Normalizer(mean, std)


# -- file round-trips -------------------------------------------------------------

def save_dataset_csv(ds: LabeledDataset, path: str) -> None:
    write_table(path, ["label", *(f"f_{j + 1}" for j in range(ds.dim))],
                [ds.labels, *ds.features.T], ["%d"] + [FLOAT] * ds.dim)


def load_dataset_csv(path: str) -> LabeledDataset:
    cols, (labels, features) = read_table(path, ("label",), (int,), prefix="f_")
    if list(cols) != list(range(1, len(cols) + 1)):
        raise DataError(f"{path}: malformed feature columns {cols}; expected f_1..f_{len(cols)}")
    return LabeledDataset(features, labels)


def npy_paths(stem: str) -> tuple[str, str]:
    """The features and labels files of the dataset saved at ``stem``."""
    return f"{stem}_features.npy", f"{stem}_labels.npy"


def save_dataset_npy(ds: LabeledDataset, stem: str) -> tuple[str, str]:
    """Write ``ds`` as its two ``.npy`` files; returns their paths."""
    paths = npy_paths(stem)
    np.save(paths[0], ds.features)
    np.save(paths[1], ds.labels)
    return paths


def load_dataset_npy(stem: str) -> LabeledDataset:
    """The dataset that ``save_dataset_npy`` wrote at ``stem``."""
    features_path, labels_path = npy_paths(stem)
    features = _read_npy(features_path, np.float64, 2)
    labels = _read_npy(labels_path, np.int64, 1)
    if features.shape[0] != labels.shape[0]:
        raise DataError(f"{labels_path}: {labels.shape[0]} labels, but {features_path} "
                        f"holds {features.shape[0]} rows")
    try:
        return LabeledDataset(features, labels)
    except DataError as exc:  # a non-finite feature or a negative label
        raise DataError(f"{features_path}, {labels_path}: {exc}") from None


def _read_npy(path: str, dtype, ndim: int) -> np.ndarray:
    """The ``ndim``-D ``dtype`` array in the ``.npy`` file ``path``; any
    other file raises a DataError naming it."""
    with open(path, "rb") as fh:
        try:
            array = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as exc:  # truncated, not .npy, or of object dtype
            raise DataError(f"{path}: not a readable .npy array: {exc}") from None
    if array.dtype != dtype or array.ndim != ndim:
        raise DataError(f"{path}: expected a {ndim}-D {np.dtype(dtype)} array, "
                        f"got a {array.ndim}-D {array.dtype} one")
    return array
