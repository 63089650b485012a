"""Dataset generation, contamination, IDX parsing, splits, normalization, CSV
and .npy files.

Oracles: exact row counts, hand-built IDX byte strings, the CLT for sample
means of synthetic draws, and exact save/load round-trips.
"""

import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from flowconformal.datasets import (
    OUTLIER,
    ContaminationSpec,
    LabeledDataset,
    Normalizer,
    SyntheticSpec,
    fit_normalizer,
    gen_gaussian_classes,
    inject_contamination,
    load_dataset_csv,
    load_dataset_npy,
    load_idx_dataset,
    load_idx_images,
    load_idx_labels,
    save_dataset_csv,
    save_dataset_npy,
    sorted_labels,
    split_stratified,
)
from flowconformal.errors import ConfigError, DataError


# -- container validation -----------------------------------------------------------

def test_dataset_validates_shapes_and_values():
    with pytest.raises(DataError, match="2-D"):
        LabeledDataset(np.zeros(3), np.zeros(3, dtype=int))
    with pytest.raises(DataError, match="mismatch"):
        LabeledDataset(np.zeros((3, 2)), np.zeros(2, dtype=int))
    with pytest.raises(DataError, match="non-finite"):
        LabeledDataset(np.array([[np.inf]]), np.array([1]))
    with pytest.raises(DataError, match=">= 0"):
        LabeledDataset(np.zeros((1, 1)), np.array([-1]))


def test_dataset_accessors():
    ds = LabeledDataset(np.array([[1.0], [2.0], [3.0]]), np.array([1, 0, 2]))
    assert ds.n == 3 and ds.dim == 1
    assert ds.class_labels() == (1, 2)
    sub = ds.take(np.array([2, 0]))
    assert np.array_equal(sub.features, [[3.0], [1.0]])
    assert np.array_equal(sub.labels, [2, 1])


# -- synthetic generation -------------------------------------------------------------

def test_synthetic_counts_and_labels_exact():
    spec = SyntheticSpec(means=((0.0, 0.0), (4.0, 0.0), (0.0, 4.0)), n_per_class=50, seed=1)
    ds = gen_gaussian_classes(spec)
    assert ds.n == 150 and ds.dim == 2
    for label in (1, 2, 3):
        assert int(np.sum(ds.labels == label)) == 50
    assert ds.labels[0] == 1 and ds.labels[-1] == 3


def test_synthetic_same_seed_is_identical():
    spec = SyntheticSpec(means=((0.0,), (3.0,)), n_per_class=40, seed=9)
    a = gen_gaussian_classes(spec)
    b = gen_gaussian_classes(spec)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_class_means_near_targets():
    # n = 1000 per class puts the sample mean within 0.1 of the target (>3 SD)
    spec = SyntheticSpec(means=((0.0, 0.0), (5.0, 5.0)), n_per_class=1000, seed=2)
    ds = gen_gaussian_classes(spec)
    for label, target in ((1, (0.0, 0.0)), (2, (5.0, 5.0))):
        got = ds.features[ds.labels == label].mean(axis=0)
        assert np.all(np.abs(got - np.asarray(target)) <= 0.1)


def test_synthetic_custom_covariance_shapes_the_spread():
    cov = np.array([[4.0, 0.0], [0.0, 1.0]])
    spec = SyntheticSpec(means=((0.0, 0.0),), n_per_class=4000, seed=3,
                         covariances=(cov,))
    ds = gen_gaussian_classes(spec)
    var = ds.features.var(axis=0)
    assert abs(var[0] - 4.0) <= 0.3
    assert abs(var[1] - 1.0) <= 0.1


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError, match="at least one"):
        SyntheticSpec(means=(), n_per_class=5)
    with pytest.raises(ConfigError, match="share one dimension"):
        SyntheticSpec(means=((0.0,), (0.0, 1.0)), n_per_class=5)
    with pytest.raises(ConfigError, match="n_per_class"):
        SyntheticSpec(means=((0.0,),), n_per_class=0)
    with pytest.raises(ConfigError, match="one covariance per class"):
        SyntheticSpec(means=((0.0,), (1.0,)), n_per_class=5, covariances=(np.eye(1),))
    with pytest.raises(ConfigError, match="not symmetric"):
        SyntheticSpec(means=((0.0, 0.0),), n_per_class=5,
                      covariances=(np.array([[1.0, 0.5], [0.2, 1.0]]),))
    with pytest.raises(ConfigError, match="positive definite"):
        SyntheticSpec(means=((0.0, 0.0),), n_per_class=5,
                      covariances=(np.array([[1.0, 2.0], [2.0, 1.0]]),))
    with pytest.raises(ConfigError, match="shape"):
        SyntheticSpec(means=((0.0, 0.0),), n_per_class=5, covariances=(np.eye(3),))


# -- contamination ---------------------------------------------------------------------

def _inliers(n, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    labels = 1 + (np.arange(n) % 3)
    return LabeledDataset(rng.standard_normal((n, dim)), labels)


def test_contamination_count_solves_rate_equation():
    # o = round(rate * m / (1 - rate)): 900 at 10% -> 100, 950 at 5% -> 50
    pool = np.full((200, 2), 9.0)
    out = inject_contamination(_inliers(900), ContaminationSpec(0.1, pool, seed=1))
    assert out.n == 1000
    assert int(np.sum(out.labels == OUTLIER)) == 100
    out = inject_contamination(_inliers(950), ContaminationSpec(0.05, pool, seed=1))
    assert out.n == 1000
    assert int(np.sum(out.labels == OUTLIER)) == 50


def test_contamination_rate_zero_shuffles_without_outliers():
    ds = _inliers(30)
    out = inject_contamination(ds, ContaminationSpec(0.0, np.zeros((1, 2)), seed=5))
    assert out.n == 30
    assert not np.any(out.labels == OUTLIER)
    assert not np.array_equal(out.features, ds.features)
    assert np.array_equal(np.sort(out.features, axis=0), np.sort(ds.features, axis=0))


def test_contamination_is_deterministic_per_seed():
    pool = np.random.default_rng(7).standard_normal((50, 2)) + 8.0
    a = inject_contamination(_inliers(90), ContaminationSpec(0.1, pool, seed=3))
    b = inject_contamination(_inliers(90), ContaminationSpec(0.1, pool, seed=3))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_contamination_errors():
    with pytest.raises(ConfigError, match=r"\[0, 1\)"):
        ContaminationSpec(1.0, np.zeros((1, 2)))
    with pytest.raises(ConfigError, match=r"\[0, 1\)"):
        ContaminationSpec(-0.1, np.zeros((1, 2)))
    with pytest.raises(DataError, match="already contains"):
        tainted = LabeledDataset(np.zeros((2, 2)), np.array([0, 1]))
        inject_contamination(tainted, ContaminationSpec(0.1, np.zeros((5, 2))))
    with pytest.raises(DataError, match="dim"):
        inject_contamination(_inliers(90), ContaminationSpec(0.1, np.zeros((50, 3))))
    with pytest.raises(DataError, match="pool holds"):
        inject_contamination(_inliers(900), ContaminationSpec(0.1, np.zeros((10, 2))))


# -- IDX binary files -------------------------------------------------------------------

def _idx_image_bytes(pixels):
    n, r, c = pixels.shape
    return struct.pack(">iiii", 0x00000803, n, r, c) + pixels.astype(np.uint8).tobytes()


def _idx_label_bytes(labels):
    return struct.pack(">ii", 0x00000801, len(labels)) + bytes(int(v) for v in labels)


def test_idx_images_scale_and_shape(tmp_path):
    pixels = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    path = tmp_path / "img.idx"
    path.write_bytes(_idx_image_bytes(pixels))
    got = load_idx_images(str(path))
    assert got.shape == (2, 12)
    assert np.array_equal(got, pixels.reshape(2, 12) / 255.0)


def test_idx_labels_read_raw_values(tmp_path):
    path = tmp_path / "lab.idx"
    path.write_bytes(_idx_label_bytes([0, 5, 9]))
    assert np.array_equal(load_idx_labels(str(path)), [0, 5, 9])


def test_idx_dataset_shifts_labels_up_by_one(tmp_path):
    pixels = np.full((3, 2, 2), 255, dtype=np.uint8)
    (tmp_path / "img.idx").write_bytes(_idx_image_bytes(pixels))
    (tmp_path / "lab.idx").write_bytes(_idx_label_bytes([0, 1, 9]))
    ds = load_idx_dataset(str(tmp_path / "img.idx"), str(tmp_path / "lab.idx"))
    assert np.array_equal(ds.labels, [1, 2, 10])
    assert np.all(ds.features == 1.0)


def test_idx_wrong_magic_is_distinct_error(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">iiii", 0x00000801, 1, 1, 1) + b"\x00")
    with pytest.raises(DataError, match="bad magic"):
        load_idx_images(str(path))
    path.write_bytes(struct.pack(">ii", 0x00000803, 1) + b"\x00")
    with pytest.raises(DataError, match="bad magic"):
        load_idx_labels(str(path))


def test_idx_truncation_errors(tmp_path):
    path = tmp_path / "trunc.idx"
    path.write_bytes(b"\x00\x00")
    with pytest.raises(DataError, match="truncated"):
        load_idx_images(str(path))
    path.write_bytes(struct.pack(">i", 0x00000803) + b"\x00\x00")
    with pytest.raises(DataError, match="truncated"):
        load_idx_images(str(path))
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    full = _idx_image_bytes(pixels)
    path.write_bytes(full[:-3])
    with pytest.raises(DataError, match="promises"):
        load_idx_images(str(path))
    lab = _idx_label_bytes([1, 2, 3])
    path.write_bytes(lab[:-1])
    with pytest.raises(DataError, match="promises"):
        load_idx_labels(str(path))


def test_idx_image_label_count_mismatch(tmp_path):
    (tmp_path / "img.idx").write_bytes(_idx_image_bytes(np.zeros((2, 1, 1), dtype=np.uint8)))
    (tmp_path / "lab.idx").write_bytes(_idx_label_bytes([1, 2, 3]))
    with pytest.raises(DataError, match="mismatch"):
        load_idx_dataset(str(tmp_path / "img.idx"), str(tmp_path / "lab.idx"))


def test_idx_implausible_dimensions(tmp_path):
    path = tmp_path / "neg.idx"
    path.write_bytes(struct.pack(">iiii", 0x00000803, -1, 2, 2))
    with pytest.raises(DataError, match="implausible"):
        load_idx_images(str(path))


# -- splits ------------------------------------------------------------------------------

def test_split_fraction_validation():
    ds = _inliers(30)
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        split_stratified(ds, 1.5, seed=0)
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        split_stratified(ds, -0.1, seed=0)


def test_split_counts_per_class_within_one_of_fractions():
    ds = _inliers(303)  # 101 rows in each of 3 classes
    kept, held = split_stratified(ds, 0.25, seed=4)
    assert kept.n + held.n == 303
    for label in (1, 2, 3):
        n_kept = int(np.sum(kept.labels == label))
        n_held = int(np.sum(held.labels == label))
        assert n_kept + n_held == 101
        assert n_kept == round(0.75 * 101)
        assert abs(n_held - 25.25) <= 1


def test_split_partitions_rows_exactly():
    rng = np.random.default_rng(6)
    ds = LabeledDataset(rng.standard_normal((60, 2)),
                        1 + (np.arange(60) % 2))
    kept, held = split_stratified(ds, 0.4, seed=1)
    merged = np.vstack([kept.features, held.features])
    assert np.array_equal(np.sort(merged, axis=0), np.sort(ds.features, axis=0))


def test_split_all_train_fraction():
    ds = _inliers(30)
    kept, held = split_stratified(ds, 0.0, seed=0)
    assert kept.n == 30 and held.n == 0


def test_split_leaves_outliers_out():
    feats = np.vstack([np.zeros((10, 1)), np.ones((4, 1))])
    labels = np.concatenate([np.ones(10, dtype=int), np.zeros(4, dtype=int)])
    ds = LabeledDataset(feats, labels)
    kept, held = split_stratified(ds, 0.5, seed=0)
    assert not np.any(kept.labels == OUTLIER)
    assert not np.any(held.labels == OUTLIER)
    assert kept.n + held.n == 10


def test_split_deterministic_per_seed():
    ds = _inliers(90)
    a = split_stratified(ds, 0.4, seed=11)
    b = split_stratified(ds, 0.4, seed=11)
    for left, right in zip(a, b):
        assert np.array_equal(left.features, right.features)


# -- normalization ------------------------------------------------------------------------

def test_normalizer_standardizes_and_inverts():
    rng = np.random.default_rng(8)
    x = rng.normal(3.0, 2.0, size=(500, 3))
    norm = fit_normalizer(x)
    z = norm.apply(x)
    assert np.all(np.abs(z.mean(axis=0)) < 1e-12)
    assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-12)
    # the stored mean and std are the affine map apply runs
    assert np.all(np.abs(z * norm.std + norm.mean - x) < 1e-12)


def test_normalizer_zero_variance_warns_and_centers():
    x = np.column_stack([np.full(50, 7.0), np.arange(50, dtype=np.float64)])
    with pytest.warns(UserWarning, match="zero-variance"):
        norm = fit_normalizer(x)
    z = norm.apply(x)
    assert np.all(z[:, 0] == 0.0)
    assert abs(z[:, 1].std() - 1.0) < 1e-12


def test_normalizer_dict_roundtrip_and_dim_check():
    rng = np.random.default_rng(9)
    norm = fit_normalizer(rng.standard_normal((20, 2)))
    back = Normalizer.from_dict(norm.to_dict())
    assert np.array_equal(back.mean, norm.mean)
    assert np.array_equal(back.std, norm.std)
    with pytest.raises(DataError, match="incompatible"):
        norm.apply(np.zeros((3, 5)))
    with pytest.raises(DataError, match="at least 2 rows"):
        fit_normalizer(np.zeros((1, 2)))


# -- CSV round-trips ------------------------------------------------------------------------

def test_dataset_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(10)
    ds = LabeledDataset(rng.standard_normal((25, 3)),
                        rng.integers(0, 4, size=25))
    path = str(tmp_path / "ds.csv")
    save_dataset_csv(ds, path)
    back = load_dataset_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_dataset_csv_save_is_byte_deterministic(tmp_path):
    ds = _inliers(15)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    save_dataset_csv(ds, p1)
    save_dataset_csv(ds, p2)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_dataset_csv_header_and_row_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("f_1,label\n1,1\n")
    with pytest.raises(DataError, match="header"):
        load_dataset_csv(str(bad))
    bad.write_text("label,f_1,f_3\n1,1,1\n")
    with pytest.raises(DataError, match="malformed feature columns"):
        load_dataset_csv(str(bad))
    bad.write_text("label,f_1\n1,1,9\n")
    with pytest.raises(DataError, match="expected 2 fields"):
        load_dataset_csv(str(bad))
    bad.write_text("label,f_1\nx,1\n")
    with pytest.raises(DataError, match=":2:"):
        load_dataset_csv(str(bad))


def test_dataset_csv_header_only_loads_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("label,f_1,f_2\n")
    ds = load_dataset_csv(str(path))
    assert ds.n == 0 and ds.dim == 2


# -- .npy round-trips -------------------------------------------------------------------------

def _npy_pairs():
    """(features, labels) of any row count, 0 included: finite float64s
    (-0.0 and subnormals among them) and non-negative int64 labels."""
    return st.tuples(st.integers(0, 24), st.integers(1, 5)).flatmap(lambda shape: st.tuples(
        arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)),
        arrays(np.int64, shape[0], elements=st.integers(0, 2 ** 63 - 1))))


@given(_npy_pairs())
@example((np.empty((0, 3)), np.empty(0, dtype=np.int64)))
@example((np.array([[-0.0, 5e-324], [2.2250738585072014e-308, -1e-320]]),
          np.array([0, 2 ** 63 - 1])))
def test_dataset_npy_roundtrip_is_bit_exact(pair):
    features, labels = pair
    with tempfile.TemporaryDirectory() as tmp:
        stem = f"{tmp}/split"
        save_dataset_npy(LabeledDataset(features, labels), stem)
        back = load_dataset_npy(stem)
    assert back.features.dtype == np.float64 and back.labels.dtype == np.int64
    assert back.features.shape == features.shape
    assert back.features.tobytes() == features.tobytes()
    assert back.labels.tobytes() == labels.tobytes()


@given(arrays(np.int64, st.integers(0, 60), elements=st.integers(-3, 12))
       | arrays(np.int64, st.tuples(st.integers(0, 6), st.integers(0, 6)),
                elements=st.integers(-(2 ** 63), 2 ** 63 - 1)))
def test_sorted_labels_equal_np_unique(labels):
    got = sorted_labels(labels)
    want = np.unique(labels)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
