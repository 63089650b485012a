"""The CSV table codec behind every artifact table, and the JSON writer.

Oracles: literal expected text for each of the seven table kinds written from
fixed hand-made inputs (no trained weights or BLAS involved), exact
write/read round trips, path:line errors from every loader, the codec the
block reader and the memoising writer replaced (``table_oracle``), and
``json.load`` for ``write_json``.
"""

import functools
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import table_oracle
from flowconformal import _table
from flowconformal._table import FLOAT, read_matrix, read_table, write_json, write_table
from flowconformal.baselines import save_prob_matrix
from flowconformal.conformal import (
    ScorePool,
    load_p_values,
    load_pools,
    load_sets,
    save_p_values,
    save_pools,
    save_sets,
)
from flowconformal.datasets import LabeledDataset, load_dataset_csv, save_dataset_csv
from flowconformal.errors import DataError
from flowconformal.evaluation import EvalReport, emit_comparison, emit_histogram

COMPARISON = ("method", "rate", "coverage", "size_error_paper", "size_error_excess")
load_probs = functools.partial(read_matrix, prefix="p_")


# -- byte-exact writers ------------------------------------------------------------

def test_dataset_text(tmp_path):
    path = tmp_path / "d.csv"
    save_dataset_csv(LabeledDataset(np.array([[0.1, -2.0], [1.0 / 3.0, 1e-300]]),
                                    np.array([2, 0])), str(path))
    assert path.read_text() == ("label,f_1,f_2\n"
                                "2,0.10000000000000001,-2\n"
                                "0,0.33333333333333331,1e-300\n")


def test_pools_text(tmp_path):
    path = tmp_path / "p.csv"
    save_pools([ScorePool(1, np.array([2.5, 0.1])), ScorePool(3, np.array([7.0]))], str(path))
    assert path.read_text() == "class,score\n1,0.10000000000000001\n1,2.5\n3,7\n"


def test_p_values_text(tmp_path):
    path = tmp_path / "pv.csv"
    save_p_values(str(path), (1, 4), np.array([[1.0, 0.05], [1.0 / 3.0, 0.5]]))
    assert path.read_text() == ("sample_id,pi_1,pi_4\n"
                                "0,1,0.050000000000000003\n"
                                "1,0.33333333333333331,0.5\n")


def test_sets_text(tmp_path):
    path = tmp_path / "s.csv"
    member = np.array([[True, False, True], [False, False, False], [False, True, False]])
    save_sets(str(path), (1, 2, 5), member)
    assert path.read_text() == "sample_id,in_1,in_2,in_5\n0,1,0,1\n1,0,0,0\n2,0,1,0\n"


def test_sets_text_of_a_column_major_membership(tmp_path):
    member = np.asfortranarray(np.random.default_rng(2).random((40, 9)) < 0.3)
    save_sets(str(tmp_path / "f.csv"), range(1, 10), member)
    save_sets(str(tmp_path / "c.csv"), range(1, 10), np.ascontiguousarray(member))
    assert (tmp_path / "f.csv").read_text() == (tmp_path / "c.csv").read_text()
    assert load_sets(str(tmp_path / "f.csv"))[1].tolist() == member.tolist()


def test_probabilities_text(tmp_path):
    path = tmp_path / "pr.csv"
    save_prob_matrix(str(path), (1, 2), np.array([[0.25, 0.75], [0.1, 0.9]]))
    assert path.read_text() == ("sample_id,p_1,p_2\n"
                                "0,0.25,0.75\n"
                                "1,0.10000000000000001,0.90000000000000002\n")


def test_histogram_text(tmp_path):
    path = tmp_path / "h.csv"
    emit_histogram([0.1, 0.2, 0.9, 1.0], str(path), bins=3)
    assert path.read_text() == ("bin_left,bin_right,count\n"
                                "0,0.33333333333333331,2\n"
                                "0.33333333333333331,0.66666666666666663,0\n"
                                "0.66666666666666663,1,2\n")


def test_comparison_text(tmp_path):
    path = tmp_path / "c.csv"
    emit_comparison([("flow", 0.0, EvalReport(0.95, 1.0 / 3.0, -0.25)),
                     ("aps", 0.05, EvalReport(1.0, 2.6000004, 1.6))], str(path))
    assert path.read_text() == ("method,rate,coverage,size_error_paper,size_error_excess\n"
                                "flow,0,0.950000,0.333333,-0.250000\n"
                                "aps,0.05,1.000000,2.600000,1.600000\n")


def test_tables_longer_than_one_write_chunk(tmp_path):
    path = tmp_path / "long.csv"
    matrix = np.random.default_rng(4).random((1000, 2))
    save_p_values(str(path), (1, 2), matrix)
    assert len(path.read_text().splitlines()) == 1001
    _, back = load_p_values(str(path))
    assert np.array_equal(back, matrix)


def test_header_only_tables(tmp_path):
    path = tmp_path / "e.csv"
    save_p_values(str(path), (1, 2), np.zeros((0, 2)))
    assert path.read_text() == "sample_id,pi_1,pi_2\n"
    labels, matrix = load_p_values(str(path))
    assert labels == (1, 2) and matrix.shape == (0, 2)


# -- loader errors --------------------------------------------------------------------

LOADERS = {
    "dataset": (load_dataset_csv, "label,f_1", "1,0.5"),
    "pools": (load_pools, "class,score", "1,0.5"),
    "p_values": (load_p_values, "sample_id,pi_1", "0,0.5"),
    "sets": (load_sets, "sample_id,in_1", "0,1"),
    "probabilities": (load_probs, "sample_id,p_1", "0,1.0"),
}
# the first field of every table is an int, the second a float
BAD_ROWS = {
    "bad_int": lambda good: "x," + good.split(",")[1],
    "bad_float": lambda good: good.split(",")[0] + ",abc",
    "field_count": lambda good: good + ",7",
    "big_int": lambda good: "99999999999999999999," + good.split(",")[1],
}


@pytest.mark.parametrize("bad", sorted(BAD_ROWS))
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_loaders_name_path_and_line(tmp_path, kind, bad):
    load, header, good = LOADERS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(f"{header}\n{BAD_ROWS[bad](good)}\n{good}\n")
    with pytest.raises(DataError, match=f"{kind}.csv:2:"):
        load(str(path))
    path.write_text(f"{header}\n\n{good}\n\n")
    load(str(path))  # blank lines are skipped


@pytest.mark.parametrize("rows, line", [
    (["x,0.5", "1,abc"], 2),
    (["1,abc", "x,0.5"], 2),
    (["x,0.5", "1,0.5,9"], 2),
    (["1,0.5", "1,abc", "x,1"], 3),
    (["1,0.5", "2,0.5", "x,1"], 4),
    (["1,0.5", "", "x,1"], 4),
])
def test_loaders_name_the_first_bad_line(tmp_path, rows, line):
    path = tmp_path / "d.csv"
    path.write_text("label,f_1\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError, match=f"d.csv:{line}:"):
        load_dataset_csv(str(path))


def test_header_errors_name_the_column(tmp_path):
    path = tmp_path / "pv.csv"
    path.write_text("sample_id,pi_1,pi_x\n0,0.5,0.5\n")
    with pytest.raises(DataError, match="malformed column 'pi_x' in header"):
        load_p_values(str(path))
    path.write_text("sample_id\n0\n")
    with pytest.raises(DataError, match="no pi_<int> column"):
        load_p_values(str(path))
    path.write_text("")
    with pytest.raises(DataError, match="expected header 'sample_id,pi_\\*'"):
        load_p_values(str(path))


@pytest.mark.parametrize("token", ["", "1|1", "1|x", "2", "0.5", "nan", "-1"])
def test_sets_reject_malformed_tokens(tmp_path, token):
    # a field that is no float names its line; a float other than 0 or 1
    # names its sample and column
    path = tmp_path / "s.csv"
    path.write_text(f"sample_id,in_3,in_5\n0,1,0\n1,0,{token}\n")
    with pytest.raises(DataError, match="s.csv:3: " if token in ("", "1|1", "1|x") else
                       f"s.csv: sample 1 holds {token} in column in_5; expected 0 or 1"):
        load_sets(str(path))


@pytest.mark.parametrize("load, header, row", [
    (load_p_values, "sample_id,pi_2,pi_1,pi_2", "0,0.5,0.5,0.5"),
    (load_probs, "sample_id,p_2,p_02", "0,0.5,0.5"),
    (load_sets, "sample_id,in_1,in_2,in_2", "0,1,0,1"),
], ids=["p_values", "probabilities", "sets"])
def test_loaders_reject_a_repeated_column(tmp_path, load, header, row):
    path = tmp_path / "t.csv"
    path.write_text(f"{header}\n{row}\n")
    repeated = header.split(",")[-1]
    with pytest.raises(DataError, match=f"t.csv: repeated column '{repeated}' in header"):
        load(str(path))


@pytest.mark.parametrize("ids, row", [("1,0", 1), ("0,1,1", 3), ("0,2,1", 2), ("-1", 1)])
@pytest.mark.parametrize("load, header, fields", [
    (load_p_values, "sample_id,pi_1,pi_2", "0.5,0.25"),
    (load_probs, "sample_id,p_1,p_2", "0.5,0.5"),
    (load_sets, "sample_id,in_1,in_2", "1,0"),
], ids=["p_values", "probabilities", "sets"])
def test_prediction_loaders_name_the_first_bad_sample_id(tmp_path, load, header, fields,
                                                         ids, row):
    # a prediction table's ids are its row numbers 0..n-1, in order
    ids = [int(v) for v in ids.split(",")]
    path = tmp_path / "t.csv"
    path.write_text(header + "\n" + "".join(f"{i},{fields}\n" for i in ids))
    with pytest.raises(DataError, match=f"t.csv: data row {row} has sample_id "
                                        f"{ids[row - 1]}; expected {row - 1}$"):
        load(str(path))


# -- exact round trips -------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
shapes = st.tuples(st.integers(0, 12), st.integers(1, 5))


@given(arrays(np.float64, shapes, elements=finite), st.data())
def test_dataset_round_trip(tmp_path_factory, features, data):
    labels = data.draw(arrays(np.int64, features.shape[0], elements=st.integers(0, 99)))
    path = str(tmp_path_factory.mktemp("rt") / "d.csv")
    save_dataset_csv(LabeledDataset(features, labels), path)
    back = load_dataset_csv(path)
    assert back.features.tobytes() == features.tobytes()
    assert np.array_equal(back.labels, labels)


@given(st.dictionaries(st.integers(1, 50),
                       arrays(np.float64, st.integers(1, 8), elements=st.floats(0, 1e300)),
                       min_size=1, max_size=4))
def test_pools_round_trip(tmp_path_factory, by_class):
    pools = [ScorePool(label, scores) for label, scores in sorted(by_class.items())]
    path = str(tmp_path_factory.mktemp("rt") / "p.csv")
    save_pools(pools, path)
    back = load_pools(path)
    assert [p.class_label for p in back] == [p.class_label for p in pools]
    assert all(a.scores.tobytes() == b.scores.tobytes() for a, b in zip(pools, back))


@given(arrays(np.float64, shapes, elements=st.floats(0, 1)), st.data())
def test_p_values_round_trip(tmp_path_factory, matrix, data):
    labels = tuple(data.draw(st.lists(st.integers(1, 99), min_size=matrix.shape[1],
                                      max_size=matrix.shape[1], unique=True)))
    path = str(tmp_path_factory.mktemp("rt") / "pv.csv")
    save_p_values(path, labels, matrix)
    back_labels, back = load_p_values(path)
    assert back_labels == labels
    assert back.tobytes() == matrix.tobytes()


@given(arrays(np.bool_, shapes), st.data())
def test_sets_round_trip(tmp_path_factory, member, data):
    labels = data.draw(st.lists(st.integers(1, 99), min_size=member.shape[1],
                                max_size=member.shape[1], unique=True))
    path = str(tmp_path_factory.mktemp("rt") / "s.csv")
    save_sets(path, labels, member)
    named, back = load_sets(path)
    # every class comes back in header order, all-zero columns included
    assert named == tuple(labels)
    assert back.dtype == bool and np.array_equal(back, member)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0, -1.0, 1e21]
JSON_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False,
                                                               allow_infinity=False))
JSON_DOCS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), st.text(), JSON_FLOATS),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(max_size=5), inner, max_size=5)),
    max_leaves=30)


def _same_json(got, want):
    """Whether ``got`` equals ``want`` value for value, every float bit for
    bit (so ``-0.0`` stays apart from ``0.0``), and every type kept."""
    if type(got) is not type(want):
        return False
    if isinstance(want, float):
        return math.copysign(1.0, got) == math.copysign(1.0, want) and got == want
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same_json, got, want))
    if isinstance(want, dict):
        return list(got) == list(want) and all(_same_json(got[k], want[k]) for k in want)
    return got == want


@given(JSON_DOCS)
def test_write_json_round_trips_every_float_bit_for_bit(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("rt") / "doc.json"
    write_json(str(path), doc)
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    with open(path) as fh:
        assert _same_json(json.load(fh), doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_json_rejects_non_finite_floats(tmp_path, bad):
    for doc in (bad, [1.0, bad], {"a": {"b": [bad]}}):
        with pytest.raises(ValueError):
            write_json(str(tmp_path / "doc.json"), doc)


@given(arrays(np.float64, shapes, elements=st.floats(0.01, 10.0)))
def test_probabilities_round_trip(tmp_path_factory, raw):
    probs = raw / raw.sum(axis=1, keepdims=True)
    path = str(tmp_path_factory.mktemp("rt") / "pr.csv")
    save_prob_matrix(path, range(1, probs.shape[1] + 1), probs)
    labels, back = load_probs(path)
    assert labels == tuple(range(1, probs.shape[1] + 1))
    assert back.tobytes() == probs.tobytes()


@given(st.lists(st.floats(0.0, 1.0), max_size=30), st.integers(1, 12))
def test_histogram_round_trip(tmp_path_factory, p_values, bins):
    path = tmp_path_factory.mktemp("rt") / "h.csv"
    emit_histogram(p_values, str(path), bins=bins)
    _, (left, right, counts) = read_table(str(path), ("bin_left", "bin_right", "count"),
                                          (float, float, int))
    edges = np.linspace(0.0, 1.0, bins + 1)
    assert left.tobytes() == edges[:-1].tobytes() and right.tobytes() == edges[1:].tobytes()
    assert counts.sum() == len(p_values)


@given(st.lists(st.tuples(st.sampled_from(["flow", "scaling", "aps"]),
                          st.floats(0.0, 0.99), st.floats(-10.0, 10.0)), max_size=6))
def test_comparison_round_trip(tmp_path_factory, rows):
    first = tmp_path_factory.mktemp("rt") / "c.csv"
    emit_comparison([(m, r, EvalReport(v, v, v)) for m, r, v in rows], str(first))
    header, *lines = first.read_text().splitlines()
    assert header == ",".join(COMPARISON)
    again = first.with_name("again.csv")
    emit_comparison([(m, float(r), EvalReport(float(c), float(p), float(e)))
                     for m, r, c, p, e in map(lambda line: line.split(","), lines)], str(again))
    assert again.read_text() == first.read_text()


# -- the block reader against the line-at-a-time oracle ----------------------------------

INT64_MAX = str(2**63 - 1)
GOOD_INTS = st.one_of(st.integers(-10**6, 10**6).map(str),
                      st.sampled_from([INT64_MAX, "-" + INT64_MAX, str(-2**63),
                                       " 7 ", "+3", "1_000"]))
BAD_INTS = st.sampled_from(["x", "", "1.5", "99999999999999999999", "-99999999999999999999",
                            str(2**63), "nan"])
GOOD_FLOATS = st.one_of(st.floats().map(repr), st.floats(allow_nan=False).map("%.17g".__mod__),
                        st.sampled_from(["nan", "-inf", "1e999", " 2.5 ", "\t-0\x0b", "7"]))
BAD_FLOATS = st.sampled_from(["", "abc", "1e", "0x1p3", "1..2", "99999999999999999999x"])

# read_table's (names, parsers, prefix) per table kind; the fields (good, bad) per parser
TABLES = {
    "dataset": (("label",), (int,), "f_"),
    "pools": (("class", "score"), (int, float), None),
    "sets": (("sample_id",), (int,), "in_"),
}
FIELDS = {int: (GOOD_INTS, BAD_INTS), float: (GOOD_FLOATS, BAD_FLOATS)}


def _outcome(read, path, spec):
    """What ``read`` makes of ``path``: (keys, columns), a DataError message,
    or OverflowError."""
    try:
        return read(path, *spec)
    except DataError as exc:
        return str(exc)
    except OverflowError:
        return OverflowError


def _assert_same(got, want):
    assert got[0] == want[0] and len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _line_of(message):
    found = re.search(r"\.csv:(\d+): ", message)
    return int(found.group(1)) if found else None


def _assert_matches_oracle(path):
    """The block reader reads the table ``path`` of kind ``path.stem`` as the
    line-at-a-time oracle does, or fails with the same message."""
    spec = TABLES[path.stem]
    want = _outcome(table_oracle.read_table, str(path), spec)
    got = _outcome(read_table, str(path), spec)
    if isinstance(got, str) and "outside int64" in got:
        # the oracle meets an oversized int only when it converts every row
        # at the end: a bare OverflowError, or a DataError of a later line
        line = _line_of(got)
        assert want is OverflowError or _line_of(want) > line, (got, want)
        text = path.read_text().split("\n")[line - 1]
        assert re.search(r"int field '(.*)' is outside", got).group(1) in text
    elif isinstance(want, tuple):
        assert isinstance(got, tuple), got
        _assert_same(got, want)
    else:
        assert got == want


@st.composite
def tables(draw):
    """(kind, text) of a table with mostly good rows, some bad fields and
    lines of the wrong width, blank lines, CRLF ends and padded fields; in
    about half of them the good floats come from a pool of at most six."""
    kind = draw(st.sampled_from(sorted(TABLES)))
    names, parsers, prefix = TABLES[kind]
    fields = dict(FIELDS)
    pool = draw(st.one_of(st.none(), st.lists(GOOD_FLOATS, min_size=1, max_size=6)))
    if pool:  # low-cardinality floats, so the reader's float memo runs
        fields[float] = (st.sampled_from(pool), BAD_FLOATS)
    width = draw(st.sampled_from([1, 2, 3, 64])) if prefix else 0
    header = ",".join([*names, *(f"{prefix}{j + 1}" for j in range(width))])
    columns = [*parsers, *[float] * width]
    bad_share = draw(st.sampled_from([0.0, 0.0, 0.02, 0.2]))
    lines = []
    for _ in range(draw(st.integers(0, 40 if width < 64 else 6))):
        if draw(st.floats(0, 1)) < 0.1:
            lines.append(draw(st.sampled_from(["", " ", "\t", "  \x0b"])))
            continue
        row = [draw(fields[parse][draw(st.floats(0, 1)) < bad_share]) for parse in columns]
        if draw(st.floats(0, 1)) < bad_share / 4:
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        lines.append(",".join(row))
    if lines and draw(st.integers(0, 3)) == 0:  # an oversized first int on one line
        i = draw(st.integers(0, len(lines) - 1))
        if "," in lines[i]:
            big = draw(st.sampled_from(["99999999999999999999", str(2**63), str(-2**63 - 1)]))
            lines[i] = big + lines[i][lines[i].index(","):]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join([header, *lines]) + draw(st.sampled_from([end, ""]))
    return kind, text


@settings(max_examples=300)
@given(tables(), st.sampled_from([1, 5, 16, 130, _table._BLOCK_FIELDS]))
def test_block_reader_matches_the_line_oracle(tmp_path_factory, table, block_fields):
    kind, text = table
    path = tmp_path_factory.mktemp("diff") / f"{kind}.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(_table, "_BLOCK_FIELDS", block_fields):
        _assert_matches_oracle(path)


def _long_table(tmp_path, kind, rows, bad_line=None, bad=None):
    """A ``kind`` table of ``rows`` good rows with a blank line every 1000
    lines; with ``bad_line`` the row on that file line becomes ``bad``."""
    names, parsers, prefix = TABLES[kind]
    header = ",".join([*names, f"{prefix}1"]) if prefix else ",".join(names)
    good = {"dataset": "3,0.25", "sets": "0,1"}[kind]
    lines = [header] + ["" if i % 1000 == 999 else good for i in range(rows)]
    if bad_line is not None:
        lines[bad_line - 1] = bad
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("kind, bad, message", [
    ("dataset", "3,abc", "could not convert string to float: 'abc'"),
    ("dataset", "3,0.25,1", "expected 2 fields, got 3"),
    ("dataset", "99999999999999999999,0.25", "int field '99999999999999999999' is outside int64"),
    ("sets", "5,1|1", "could not convert string to float: '1|1'"),
])
def test_bad_line_in_a_later_block_is_named(tmp_path, kind, bad, message):
    rows = 3 * _table._BLOCK_FIELDS // 2  # the default reads 8192 lines a block here
    path = _long_table(tmp_path, kind, rows, bad_line=rows - 5, bad=bad)
    with pytest.raises(DataError) as exc:
        read_table(str(path), *TABLES[kind])
    assert str(exc.value) == f"{path}:{rows - 5}: {message}"
    _assert_matches_oracle(path)


@pytest.mark.parametrize("kind", ["dataset", "sets"])
def test_tables_longer_than_one_read_block(tmp_path, kind):
    path = _long_table(tmp_path, kind, 3 * _table._BLOCK_FIELDS // 2)
    _assert_matches_oracle(path)


@pytest.mark.parametrize("header", ["label,f_1", "class,score"])
@pytest.mark.parametrize("end", ["\n", "\r\n", ""])
def test_header_only_and_blank_tables_match_the_oracle(tmp_path, header, end):
    kind = "dataset" if header.startswith("label") else "pools"
    for body in ("", end + end + " " + end):
        path = tmp_path / f"{kind}.csv"
        path.write_bytes((header + end + body).encode())
        _assert_matches_oracle(path)


def _traced_peak(read, path):
    tracemalloc.start()
    try:
        read(path, ("label",), (int,), "f_")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_reader_memory_stays_below_the_line_oracle(tmp_path):
    """On a 4,320 x 64 dataset table the block reader peaks at under two
    thirds of the line loop (about 0.4 of it), so a reader that holds every
    field of the file at once would fail here."""
    rng = np.random.default_rng(0)
    path = str(tmp_path / "wide.csv")
    save_dataset_csv(LabeledDataset(rng.random((4320, 64)), rng.integers(1, 10, 4320)), path)
    oracle = _traced_peak(table_oracle.read_table, path)
    block = _traced_peak(read_table, path)
    assert block <= 2 / 3 * oracle, (block, oracle)


# -- the memoising writer against the format-every-value oracle ---------------------------

# small pools of floats whose text is easy to get wrong when values are shared
FLOAT_POOLS = {
    "pixels": np.arange(256) / 255.0,
    "signed_zeros": np.array([0.0, -0.0, 1.0, -1.0]),
    "subnormals": np.array([5e-324, -5e-324, 2.2250738585072014e-308 / 3, 0.0]),
    "last_bit": np.array([np.nextafter(0.1, 0.0), 0.1, np.nextafter(0.1, 1.0),
                          1.0 / 3.0, np.nextafter(1.0 / 3.0, 1.0)]),
    "specials": np.array([np.inf, -np.inf, np.nan, 1e308, -1e-300]),
}


def _float_column(rng, mode, n):
    """``n`` floats: drawn from one pool, all distinct, or any float64 bit pattern."""
    if mode in FLOAT_POOLS:
        return rng.choice(FLOAT_POOLS[mode], n)
    if mode == "distinct":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300)
    return rng.integers(-2**63, 2**63, n, dtype=np.int64, endpoint=False).view(np.float64)


def _layout(kind, rng, n, floats):
    """(header, columns, formats) of a ``kind`` table of ``n`` rows, its float
    columns from ``floats(width)``, as the module that writes it lays it out."""
    ids = np.arange(n)
    if kind in ("dataset", "p_values"):
        width = int(rng.choice([1, 2, 3, 9, 64]))
        prefix, first = ("f_", rng.integers(0, 10, n)) if kind == "dataset" else ("pi_", ids)
        return ([("label" if kind == "dataset" else "sample_id"),
                 *(f"{prefix}{j + 1}" for j in range(width))],
                [first, *floats(width)], ["%d"] + [FLOAT] * width)
    if kind == "pools":
        return ("class", "score"), [rng.integers(1, 4, n), *floats(1)], ("%d", FLOAT)
    if kind == "sets":
        width = int(rng.choice([1, 3, 9]))
        return (["sample_id", *(f"in_{j + 1}" for j in range(width))],
                [ids, *(rng.random((width, n)) < 0.5)], ["%d"] * (width + 1))
    if kind == "histogram":
        return ("bin_left", "bin_right", "count"), [*floats(2), rng.integers(0, 9, n)], \
            (FLOAT, FLOAT, "%d")
    methods = np.asarray(["flow", "scaling", "aps"])[rng.integers(0, 3, n)]
    return COMPARISON, [methods, *floats(4)], ("%s", "%g", "%.6f", "%.6f", "%.6f")


WRITE_KINDS = ("dataset", "p_values", "pools", "sets", "histogram", "comparison")
FLOAT_MODES = (*FLOAT_POOLS, "distinct", "bits")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(WRITE_KINDS),
       st.one_of(st.sampled_from([0, 1, 255, 256, 257]), st.integers(0, 700)),
       st.lists(st.sampled_from(FLOAT_MODES), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_writer_matches_the_format_every_value_oracle(tmp_path_factory, kind, n, modes, seed):
    """Same bytes as the oracle for every table layout, with float columns
    from small pools, all distinct or of any bit pattern, mixed by column."""
    rng = np.random.default_rng(seed)
    floats = lambda width: [_float_column(rng, modes[j % len(modes)], n) for j in range(width)]
    header, columns, formats = _layout(kind, rng, n, floats)
    tmp = tmp_path_factory.mktemp("write")
    write_table(str(tmp / "got.csv"), header, columns, formats)
    table_oracle.write_table(str(tmp / "want.csv"), header, columns, formats)
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()


def _pixels(rows=4320, width=64):
    """8-bit pixels k/255 around mid-grey, as the benchmark's IDX images."""
    rng = np.random.default_rng(0)
    levels = np.clip(np.rint(rng.normal(128.0, 25.0, (rows, width))), 0, 255)
    return LabeledDataset(levels / 255.0, rng.integers(1, 10, rows))


def test_memo_runs_on_repeated_floats_and_not_on_distinct_ones(tmp_path):
    """Pixel chunks take the memo and Gaussian chunks the every-value loop."""
    rng = np.random.default_rng(1)
    for ds, calls in ((_pixels(512, 8), 2),
                      (LabeledDataset(rng.standard_normal((600, 8)), np.ones(600, int)), 0)):
        with mock.patch.object(_table, "_memo_lines", wraps=_table._memo_lines) as memo:
            save_dataset_csv(ds, str(tmp_path / "d.csv"))
        assert memo.call_count == calls
        assert load_dataset_csv(str(tmp_path / "d.csv")).features.tobytes() == \
            ds.features.tobytes()


def _traced_write_peak(write, path, ds):
    columns = [ds.labels, *ds.features.T]
    tracemalloc.start()
    try:
        write(path, ["label", *(f"f_{j + 1}" for j in range(ds.dim))], columns,
              ["%d"] + [FLOAT] * ds.dim)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_does_not_grow_with_the_rows(tmp_path):
    """Each 256-row chunk's lines go to the file before the next chunk is
    formatted, so 40,000 float rows peak near 4,000 (the whole table's text
    is about 2.5 MB)."""
    rng = np.random.default_rng(6)
    peaks = [_traced_write_peak(write_table, str(tmp_path / f"{n}.csv"),
                                LabeledDataset(rng.standard_normal((n, 3)), np.ones(n, int)))
             for n in (4_000, 40_000)]
    assert peaks[1] <= peaks[0] + 64 * 1024, peaks


def test_writer_memory_stays_at_most_the_oracle(tmp_path):
    """On a 4,320 x 64 table of 8-bit pixels the memo path peaks no higher
    than formatting every value: it holds one 256-row chunk at a time."""
    ds = _pixels()
    oracle = _traced_write_peak(table_oracle.write_table, str(tmp_path / "a.csv"), ds)
    memo = _traced_write_peak(write_table, str(tmp_path / "b.csv"), ds)
    assert memo <= oracle, (memo, oracle)
