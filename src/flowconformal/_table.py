"""The CSV table codec behind every artifact table (test arms, pools,
predictions, histograms, the comparison), and the JSON writer behind the
models, normalizer, traces and reports. The class-row data files are not
tables: ``datasets`` writes them as ``.npy``, so no stage parses their text.

A table is one header line of comma-separated column names, then one line
per row. The header is a fixed run of names, optionally followed by at least
one ``<prefix><int>`` column (``f_1``, ``pi_3``, ``p_2``, ``in_4``) holding
floats, no number twice. Floats are written with 17 significant digits
(``FLOAT``), so a float64 survives a write/read round trip exactly. A
prediction table (``write_matrix``/``read_matrix``) is a ``sample_id``
column holding 0..n-1 in order, then one ``<prefix><label>`` column per
class of an (n, L) matrix.

JSON artifacts (models, normalizer, traces, reports) are written by
``write_json`` in the standard library's compact form; ``read_json`` reads
the ones a later stage loads (models, normalizer) and names the file when
one is not an object with the expected keys. A float is written as
its ``repr``, the shortest text that reads back to the same float64, so JSON
floats round-trip exactly too. That text is not ``%.17g``'s: ``0.9413333333333334``
where a table holds ``0.94133333333333336``, and ``1.0`` keeps its ``.0``.

Writing formats ``_CHUNK`` rows at a time and writes each chunk's lines
before it formats the next, so memory stays near one chunk's text, not the
table's. When at least a third of a sample of the chunk's float values
repeats an earlier one (``_repeats``; 8-bit image pixels, p-values that take
at most n+1 values), each distinct bit pattern of the chunk is formatted once
with its column's format and the rows are joined from those strings. Keying
on the bit pattern keeps ``-0.0`` apart from ``0.0``, and a value formats to
the same text wherever it stands, so the bytes are those of formatting every
value. Other chunks format each row with one ``%``: Gaussian floats never
repeat, and where most floats differ the memo costs more than it saves.

Reading parses a block of about ``_BLOCK_FIELDS`` fields at a time: the
block's stripped, non-blank lines are joined and split once, each int or
float column is converted with one ``map`` into an array, and the prefixed
columns with one ``map(float)``. When at least a third of a sample of a
block's float fields repeats, ``float`` runs once per distinct field text of
the block, through a memo; a text always parses to the same value, so the
arrays are unchanged. Memory stays near the text of one block plus twice the
output arrays (the blocks, then their concatenation); parsing the whole file
at once would hold every field of it as a Python string. Blank lines are
skipped. A block that fails any check is rescanned line by line, so the
DataError names the file and the line of the first row with the wrong field
count, a field that does not parse, or an int outside int64.
"""

from __future__ import annotations

import json
from itertools import islice, repeat

import numpy as np

from .errors import DataError

FLOAT = "%.17g"
_CHUNK = 256  # rows turned into Python objects at a time, so memory stays near the text size
_BLOCK_FIELDS = 16384  # fields parsed at a time by read_table
_SAMPLE = 256  # values of a block that _repeats looks at


def write_table(path: str, header, columns, formats) -> None:
    """Write ``header`` and one line per row of the equal-length ``columns``.

    ``formats`` holds one printf-style format per column; each chunk's lines
    are written as soon as they are formatted.
    """
    columns = [np.asarray(col) for col in columns]
    fmt = ",".join(formats)
    floats = [j for j, col in enumerate(columns) if col.dtype == np.float64]
    stride = max(1, _CHUNK * len(floats) // _SAMPLE)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]) if columns else 0, _CHUNK):
            if floats and _repeats(np.concatenate([columns[j][start:start + _CHUNK:stride]
                                                   for j in floats]).view(np.int64).tolist()):
                lines = _memo_lines([col[start:start + _CHUNK] for col in columns],
                                    formats, floats)
            else:
                lines = map(fmt.__mod__, zip(*(col[start:start + _CHUNK].tolist()
                                              for col in columns)))
            fh.write("\n".join(lines) + "\n")


def write_json(path: str, doc) -> None:
    """Write ``doc`` as one line of compact JSON; a NaN or infinity raises ValueError."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n")


def read_json(path: str, keys) -> dict:
    """The JSON object in ``path``, which must hold every key of ``keys``;
    anything else raises a DataError naming the file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise DataError(f"{path}: missing key {missing[0]!r}")
    return doc


def write_matrix(path: str, prefix: str, labels, matrix: np.ndarray, fmt: str) -> None:
    """Write the (n, L) ``matrix`` as a prediction table: ``sample_id`` 0..n-1,
    then column j as ``<prefix><labels[j]>``, each field formatted with ``fmt``."""
    labels = [int(v) for v in labels]
    if matrix.ndim != 2 or matrix.shape[1] != len(labels):
        raise DataError(f"{path}: matrix shape {matrix.shape} != (n, {len(labels)})")
    write_table(path, ["sample_id", *(f"{prefix}{v}" for v in labels)],
                [np.arange(matrix.shape[0]), *matrix.T], ["%d"] + [fmt] * len(labels))


def read_matrix(path: str, prefix: str):
    """Read a prediction table; returns (labels, (n, L) float matrix).

    The ``sample_id`` column must hold 0..n-1 in order; the DataError of a
    bad id names the file and the first data row that breaks it.
    """
    labels, (ids, matrix) = read_table(path, ("sample_id",), (int,), prefix=prefix)
    bad = np.flatnonzero(ids != np.arange(ids.size))
    if bad.size:
        i = int(bad[0])
        raise DataError(f"{path}: data row {i + 1} has sample_id {ids[i]}; expected {i}")
    return labels, matrix


def _repeats(sample: list) -> bool:
    """Whether at least a third of ``sample`` repeats an earlier value."""
    return len(set(sample)) * 3 <= len(sample) * 2


def _memo_lines(chunk, formats, floats):
    """The lines of the equal-length columns ``chunk``; the float columns
    ``floats`` format each distinct bit pattern once per format."""
    cells = np.empty((len(chunk[0]), len(chunk)), dtype=object)
    for j, (col, form) in enumerate(zip(chunk, formats)):
        if j not in floats:
            cells[:, j] = np.array(list(map(form.__mod__, col.tolist())), dtype=object)
    for form in {formats[j] for j in floats}:
        js = [j for j in floats if formats[j] == form]
        bits = np.stack([chunk[j] for j in js], axis=1).view(np.int64)
        distinct, inverse = np.unique(bits.ravel(), return_inverse=True)
        text = np.array(list(map(form.__mod__, distinct.view(np.float64).tolist())), dtype=object)
        cells[:, js] = text[inverse.reshape(bits.shape)]
    return map(",".join, cells.tolist())


def read_table(path: str, names, parsers, prefix: str | None = None):
    """Read the table at ``path``; returns (prefixed column ints, columns).

    The header must be ``names``, followed with ``prefix`` by at least one
    ``<prefix><int>`` column, no number twice. ``parsers`` (int or float)
    convert the fields of the named columns into arrays; with ``prefix`` a
    last (rows, prefixed columns) float array follows.
    """
    k = len(names)
    with open(path) as fh:
        header = fh.readline().strip()
        fields = header.split(",")
        if fields[:k] != list(names) or (prefix is None and len(fields) != k):
            want = ",".join(names) + (f",{prefix}*" if prefix else "")
            raise DataError(f"{path}: expected header '{want}', got {header!r}")
        keys = []
        for col in fields[k:]:
            try:
                if not col.startswith(prefix):
                    raise ValueError(col)
                keys.append(int(col[len(prefix):]))
            except ValueError:
                raise DataError(f"{path}: malformed column {col!r} in header {header!r}") from None
            if keys[-1] in keys[:-1]:
                raise DataError(f"{path}: repeated column {col!r} in header {header!r}")
        if prefix is not None and not keys:
            raise DataError(f"{path}: header {header!r} has no {prefix}<int> column")
        n = len(fields)
        # an empty block first, so every column concatenates to the right dtype and shape
        blocks = [[col] for col in _parse_block([], n, parsers, bool(keys))]
        ln = 2
        while lines := list(islice(fh, max(1, _BLOCK_FIELDS // n))):
            try:
                cols = _parse_block(lines, n, parsers, bool(keys))
            except (ValueError, OverflowError):
                _rescan(path, ln, lines, n, parsers)
                raise  # the line loop accepts what the block parse rejected: a reader bug
            for acc, col in zip(blocks, cols):
                acc.append(col)
            ln += len(lines)
    return tuple(keys), list(map(np.concatenate, blocks))


def _parse_block(lines, n, parsers, prefixed):
    """The columns of one block of lines, then with ``prefixed`` its
    (rows, n - len(parsers)) float array; ValueError or OverflowError on any
    bad line, left for ``_rescan`` to name."""
    rows = list(filter(None, map(str.strip, lines)))
    if not set(map(str.count, rows, repeat(","))) <= {n - 1}:
        raise ValueError("field count")
    parts = ",".join(rows).split(",") if rows else []
    cols = []
    for j, parse in enumerate(parsers):
        col = parts[j::n]
        cols.append(_floats(col) if parse is float
                    else np.fromiter(map(int, col), np.int64, len(col)))
    if prefixed:
        # drop the named columns in place; the prefixed fields are left row by row
        for j in range(len(parsers)):
            del parts[::n - j]
        cols.append(_floats(parts).reshape(len(rows), n - len(parsers)))
    return cols


def _floats(fields: list) -> np.ndarray:
    """``float`` of each field; once per distinct field when a sample repeats."""
    parse = float
    if _repeats(fields[::max(1, len(fields) // _SAMPLE)]):
        parse = {field: float(field) for field in set(fields)}.__getitem__
    return np.fromiter(map(parse, fields), np.float64, len(fields))


def _rescan(path, ln, lines, n, parsers) -> None:
    """Parse ``lines``, which start at file line ``ln``, one at a time, and
    raise the DataError of the first bad one."""
    for ln, line in enumerate(lines, start=ln):
        parts = line.strip().split(",")
        if parts == [""]:
            continue
        if len(parts) != n:
            raise DataError(f"{path}:{ln}: expected {n} fields, got {len(parts)}")
        try:
            row = [parse(field) for parse, field in zip(parsers, parts)]
            list(map(float, parts[len(parsers):]))
        except ValueError as exc:
            raise DataError(f"{path}:{ln}: {exc}") from None
        for value, parse, field in zip(row, parsers, parts):
            if parse is int and not -2**63 <= value < 2**63:
                raise DataError(f"{path}:{ln}: int field {field.strip()!r} is outside int64")
