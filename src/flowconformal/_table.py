"""The CSV table codec behind every artifact file.

A table is one header line of comma-separated column names, then one line
per row. The header is a fixed run of names, optionally followed by at least
one ``<prefix><int>`` column (``f_1``, ``pi_3``, ``p_2``) holding floats.
Floats are written with 17 significant digits (``FLOAT``), so a float64
survives a write/read round trip exactly.

Reading parses a block of about ``_BLOCK_FIELDS`` fields at a time: the
block's stripped, non-blank lines are joined and split once, each int or
float column is converted with one ``map`` into an array, and the prefixed
columns with one ``map(float)``. Any other parser (a str -> value function
such as the set-token check) runs once per distinct field value, memoised
across blocks. Memory stays near the text of one block plus twice the
output arrays (the blocks, then their concatenation); parsing the whole file
at once would hold every field of it as a Python string. Blank lines are
skipped. A block that fails any check is rescanned line by line, so the
DataError names the file and the line of the first row with the wrong field
count, a field that does not parse, or an int outside int64.
"""

from __future__ import annotations

from itertools import chain, islice, repeat

import numpy as np

from .errors import DataError

FLOAT = "%.17g"
_CHUNK = 256  # rows turned into Python objects at a time, so memory stays near the text size
_BLOCK_FIELDS = 16384  # fields parsed at a time by read_table
_DTYPES = {int: np.int64, float: np.float64}


def write_table(path: str, header, columns, formats) -> None:
    """Write ``header`` and one line per row of the equal-length ``columns``.

    ``formats`` holds one printf-style format per column; the file is written
    in one buffered call.
    """
    columns = [np.asarray(col) for col in columns]
    fmt = ",".join(formats)
    lines = [",".join(header)]
    for start in range(0, len(columns[0]) if columns else 0, _CHUNK):
        rows = zip(*(col[start:start + _CHUNK].tolist() for col in columns))
        lines.extend(map(fmt.__mod__, rows))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path: str, names, parsers, prefix: str | None = None):
    """Read the table at ``path``; returns (prefixed column ints, columns).

    The header must be ``names``, followed with ``prefix`` by at least one
    ``<prefix><int>`` column. ``parsers`` convert the fields of the named
    columns (int, float, or any str -> value function that raises ValueError).
    Int and float columns come back as arrays, others as lists; with
    ``prefix`` a last (rows, prefixed columns) float array follows.
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
        if prefix is not None and not keys:
            raise DataError(f"{path}: header {header!r} has no {prefix}<int> column")
        n = len(fields)
        memos = [{} for _ in parsers]
        # an empty block first, so every column concatenates to the right dtype and shape
        blocks = [[col] for col in _parse_block([], n, parsers, memos, bool(keys))]
        ln = 2
        while lines := list(islice(fh, max(1, _BLOCK_FIELDS // n))):
            try:
                cols = _parse_block(lines, n, parsers, memos, bool(keys))
            except (ValueError, OverflowError):
                _rescan(path, ln, lines, n, parsers)
                raise  # the line loop accepts what the block parse rejected: a reader bug
            for acc, col in zip(blocks, cols):
                acc.append(col)
            ln += len(lines)
    out = [np.concatenate(col) if parse in _DTYPES else list(chain.from_iterable(col))
           for col, parse in zip(blocks, parsers)]
    if keys:
        out.append(np.concatenate(blocks[-1]))
    return tuple(keys), out


def _parse_block(lines, n, parsers, memos, prefixed):
    """The columns of one block of lines, then with ``prefixed`` its
    (rows, n - len(parsers)) float array; ValueError or OverflowError on any
    bad line, left for ``_rescan`` to name."""
    rows = list(filter(None, map(str.strip, lines)))
    if not set(map(str.count, rows, repeat(","))) <= {n - 1}:
        raise ValueError("field count")
    parts = ",".join(rows).split(",") if rows else []
    cols = []
    for j, (parse, memo) in enumerate(zip(parsers, memos)):
        col = parts[j::n]
        if parse in _DTYPES:
            cols.append(np.fromiter(map(parse, col), _DTYPES[parse], len(col)))
        else:
            for token in set(col).difference(memo):
                memo[token] = parse(token)
            cols.append(list(map(memo.__getitem__, col)))
    if prefixed:
        # drop the named columns in place; the prefixed fields are left row by row
        for j in range(len(parsers)):
            del parts[::n - j]
        cols.append(np.fromiter(map(float, parts), np.float64, len(parts))
                    .reshape(len(rows), n - len(parsers)))
    return cols


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
