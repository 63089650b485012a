"""The CSV table codec as it was before ``_table`` read a block at a time
and formatted each distinct float once, kept verbatim as the oracle of the
differential tests.

``write_table`` formats every value of every row. ``read_table`` reads a line
at a time; it returns the same values and raises the same path:line
DataErrors as the block reader, except that an int field outside int64
escapes here as a bare OverflowError from the final array conversion.
"""

from __future__ import annotations

import numpy as np

from flowconformal.errors import DataError

_CHUNK = 256  # rows turned into Python objects at a time, so memory stays near the text size


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
        fixed, block = [], []
        for ln, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) != len(fields):
                raise DataError(f"{path}:{ln}: expected {len(fields)} fields, got {len(parts)}")
            try:
                fixed.append([parse(field) for parse, field in zip(parsers, parts)])
                block.append(list(map(float, parts[k:])))
            except ValueError as exc:
                raise DataError(f"{path}:{ln}: {exc}") from None
    cols = [list(col) for col in zip(*fixed)] if fixed else [[] for _ in parsers]
    out = [np.asarray(col, dtype={int: np.int64, float: np.float64}[parse])
           if parse in (int, float) else col for col, parse in zip(cols, parsers)]
    if keys:
        out.append(np.asarray(block, dtype=np.float64).reshape(len(block), len(keys)))
    return tuple(keys), out
