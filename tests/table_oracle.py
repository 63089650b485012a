"""The line-at-a-time CSV table reader that ``_table.read_table`` replaced,
kept verbatim as the oracle of the block reader's differential tests.

It returns the same values and raises the same path:line DataErrors, except
that an int field outside int64 escapes here as a bare OverflowError from the
final array conversion.
"""

from __future__ import annotations

import numpy as np

from flowconformal.errors import DataError


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
