"""Deterministic tabular output: CSV with a #-metadata header, JSON mirror.

A table is held as columns, each of one type plus ``None`` (a missing cell),
and each column is rendered whole, a block of rows at a time: floats with
``repr`` (shortest round-trip form), once per distinct bit pattern of the
block and indexed back to the cells, ints with ``str``, bools as
``true``/``false``, strings as CSV fields or JSON strings, ``None`` as an
empty field or ``null``.  CSV lines are the columns' texts zipped together,
and the JSON text equals ``json.dumps(..., indent=2)`` of the same rows.
Metadata never includes timestamps, so identical inputs give byte-identical
files.  A NaN or infinity never reaches a file: building the table raises
``NumericalError``.
"""

from __future__ import annotations

import json
import os
import threading
from itertools import repeat

import numpy as np

from .errors import NumericalError, ValidationError

_NULL = {"csv": "", "json": "null"}
_BLOCK_ROWS = 4096    # rows rendered per pass: bounds the cell texts held


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted only where it must be."""
    quote = any(ch in text for ch in ',"\r\n')
    return '"' + text.replace('"', '""') + '"' if quote else text


def _column(name: str, values) -> tuple:
    """(kind, values, missing): a typed array, or a list for kind 'U'
    (strings), and the mask of the None cells, or None if there are none."""
    missing = None
    if isinstance(values, (list, tuple)):
        missing = np.array([v is None for v in values], dtype=bool)
        present = [v for v in values if v is not None]
        if present and all(map(isinstance, present, repeat(str))):
            return "U", [v or "" for v in values], \
                missing if missing.any() else None
        values = np.zeros(len(missing), np.asarray(present).dtype)
        values[~missing] = present
        missing = missing if missing.any() else None
    values = np.asarray(values)
    if values.dtype.kind not in "fiub":
        raise ValidationError(f"cannot write column {name!r} of {values.dtype}")
    if values.dtype.kind == "f" and not np.isfinite(values).all():
        raise NumericalError(f"refusing to write non-finite values in {name!r}")
    if values.ndim != 1:
        raise ValidationError(f"column {name!r} is not one-dimensional")
    return values.dtype.kind, values, missing


def _texts(column: tuple, fmt: str, rows: slice) -> list[str]:
    """Cell texts of ``rows`` of one column in ``fmt`` ('csv' or 'json')."""
    kind, values, missing = column
    values = values[rows]
    if kind == "U":
        quote = _csv_field if fmt == "csv" else json.dumps
        memo = {v: quote(v) for v in set(values)}
        texts = list(map(memo.__getitem__, values))
    elif kind == "b":
        texts = np.where(values, "true", "false").tolist()
    elif kind == "f":   # one repr per distinct bit pattern: -0.0 stays apart
        bits, inverse = np.unique(values.view(f"u{values.itemsize}"),
                                  return_inverse=True)
        distinct = list(map(float.__repr__, bits.view(values.dtype).tolist()))
        texts = list(map(distinct.__getitem__, inverse.tolist()))
    else:
        texts = list(map(str, values.tolist()))
    if missing is not None:
        for i in np.flatnonzero(missing[rows]).tolist():
            texts[i] = _NULL[fmt]
    return texts


def finite_json(payload) -> str:
    """Indented JSON text of ``payload``; raises on any NaN or infinity."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"non-finite number in output ({exc})") from None


class OutputTable:
    """Rectangular table with per-column units and metadata; the cells come
    as ``data``, one sequence per column."""

    def __init__(self, name: str, columns: list[str], units: list[str],
                 data, meta: dict | None = None) -> None:
        if len(columns) != len(units):
            raise ValidationError("every column needs a declared unit")
        self.name, self.columns, self.units = name, list(columns), list(units)
        self.data, self.meta = list(data), dict(meta or {})
        self._columns = [_column(c, v) for c, v in zip(columns, self.data)]
        if len(self.data) != len(columns) or \
                len({len(c[1]) for c in self._columns}) > 1:
            raise ValidationError("columns of unequal length or number")
        self._meta = {k: _column(k, [v]) for k, v in self.meta.items()}

    @property
    def rows(self) -> list[tuple]:
        return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                          for c in self.data)))

    def _blocks(self, fmt: str, cell_sep: str, row_sep: str,
                prefix: str = "", suffix: str = "") -> list[str]:
        n = len(self._columns[0][1]) if self._columns else 0
        blocks = []
        for start in range(0, n, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            cells = [_texts(c, fmt, rows) for c in self._columns]
            if fmt == "csv" and len(cells) == 1:   # a lone empty field
                cells = [[t or '""' for t in cells[0]]]   # must be quoted
            blocks.append(prefix + row_sep.join(map(cell_sep.join,
                                                    zip(*cells))) + suffix)
        return blocks

    def to_csv_text(self) -> str:
        lines = [f"# table: {self.name}"]
        lines += [f"# {k}: {_texts(c, 'csv', slice(None))[0]}"
                  for k, c in self._meta.items()]
        lines.append("# units: " + ",".join(self.units))
        lines.append(",".join(map(_csv_field, self.columns)) or '""')
        return "\n".join(lines + self._blocks("csv", ",", "\n")) + "\n"

    def to_json_text(self) -> str:
        head = finite_json({
            "table": self.name,
            "meta": {k: v.item() if isinstance(v, np.generic) else v
                     for k, v in self.meta.items()},
            "columns": self.columns, "units": self.units,
        })[:-3] + ',\n  "rows": '
        blocks = self._blocks("json", ",\n      ", "\n    ],\n    [\n      ",
                              "    [\n      ", "\n    ]")
        if not blocks:
            return head + "[]\n}\n"
        blocks[0] = head + "[\n" + blocks[0]      # no copy of the whole text
        blocks[-1] += "\n  ]\n}\n"
        return ",\n".join(blocks)

    def write(self, directory, fmt: str, *more: OutputTable) -> list[str]:
        """Write this table and ``more`` under ``directory`` as <name>.<fmt>,
        all rendered first, then written all or none; returns the paths."""
        if fmt not in ("csv", "json"):
            raise ValidationError(f"unknown output format {fmt!r}")
        files = [(f"{t.name}.{fmt}", t.to_csv_text() if fmt == "csv"
                  else t.to_json_text()) for t in (self, *more)]
        return write_files(directory, files)


def write_files(directory, files) -> list[str]:
    """Write each (name, text) of ``files`` under ``directory``, LF endings,
    all or none: the texts go to temporary names, renamed into place only
    once all were written.  Returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = [os.path.join(directory, name) for name, _ in files]
    temps = [f"{p}.{os.getpid()}-{threading.get_ident()}.tmp" for p in paths]
    try:
        for temp, (_, text) in zip(temps, files):
            with open(temp, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        for path in filter(os.path.isdir, paths):    # would stop a rename
            raise IsADirectoryError(f"cannot replace directory {path!r}")
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    finally:
        for temp in filter(os.path.exists, temps):
            os.remove(temp)
    return paths
