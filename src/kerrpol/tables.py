"""Deterministic tabular output: CSV with a #-metadata header, JSON mirror.

A table is held as columns, each of one type plus missing cells (``None``
in a list, or an explicit mask), and is rendered a block of rows at a time,
each block bounded by its cell count (rows x columns): floats with ``repr``
(shortest round-trip form), once per distinct bit pattern within each block
of cells and indexed back to the cells, ints with ``str``, bools as
``true``/``false``, strings as CSV fields or JSON strings, a missing cell
as an empty field or ``null``; one values array (with one mask) in two
columns is rendered once per block.  CSV lines are the columns' texts zipped
together, and the JSON text equals ``json.dumps(..., indent=2)`` of the
same rows.  A file is written block by block into its temporary name, so
no whole text is held; ``to_csv_text`` and ``to_json_text`` join the same
blocks.  Metadata never includes timestamps, so identical inputs give
byte-identical files.  A NaN or infinity never reaches a file: building
the table raises ``NumericalError``, unless the cell is masked missing.
"""

from __future__ import annotations

import json
import os
import threading
from itertools import repeat

import numpy as np

from .errors import NumericalError, ValidationError

_NULL = {"csv": "", "json": "null"}
_BLOCK_CELLS = 16384  # cells rendered per pass: bounds the cell texts held


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted only where it must be."""
    quote = any(ch in text for ch in ',"\r\n')
    return '"' + text.replace('"', '""') + '"' if quote else text


def _column(name: str, values, missing=None) -> tuple:
    """(kind, values, missing): a typed array, or a list for kind 'U'
    (strings), and the mask of the missing cells, those that are None or
    set in ``missing``, or None if there are none."""
    if missing is not None:
        missing = np.asarray(missing)
        if missing.dtype != bool or np.ndim(values) != 1 \
                or missing.shape != (len(values),):
            raise ValidationError(
                f"missing mask of {name!r} is not one bool per cell")
    if isinstance(values, (list, tuple)):
        none = np.array([v is None for v in values], dtype=bool)
        missing = none if missing is None else none | missing
        present = [v for v in values if v is not None]
        if present and all(map(isinstance, present, repeat(str))):
            return "U", [v or "" for v in values], \
                missing if missing.any() else None
        values = np.zeros(len(none), np.asarray(present).dtype)
        values[~none] = present
    values = np.asarray(values)
    if values.dtype.kind not in "fiub":
        raise ValidationError(f"cannot write column {name!r} of {values.dtype}")
    if values.dtype.kind == "f" and not (
            np.isfinite(values) if missing is None
            else np.isfinite(values) | missing).all():
        raise NumericalError(f"refusing to write non-finite values in {name!r}")
    if values.ndim != 1:
        raise ValidationError(f"column {name!r} is not one-dimensional")
    return values.dtype.kind, values, \
        missing if missing is not None and missing.any() else None


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
    as ``data``, one sequence per column, and ``missing`` maps a column's
    name to the bool mask of its missing cells."""

    def __init__(self, name: str, columns: list[str], units: list[str],
                 data, meta: dict | None = None,
                 missing: dict | None = None) -> None:
        if len(columns) != len(units):
            raise ValidationError("every column needs a declared unit")
        self.name, self.columns, self.units = name, list(columns), list(units)
        self.data, self.meta = list(data), dict(meta or {})
        missing = dict(missing or {})
        if not set(missing) <= set(self.columns):
            raise ValidationError(f"missing masks name no column: "
                                  f"{sorted(set(missing) - set(self.columns))}")
        self._columns = [_column(c, v, missing.get(c))
                         for c, v in zip(columns, self.data)]
        if len(self.data) != len(columns) or \
                len({len(c[1]) for c in self._columns}) > 1:
            raise ValidationError("columns of unequal length or number")
        self._meta = {k: _column(k, [v]) for k, v in self.meta.items()}

    @property
    def rows(self) -> list[tuple]:
        """The cells row by row, None where missing."""
        columns = []
        for cells, (_, _, missing) in zip(self.data, self._columns):
            cells = cells.tolist() if isinstance(cells, np.ndarray) \
                else list(cells)
            if missing is not None:
                for i in np.flatnonzero(missing).tolist():
                    cells[i] = None
            columns.append(cells)
        return list(zip(*columns))

    def _blocks(self, fmt: str, cell_sep: str, row_sep: str,
                prefix: str = "", suffix: str = ""):
        """Texts of the rows, one per block of at most ``_BLOCK_CELLS``
        cells (at least one row)."""
        n = len(self._columns[0][1]) if self._columns else 0
        step = max(1, _BLOCK_CELLS // max(1, len(self._columns)))
        for start in range(0, n, step):
            rows, cells, memo = slice(start, start + step), [], {}
            for column in self._columns:   # one array in two columns: one pass
                key = id(column[1]), id(column[2])
                if key not in memo:
                    memo[key] = _texts(column, fmt, rows)
                cells.append(memo[key])
            del memo
            if fmt == "csv" and len(cells) == 1:   # a lone empty field
                cells = [[t or '""' for t in cells[0]]]   # must be quoted
            text = prefix + row_sep.join(map(cell_sep.join,
                                             zip(*cells))) + suffix
            del cells                # one block's texts held at a time
            yield text
            del text

    def _csv_blocks(self):
        """The CSV text in pieces, rendered one block of cells at a time."""
        lines = [f"# table: {self.name}"]
        lines += [f"# {k}: {_texts(c, 'csv', slice(None))[0]}"
                  for k, c in self._meta.items()]
        lines.append("# units: " + ",".join(self.units))
        lines.append(",".join(map(_csv_field, self.columns)) or '""')
        yield "\n".join(lines)
        for block in self._blocks("csv", ",", "\n"):
            yield "\n"
            yield block
        yield "\n"

    def _json_blocks(self):
        """The JSON text in pieces, rendered one block of cells at a time."""
        yield finite_json({
            "table": self.name,
            "meta": {k: v.item() if isinstance(v, np.generic) else v
                     for k, v in self.meta.items()},
            "columns": self.columns, "units": self.units,
        })[:-3] + ',\n  "rows": '
        opening = "[\n"
        for block in self._blocks("json", ",\n      ",
                                  "\n    ],\n    [\n      ",
                                  "    [\n      ", "\n    ]"):
            yield opening
            yield block
            opening = ",\n"
        yield "[]\n}\n" if opening == "[\n" else "\n  ]\n}\n"

    def to_csv_text(self) -> str:
        return "".join(self._csv_blocks())

    def to_json_text(self) -> str:
        return "".join(self._json_blocks())

    def write(self, directory, fmt: str, *more: OutputTable) -> list[str]:
        """Write this table and ``more`` under ``directory`` as <name>.<fmt>,
        each rendered into its temporary name block by block, all or none;
        returns the paths."""
        if fmt not in ("csv", "json"):
            raise ValidationError(f"unknown output format {fmt!r}")
        return write_files(directory, [
            (f"{t.name}.{fmt}",
             t._csv_blocks() if fmt == "csv" else t._json_blocks())
            for t in (self, *more)])


def write_files(directory, files) -> list[str]:
    """Write each (name, text) of ``files`` under ``directory``, LF endings,
    all or none.  A text is a ``str`` or an iterable of ``str`` blocks,
    written one block at a time, so a text rendered lazily is never held
    whole.  The texts go to temporary names, renamed into place only once
    all were written; a failure, in a write or in rendering a block, leaves
    no new file and no temporary.  Returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = [os.path.join(directory, name) for name, _ in files]
    temps = [f"{p}.{os.getpid()}-{threading.get_ident()}.tmp" for p in paths]
    try:
        for temp, (_, text) in zip(temps, files):
            with open(temp, "w", encoding="utf-8", newline="\n") as fh:
                if isinstance(text, str):
                    fh.write(text)
                else:
                    fh.writelines(text)
        for path in filter(os.path.isdir, paths):    # would stop a rename
            raise IsADirectoryError(f"cannot replace directory {path!r}")
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    finally:
        for temp in filter(os.path.exists, temps):
            os.remove(temp)
    return paths
