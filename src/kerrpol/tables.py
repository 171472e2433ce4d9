"""Deterministic tabular output: CSV with a #-metadata header, JSON mirror.

Floats are rendered with ``repr`` (shortest round-trip form) and the
metadata never includes timestamps, so identical inputs produce
byte-identical files.  A NaN or infinity never reaches a file: rendering
raises ``NumericalError`` instead.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .errors import NumericalError, ValidationError


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if hasattr(value, "item"):          # numpy scalar
        value = value.item()
        return format_value(value)
    if isinstance(value, float):
        return repr(value)
    raise ValidationError(f"cannot format value of type {type(value)!r}")


def _cell(value):
    """Plain Python value of a table cell; NaN and infinity raise."""
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        raise NumericalError(f"refusing to write non-finite value {value!r}")
    return value


def finite_json(payload) -> str:
    """Indented JSON text of ``payload``; raises on any NaN or infinity."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"non-finite number in output ({exc})") from None


@dataclass
class OutputTable:
    """Rectangular numeric table with per-column units and metadata."""

    name: str
    columns: list[str]
    units: list[str]
    rows: list[tuple] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.units):
            raise ValidationError("every column needs a declared unit")
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ValidationError(
                    f"row {i} has {len(row)} fields, expected "
                    f"{len(self.columns)}")

    def to_csv_text(self) -> str:
        lines = [f"# table: {self.name}"]
        for key, value in self.meta.items():
            lines.append(f"# {key}: {format_value(_cell(value))}")
        lines.append("# units: " + ",".join(self.units))
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(format_value(_cell(v)) for v in row))
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        payload = {
            "table": self.name,
            "meta": {k: _cell(v) for k, v in self.meta.items()},
            "columns": list(self.columns),
            "units": list(self.units),
            "rows": [[_cell(v) for v in row] for row in self.rows],
        }
        return finite_json(payload)

    def write(self, directory, fmt: str) -> str:
        """Write under ``directory`` as <name>.<fmt>; returns the path."""
        if fmt not in ("csv", "json"):
            raise ValidationError(f"unknown output format {fmt!r}")
        text = self.to_csv_text() if fmt == "csv" else self.to_json_text()
        return write_text(directory, f"{self.name}.{fmt}", text)


def write_text(directory, name: str, text: str) -> str:
    """Write ``text`` to ``directory``/``name`` with LF endings; the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path
