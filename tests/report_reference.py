"""Reference renderer: a recursive walk of the report, one string per value.

This is the renderer that :mod:`hh3.reportfmt` replaces for tables.  A
table here is a list of dicts, walked key by key and value by value; the
tests hold ``to_json``, ``to_csv``, ``to_text`` and ``rows_to_csv`` of a
:class:`hh3.reportfmt.Table` to these functions' bytes, after
:func:`as_dicts` has turned each table into its list of dicts.
"""

from __future__ import annotations

import json
import math
from typing import Any

from hh3.reportfmt import Table


def as_dicts(doc: dict) -> dict:
    """``doc`` with each Table, at any depth, as a list of dicts."""
    out = {}
    for key, value in doc.items():
        if isinstance(value, Table):
            value = [dict(zip(value.keys, row))
                     for row in zip(*value.columns)]
        elif isinstance(value, dict):
            value = as_dicts(value)
        out[key] = value
    return out


def _format_float(x: float) -> str:
    return format(x, ".17g")


def _format_float_short(x: float) -> str:
    return format(x, ".6g")


def _json_scalar(value: Any, fmt) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return "null"
        return fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot render {value!r} in a report")


def _emit(value: Any, indent: int, fmt) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [f"{inner}{json.dumps(k)}: {_emit(v, indent + 1, fmt)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{_emit(v, indent + 1, fmt)}" for v in value]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    return _json_scalar(value, fmt)


def to_json(doc: dict) -> str:
    return _emit(doc, 0, _format_float) + "\n"


def _flatten(doc: dict, prefix: str = "") -> list[tuple[str, Any]]:
    rows: list[tuple[str, Any]] = []
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, name + "."))
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    rows.extend(_flatten(item, f"{name}.{i}."))
                else:
                    rows.append((f"{name}.{i}", item))
        else:
            rows.append((name, value))
    return rows


def _csv_quote(text: str) -> str:
    if any(c in text for c in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cell(value: Any, fmt) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt(value)
    return str(value)


def to_csv(doc: dict) -> str:
    lines = ["key,value"]
    for key, value in _flatten(doc):
        lines.append(f"{_csv_quote(key)},"
                     f"{_csv_quote(_cell(value, _format_float))}")
    return "\n".join(lines) + "\n"


def to_text(doc: dict) -> str:
    rows = _flatten(doc)
    width = max((len(key) for key, _ in rows), default=0)
    lines = [f"{key.ljust(width)} = {_cell(value, _format_float_short)}"
             for key, value in rows]
    return "\n".join(lines) + "\n"


def rows_to_csv(header: tuple[str, ...], rows: list[tuple]) -> str:
    """A CSV table, each cell under the key/value rows' quoting rule."""
    lines = [",".join(map(_csv_quote, header))]
    for row in rows:
        lines.append(",".join(_csv_quote(_cell(v, _format_float))
                              for v in row))
    return "\n".join(lines) + "\n"
