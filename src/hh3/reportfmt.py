"""Deterministic report rendering: JSON, CSV key/value pairs, plain text.

The JSON emitter is hand-rolled on purpose: report bytes are part of the
interface (same inputs => identical bytes), so float formatting is pinned to
%.17g, keys keep insertion order, and non-finite floats become null (JSON
has no Infinity; the schema types those fields number-or-null).
"""

from __future__ import annotations

import json
import math
from typing import Any

__all__ = ["format_float", "format_float_short", "to_json", "to_csv",
           "to_text", "rows_to_csv"]


def format_float(x: float) -> str:
    """17 significant digits: they round-trip every float exactly.

    Not the shortest such form (``repr``): 0.1 prints as 0.10000000000000001.
    """
    return format(x, ".17g")


def format_float_short(x: float) -> str:
    """Six significant digits, for the human-oriented text format."""
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
    return _emit(doc, 0, format_float) + "\n"


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
    """Flattened key,value rows (nested keys are dotted)."""
    lines = ["key,value"]
    for key, value in _flatten(doc):
        lines.append(f"{_csv_quote(key)},{_csv_quote(_cell(value, format_float))}")
    return "\n".join(lines) + "\n"


def to_text(doc: dict) -> str:
    """Aligned ``key = value`` lines with 6-significant-digit floats."""
    rows = _flatten(doc)
    width = max((len(key) for key, _ in rows), default=0)
    lines = [f"{key.ljust(width)} = {_cell(value, format_float_short)}"
             for key, value in rows]
    return "\n".join(lines) + "\n"


def rows_to_csv(header: tuple[str, ...], rows: list[tuple]) -> str:
    """A real CSV table (used by sweep), floats at full precision."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v, format_float) for v in row))
    return "\n".join(lines) + "\n"
