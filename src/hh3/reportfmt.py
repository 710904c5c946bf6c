"""Deterministic report rendering: JSON, CSV key/value pairs, plain text.

The JSON emitter is hand-rolled on purpose: report bytes are part of the
interface (same inputs => identical bytes), so float formatting is pinned to
%.17g, keys keep insertion order, and non-finite floats become null (JSON
has no Infinity; the schema types those fields number-or-null).  A
:class:`Table` renders as a list of objects, from one %-template per format.
"""

from __future__ import annotations

import math
from itertools import islice

from .record import Record

__all__ = ["Table", "format_float", "format_float_short", "to_json",
           "to_csv", "to_text", "rows_to_csv"]


class Table(Record):
    """Rows of scalars, each row as long as ``keys``."""
    __slots__, _fields = (), ("keys", "rows")  # tuple of str, list of tuples


def format_float(x: float) -> str:
    """17 significant digits: they round-trip every float exactly.

    Not the shortest such form (``repr``): 0.1 prints as 0.10000000000000001.
    """
    return format(x, ".17g")


def format_float_short(x: float) -> str:
    """Six significant digits, for the human-oriented text format."""
    return format(x, ".6g")


def _json_scalar(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return "null"
        return format_float(value)
    if isinstance(value, str):   # json.dumps, loading json only to escape
        if value.isascii() and value.isprintable() and '"' not in value \
                and "\\" not in value:
            return f'"{value}"'
        import json
        return json.dumps(value)
    raise TypeError(f"cannot render {value!r} in a report")


def _rows(table: Table, spec: str, cell, template, indexed=False) -> list:
    """One string per row of ``table``, from ``template(specs, digits)``.

    A column of finite floats goes in as it is, under ``spec``; any other
    goes in under ``%s``, rendered by ``cell`` (once if every row holds one
    object).  Rows whose indices have equally many ``digits`` share one
    %-template; ``indexed`` passes the row's index before each value.
    """
    n, specs, columns = len(table.rows), [], []
    for column in zip(*table.rows):
        if set(map(type, column)) == {float} \
                and all(map(math.isfinite, column)):
            specs.append(spec)
        else:
            specs.append("%s")
            column = ([cell(column[0])] * n if len(set(map(id, column))) == 1
                      else list(map(cell, column)))
        columns += [range(n), column] if indexed else [column]
    arguments = zip(*columns) if columns else iter([()] * n)
    out, start, digits = [], 0, 1
    while start < n:
        stop = min(n, 10 ** digits)
        out += map(template(specs, digits).__mod__,
                   islice(arguments, stop - start))
        start, digits = stop, digits + 1
    return out


def _literal(text: str) -> str:
    return text.replace("%", "%%")


def _emit(value: object, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [f"{inner}{_json_scalar(k)}: {_emit(v, indent + 1)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, Table):
        def item(specs, digits):
            fields = ",\n".join(f"{inner}  {_literal(_json_scalar(k))}: {s}"
                                for k, s in zip(value.keys, specs))
            return f"{inner}{{\n{fields}\n{inner}}}" if fields else \
                f"{inner}{{}}"
        parts = _rows(value, "%.17g", _json_scalar, item)
    elif type(value) in (list, tuple):   # a record is a tuple, not a list
        parts = [f"{inner}{_json_scalar(v)}" for v in value]
    else:
        return _json_scalar(value)
    text = ",\n".join(parts)
    return f"[\n{text}\n{pad}]" if text else "[]"


def to_json(doc: dict) -> str:
    return _emit(doc, 0) + "\n"


def _flatten(doc: dict, prefix: str = "") -> list[tuple[str, object]]:
    """(dotted key, scalar or Table) pairs, leaving out empty Tables."""
    rows: list[tuple[str, object]] = []
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, name + "."))
        elif isinstance(value, Table):
            if value.rows and value.keys:   # else it prints no line
                rows.append((name, value))
        elif type(value) in (list, tuple):
            rows.extend((f"{name}.{i}", item) for i, item in enumerate(value))
        else:
            rows.append((name, value))
    return rows


def _csv_quote(text: str) -> str:
    if any(c in text for c in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cell(value: object, fmt=format_float_short) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt(value)
    if isinstance(value, (int, str)):
        return str(value)
    raise TypeError(f"cannot render {value!r} in a report")


def _csv_cell(value: object) -> str:
    return _csv_quote(_cell(value, format_float))


def _flat_lines(doc: dict, spec: str, cell, line) -> list:
    """A line per scalar and a string of lines per table row of ``doc``.

    ``line(key, length)`` is the template text that starts a line, given the
    key as template text and the length that the key prints at.
    """
    lines = []
    for name, value in _flatten(doc):
        if not isinstance(value, Table):
            lines.append((line(_literal(name), len(name)) + "%s")
                         % cell(value))
            continue

        def row(specs, digits):   # the key name.i.key, i of digits digits
            return "\n".join(
                line(f"{_literal(name)}.%d.{_literal(key)}",
                     len(name) + digits + len(key) + 2) + s
                for key, s in zip(value.keys, specs))
        lines += _rows(value, spec, cell, row, indexed=True)
    return lines


def to_csv(doc: dict) -> str:
    """Flattened key,value rows (nested keys are dotted)."""
    lines = _flat_lines(doc, "%.17g", _csv_cell,
                        lambda key, length: _csv_quote(key) + ",")
    return "\n".join(["key,value", *lines]) + "\n"


def to_text(doc: dict) -> str:
    """Aligned ``key = value`` lines with 6-significant-digit floats."""
    width = max((len(f"{k}.{len(v.rows) - 1}.{max(v.keys, key=len)}")
                 if isinstance(v, Table) else len(k)
                 for k, v in _flatten(doc)), default=0)
    lines = _flat_lines(doc, "%.6g", _cell, lambda key, length:
                        key + " " * (width - length) + " = ")
    return "\n".join(lines) + "\n"


def rows_to_csv(header: tuple[str, ...], rows: list[tuple]) -> str:
    """A real CSV table (used by sweep), floats at full precision."""
    lines = _rows(Table(tuple(header), rows), "%.17g", _csv_cell,
                  lambda specs, digits: ",".join(specs))
    return "\n".join([",".join(map(_csv_quote, header)), *lines]) + "\n"
