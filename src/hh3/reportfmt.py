"""Deterministic report rendering: JSON, CSV key/value pairs, plain text.

The JSON emitter is hand-rolled on purpose: report bytes are part of the
interface (same inputs => identical bytes), so float formatting is pinned to
%.17g, keys keep insertion order, and non-finite floats become null (JSON
has no Infinity; the schema types those fields number-or-null).  A
:class:`Table` renders as a list of objects, from one %-template per format.
"""

from __future__ import annotations

import math
import operator
from itertools import islice

from .record import Record

__all__ = ["Table", "format_float", "format_float_short", "to_json",
           "to_csv", "to_text", "rows_to_csv"]


class Table(Record):
    """Columns of scalars, one per key, all equally long: a row per index."""
    __slots__, _fields = (), ("keys", "columns")  # strs; a sequence per key


def _height(table: Table) -> int:
    return len(table.columns[0]) if table.columns else 0


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

    Finite floats go in under ``spec``, or as text formatted once per value
    if their column's first 64 cells repeat one, and once per point where
    the next column holds the same floats one row on (``lo``, ``hi``); any
    other column under ``%s``, rendered by ``cell`` (once if every row
    holds one object).  Rows whose indices have equally many ``digits``
    share one %-template; ``indexed`` passes the row's index before each
    value.
    """
    n, specs, columns, shared = _height(table), [], [], None
    floats = [set(map(type, column)) == {float}
              and all(map(math.isfinite, column)) for column in table.columns]
    for j, column in enumerate(table.columns):
        form = "%s"
        if shared is not None:  # the column before formatted these points
            column, shared = shared[1:], None
        elif floats[j] and j + 1 < len(floats) and floats[j + 1] and all(
                map(operator.is_, table.columns[j + 1][:-1], column[1:])):
            shared = [*map(spec.__mod__, column),
                      spec % table.columns[j + 1][-1]]
            column = shared[:-1]
        elif floats[j] and len(set(column[:64])) == len(column[:64]):
            form = spec
        elif floats[j]:  # 0.0 == -0.0 as keys: zeros are formatted each time
            text = {v: spec % v for v in set(column) if v}
            column = [text.get(v) or spec % v for v in column]
        else:
            column = ([cell(column[0])] * n if len(set(map(id, column))) == 1
                      else list(map(cell, column)))
        specs.append(form)
        columns += [range(n), column] if indexed else [column]
    arguments = zip(*columns)
    out, start, digits = [], 0, 1
    while start < n:
        stop = min(n, 10 ** digits)
        out += map(template(specs, digits).__mod__,
                   islice(arguments, stop - start))
        start, digits = stop, digits + 1
    return out


def _literal(text: str) -> str:
    return text.replace("%", "%%")


def _emit(value: object, indent: int, out: list) -> None:
    """Append the JSON text of ``value`` to ``out``, piece by piece."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        for i, (k, v) in enumerate(value.items()):
            out.append(f"{',' if i else '{'}\n{inner}{_json_scalar(k)}: ")
            _emit(v, indent + 1, out)
        out.append(f"\n{pad}}}" if value else "{}")
        return
    if isinstance(value, Table):
        def item(specs, digits):
            fields = ",\n".join(f"{inner}  {_literal(_json_scalar(k))}: {s}"
                                for k, s in zip(value.keys, specs))
            return (f"{inner}{{\n{fields}\n{inner}}}" if fields else
                    f"{inner}{{}}") + ",\n"
        parts = _rows(value, "%.17g", _json_scalar, item)
    elif type(value) in (list, tuple):   # a record is a tuple, not a list
        parts = [f"{inner}{_json_scalar(v)},\n" for v in value]
    else:
        out.append(_json_scalar(value))
        return
    if parts:
        parts[-1] = parts[-1][:-2]  # no comma after the last item
    out += ["[\n", *parts, f"\n{pad}]"] if parts else ["[]"]


def to_json(doc: dict) -> str:
    _emit(doc, 0, out := [])
    return "".join([*out, "\n"])


def _flatten(doc: dict, prefix: str = "") -> list[tuple[str, object]]:
    """(dotted key, scalar or Table) pairs, leaving out empty Tables."""
    rows: list[tuple[str, object]] = []
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, name + "."))
        elif isinstance(value, Table):
            if _height(value):   # else it prints no line
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
            lines.append((line(_literal(name), len(name)) + "%s\n")
                         % cell(value))
            continue

        def row(specs, digits):   # the key name.i.key, i of digits digits
            return "".join(
                line(f"{_literal(name)}.%d.{_literal(key)}",
                     len(name) + digits + len(key) + 2) + s + "\n"
                for key, s in zip(value.keys, specs))
        lines += _rows(value, spec, cell, row, indexed=True)
    return lines


def to_csv(doc: dict) -> str:
    """Flattened key,value rows (nested keys are dotted)."""
    lines = _flat_lines(doc, "%.17g", _csv_cell,
                        lambda key, length: _csv_quote(key) + ",")
    return "".join(["key,value\n", *lines])


def to_text(doc: dict) -> str:
    """Aligned ``key = value`` lines with 6-significant-digit floats."""
    width = max((len(f"{k}.{_height(v) - 1}.{max(v.keys, key=len)}")
                 if isinstance(v, Table) else len(k)
                 for k, v in _flatten(doc)), default=0)
    lines = _flat_lines(doc, "%.6g", _cell, lambda key, length:
                        key + " " * (width - length) + " = ")
    return "".join(lines) or "\n"


def rows_to_csv(header: tuple[str, ...], rows: list[tuple]) -> str:
    """A real CSV table (used by sweep), floats at full precision."""
    columns = list(zip(*rows)) or [()] * len(header)
    lines = _rows(Table(tuple(header), columns), "%.17g", _csv_cell,
                  lambda specs, digits: ",".join(specs) + "\n")
    return "".join([",".join(map(_csv_quote, header)), "\n", *lines])
