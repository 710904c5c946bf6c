"""Deterministic report rendering: JSON, CSV key/value pairs, plain text.

The JSON emitter is hand-rolled on purpose: report bytes are part of the
interface (same inputs => identical bytes), so float formatting is pinned to
%.17g, keys keep insertion order, and non-finite floats become null (JSON
has no Infinity; the schema types those fields number-or-null).  A
:class:`Table` renders as a list of objects: each column is formatted once,
and each run of rows is one join of those texts and the constant text
between them.
"""

import math
import operator

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


def _formatted(spec: str, values) -> list[str]:
    """``spec % v`` for each v, from one %-operation: no float's text holds
    a comma."""
    return ((spec + ",") * len(values) % tuple(values)).split(",")[:-1]


def _texts(table: Table, spec: str, cell) -> list[list[str]]:
    """The text of each cell of ``table``, column by column.

    Finite floats are formatted under ``spec``: once per value if their
    column's first 64 cells repeat one, and once per point where the next
    column holds the same floats one row on (``lo``, ``hi``).  Any other
    column is rendered by ``cell``.
    """
    texts, shared = [], None
    floats = [set(map(type, column)) == {float}
              and all(map(math.isfinite, column)) for column in table.columns]
    for j, column in enumerate(table.columns):
        if shared is not None:  # the column before formatted these points
            text, shared = shared[1:], None
        elif floats[j] and j + 1 < len(floats) and floats[j + 1] and all(
                map(operator.is_, table.columns[j + 1][:-1], column[1:])):
            shared = _formatted(spec, (*column, table.columns[j + 1][-1]))
            text = shared[:-1]
        elif floats[j] and len(set(column[:64])) == len(column[:64]):
            text = _formatted(spec, column)
        elif floats[j]:  # 0.0 == -0.0 as keys: zeros are formatted each time
            once = {v: spec % v for v in set(column) if v}
            text = [once.get(v) or spec % v for v in column]
        else:
            text = list(map(cell, column))
        texts.append(text)
    return texts


def _rows(table: Table, spec: str, cell, layout) -> list[str]:
    """The text of ``table``'s rows: one string per run of rows whose
    indices have equally many digits.

    ``layout(digits)`` lists the pieces of one such row: constant text, the
    number of a column, or None for the row's index.  Each run is one join
    of those pieces, the columns' texts (see :func:`_texts`) in their
    places.
    """
    n, texts = _height(table), _texts(table, spec, cell)
    out, start, digits = [], 0, 1
    while start < n:
        stop = min(n, 10 ** digits)
        pieces, index = layout(digits), None
        flat = [""] * ((stop - start) * len(pieces))
        for i, piece in enumerate(pieces):
            if isinstance(piece, str):
                flat[i::len(pieces)] = [piece] * (stop - start)
            elif piece is None:
                index = index or list(map(str, range(start, stop)))
                flat[i::len(pieces)] = index
            else:
                flat[i::len(pieces)] = texts[piece][start:stop]
        out.append("".join(flat))
        start, digits = stop, digits + 1
    return out


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
        item = [f",\n{inner}{{"]
        for j, key in enumerate(value.keys):
            item[-1] += f"{',' if j else ''}\n{inner}  {_json_scalar(key)}: "
            item += [j, ""]
        item[-1] += f"\n{inner}}}"
        parts = _rows(value, "%.17g", _json_scalar, lambda digits: item)
    elif type(value) in (list, tuple):   # a record is a tuple, not a list
        parts = [f",\n{inner}{_json_scalar(v)}" for v in value]
    else:
        out.append(_json_scalar(value))
        return
    if parts:
        parts[0] = parts[0][2:]  # no comma before the first item
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


def _csv_key(head: str, tail: str, digits: int) -> tuple[str, str]:
    """``_csv_quote(head + tail)`` and a comma, cut where the row index goes
    between head and tail (digits need no quoting)."""
    quoted = _csv_quote(head + tail)
    cut = len(head) + (quoted != head + tail) * (1 + head.count('"'))
    return quoted[:cut], quoted[cut:] + ","


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
    """A line per scalar and a string of lines per run of table rows.

    ``line(head, tail, digits)`` is the text that starts a line whose key
    is head, a row index of ``digits`` digits, then tail, as the text
    before the index and the text after it.
    """
    lines = []
    for name, value in _flatten(doc):
        if not isinstance(value, Table):
            lines.append("".join([*line(name, "", 0), cell(value), "\n"]))
            continue

        def row(digits):   # the lines name.i.key, i of digits digits
            pieces = [""]
            for j, key in enumerate(value.keys):
                head, tail = line(f"{name}.", f".{key}", digits)
                pieces[-1] += head
                pieces += [None, tail, j, "\n"]
            return pieces
        lines += _rows(value, spec, cell, row)
    return lines


def to_csv(doc: dict) -> str:
    """Flattened key,value rows (nested keys are dotted)."""
    lines = _flat_lines(doc, "%.17g", _csv_cell, _csv_key)
    return "".join(["key,value\n", *lines])


def to_text(doc: dict) -> str:
    """Aligned ``key = value`` lines with 6-significant-digit floats."""
    width = max((len(f"{k}.{_height(v) - 1}.{max(v.keys, key=len)}")
                 if isinstance(v, Table) else len(k)
                 for k, v in _flatten(doc)), default=0)
    lines = _flat_lines(doc, "%.6g", _cell, lambda head, tail, digits: (
        head, tail + " " * (width - len(head) - digits - len(tail)) + " = "))
    return "".join(lines) or "\n"


def rows_to_csv(header: tuple[str, ...], rows: list[tuple]) -> str:
    """A real CSV table (used by sweep), floats at full precision."""
    columns = list(zip(*rows)) or [()] * len(header)
    row = [""]
    for j in range(len(header)):
        row += [j, ","]
    row[-1] = "\n"   # in place of the last comma
    lines = _rows(Table(tuple(header), columns), "%.17g", _csv_cell,
                  lambda digits: row)
    return "".join([",".join(map(_csv_quote, header)), "\n", *lines])
