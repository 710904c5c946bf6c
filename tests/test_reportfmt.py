import csv
import io
import json
import math
import random
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import report_reference as ref
from hh3 import reportfmt
from hh3.bounds import DerivEndpoints
from hh3.reportfmt import (Table, format_float, format_float_short,
                           rows_to_csv, to_csv, to_json, to_text)


def test_format_float_round_trips_17_digits():
    rng = random.Random(11)
    draws = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)
             for _ in range(2000)]
    for x in (*draws, 0.1, 1.0 / 3.0, 5e-324, 1.7976931348623157e308, -0.0):
        assert float(format_float(x)) == x
    # round-trip, not shortest: 0.1 keeps all 17 digits
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(0.5) == "0.5"
    assert format_float_short(math.pi) == "3.14159"


def test_json_renders_non_finite_floats_as_null():
    doc = {"inf": math.inf, "ninf": -math.inf, "nan": math.nan,
           "none": None, "nested": Table(("x",), [(math.inf,)])}
    text = to_json(doc)
    assert json.loads(text) == {"inf": None, "ninf": None, "nan": None,
                                "none": None, "nested": [{"x": None}]}
    assert "Infinity" not in text and "NaN" not in text


def test_json_layout_is_pinned():
    doc = {"a": 1, "b": 2.0, "c": [True, "s"], "d": {}, "e": []}
    assert to_json(doc) == (
        '{\n'
        '  "a": 1,\n'
        '  "b": 2,\n'
        '  "c": [\n'
        '    true,\n'
        '    "s"\n'
        '  ],\n'
        '  "d": {},\n'
        '  "e": []\n'
        '}\n')


def test_empty_documents():
    assert to_json({}) == "{}\n"
    assert to_csv({}) == "key,value\n"
    assert to_text({}) == "\n"
    # empty containers vanish from the flattened formats
    assert to_csv({"d": {}, "e": [], "x": 1}) == "key,value\nx,1\n"
    assert to_text({"d": {}, "e": [], "x": 1}) == "x = 1\n"


def test_csv_none_is_an_empty_cell_and_non_finite_floats_are_spelled():
    text = to_csv({"none": None, "inf": math.inf, "nan": math.nan})
    assert text == "key,value\nnone,\ninf,inf\nnan,nan\n"


@pytest.mark.parametrize("value", ["a,b", 'say "hi"', "two\nlines",
                                   'all, "three"\n'])
def test_csv_quotes_commas_quotes_and_newlines(value):
    text = to_csv({"k": value, "plain": "x"})
    rows = list(csv.reader(io.StringIO(text)))
    assert rows == [["key", "value"], ["k", value], ["plain", "x"]]
    assert "plain,x\n" in text  # no quotes where none are needed


def test_csv_flattens_nested_keys_with_dots():
    doc = {"a": {"b": 1, "c": [3, 4], "t": Table(("d",), [(False,)])}}
    assert to_csv(doc) == ("key,value\na.b,1\na.c.0,3\na.c.1,4\n"
                           "a.t.0.d,false\n")


def test_text_aligns_keys_and_uses_six_digits():
    doc = {"x": math.pi, "longer_key": None, "flag": True,
           "inner": {"y": 2}}
    assert to_text(doc) == ("x          = 3.14159\n"
                            "longer_key = \n"
                            "flag       = true\n"
                            "inner.y    = 2\n")


def test_rows_to_csv_keeps_full_precision():
    text = rows_to_csv(("n", "value", "ratio", "note"),
                       [(1, 0.1, math.inf, None), (2, -2.5, 3.0, True)])
    assert text == ("n,value,ratio,note\n"
                    "1,0.10000000000000001,inf,\n"
                    "2,-2.5,3,true\n")
    assert rows_to_csv(("n",), []) == "n\n"


# Text near the edges of the plain-ASCII shortcut: control characters,
# DEL, the first non-ASCII code points, quotes and backslashes
_EDGES = st.text(st.sampled_from(["\x00", "\x1f", " ", "~", "\x7f", "\x80",
                                  "\xe9", "\u2028", '"', "\\", "/", "a"]))


@given(st.one_of(st.text(), _EDGES))
@example("")
@example('say "hi"\\n')
def test_quoting_is_json_dumps(text):
    # keys and string values skip json.dumps when it would not escape
    assert reportfmt._json_scalar(text) == json.dumps(text)
    doc = {text: text, "t": Table((text,), [(text,)])}
    assert json.loads(to_json(doc)) == {text: text, "t": [{text: text}]}


def test_unrenderable_values_are_refused():
    with pytest.raises(TypeError):
        to_json({"x": object()})


@pytest.mark.parametrize("render", [to_json, to_csv, to_text])
@pytest.mark.parametrize("value", [object(), [{"d": 1}], [[1]]])
def test_lists_hold_scalars_only(render, value):
    # rows of records go in a Table, not in a list of dicts
    with pytest.raises(TypeError):
        render({"x": value})


class _Pair(NamedTuple):
    lo: float
    hi: float


@pytest.mark.parametrize("render", [to_json, to_csv, to_text])
@pytest.mark.parametrize("record", [
    _Pair(0.0, 1.0), DerivEndpoints(1.0, 2.0, 0.0, 1.0),
    {"nested": _Pair(0.0, 1.0)}])
def test_records_are_refused_not_printed_as_lists(render, record):
    # a named tuple is a tuple, but only a plain list or tuple is a list
    with pytest.raises(TypeError):
        render({"x": record})
    assert render({"x": tuple(_Pair(0.0, 1.0))}) == render({"x": [0.0, 1.0]})


# --------------------------------------------------------------------------
# Tables against the reference renderer
# --------------------------------------------------------------------------

_SCALARS = st.one_of(st.floats(), st.none(), st.integers(), st.booleans(),
                     st.text(max_size=5))
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_COLUMN_POOLS = st.one_of(
    st.lists(_FINITE, min_size=1, max_size=4),  # repeats: each value once
    st.lists(_FINITE, min_size=64, max_size=130,
             unique=True),                 # the template's own float path
    st.lists(st.sampled_from([0.0, -0.0, 0.1, -2.5e-300]),
             min_size=2, max_size=6),      # repeats with zeros of both signs
    st.lists(_SCALARS, min_size=1, max_size=4),
    _SCALARS.map(lambda v: [v]),           # one object in every row
)


@st.composite
def tables(draw) -> Table:
    """Up to 4 columns, each cycling through a pool of drawn values."""
    keys = draw(st.lists(st.text(max_size=4), max_size=4, unique=True))
    n = draw(st.one_of(st.integers(0, 12), st.integers(95, 120)))
    pools = [draw(_COLUMN_POOLS) for _ in keys]
    return Table(tuple(keys), [[p[i % len(p)] for i in range(n)]
                               for p in pools])


def _edge_table(n: int) -> Table:
    """n rows whose lo and hi share their points, with a column of three
    repeated values, zeros of both signs and an inf among unique bounds."""
    points = [-0.0, 0.0, *(i / 7 for i in range(1, n))]
    bound = [1.0 / (i + 3) for i in range(n)]
    bound[n // 2] = math.inf
    return Table(("lo", "hi", "bound", "ratio"), [
        points[:-1], points[1:], bound,
        [(0.5, 2.0, -0.0)[i % 3] for i in range(n)]])


def _assert_like_reference(doc: dict) -> None:
    old = ref.as_dicts(doc)
    assert to_json(doc) == ref.to_json(old)
    assert to_csv(doc) == ref.to_csv(old)
    assert to_text(doc) == ref.to_text(old)


@settings(deadline=None)
@given(tables(), st.text(max_size=4))
@example(_edge_table(9), "intervals")
@example(_edge_table(10), "i,\"j")
@example(_edge_table(99), "intervals")
@example(_edge_table(100), "")
@example(_edge_table(1000), "intervals")
@example(_edge_table(10001), "intervals")
def test_tables_render_like_the_reference(table, name):
    _assert_like_reference({"head": 0.1, "nested": {name: table},
                            "list": [1, None], "table": table, "z": True})
    rows = list(zip(*table.columns))
    assert rows_to_csv(table.keys, rows) == ref.rows_to_csv(table.keys, rows)


_AWKWARD = (math.inf, -math.inf, math.nan, -0.0, None, 7, True, False,
            'say "hi"', "a,b", "two\nlines", "100%", "\u00e9\\", "")


@pytest.mark.parametrize("n", [0, 1, 10, 11, 1001])
def test_awkward_values_render_like_the_reference(n):
    rows = [tuple(_AWKWARD[(i + j) % len(_AWKWARD)] for j in range(5))
            + (0.5 + i, "thm1") for i in range(n)]
    keys = ("lo", "x,y", 'q"', "%d", "a\nb", "bound", "method")
    _assert_like_reference({"a": 1, "intervals": Table(keys, _columns(rows)),
                            "empty": Table(keys, _columns([])),
                            "no_keys": Table((), [])})
    assert rows_to_csv(keys, rows) == ref.rows_to_csv(keys, rows)


def _columns(rows: list) -> list:
    return list(zip(*rows)) or [()] * 7


@pytest.mark.parametrize("n", [1, 2, 11, 150])
def test_division_points_render_like_the_reference(n):
    # lo and hi hold the same floats one row apart, formatted once for both
    points = [-0.0, 0.0, *(i / 7 for i in range(n - 1))]
    copies = [float(repr(p)) for p in points]  # equal, but other objects
    keys = ("lo", "hi", "bound", "k_ratio")
    _assert_like_reference({"shared": Table(keys, [
        points[:-1], points[1:], copies[1:], [0.5] * n]), "copied": Table(
        keys, [points[:-1], copies[1:], points[1:], copies[:-1]])})
