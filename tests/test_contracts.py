"""What other code relies on, beyond the numbers in the reports.

``bench/tracer.py`` wraps functions by attribute name, and each ``__all__``
lists what ``from ... import *`` hands out.  A rename or deletion that
misses either fails here, not halfway through a traced benchmark run.
The records are named tuples with the fields, repr, immutability and
equality callers use, and importing the CLI stays cheap.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hh3
import hh3.quadrature
from hh3 import cli
from hh3.analysis import CatalogEntry, ConvexityReport, HermiteHadamardReport
from hh3.bounds import BoundReport, DerivEndpoints
from hh3.expr import (BinOp, Const, Func, Neg, Num, Var, compile_jet3,
                      parse)
from hh3.quadrature import CertifyOutcome, QuadResult
from hh3.reportfmt import Table

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_bench_tracer_resolves_every_target():
    spec = importlib.util.spec_from_file_location("hh3_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = hh3.quadrature.composite_bound
    with tracer.Tracer().installed():  # a KeyError names a missing target
        assert hh3.quadrature.composite_bound is not original
    assert hh3.quadrature.composite_bound is original


@pytest.mark.parametrize("fmt", sorted(cli._RENDERERS))
def test_renderers_return_str(fmt):
    # the tracer counts rendered bytes with ``text.encode``
    doc = {"a": 1.0, "t": Table(("x", "y"), [(0.5, None), (1.5, "s")])}
    assert type(cli._RENDERERS[fmt](doc)) is str
    assert type(cli.rows_to_csv(("n", "v"), [(1, 0.5)])) is str


@pytest.mark.parametrize("name", ["hh3"] + [
    f"hh3.{info.name}" for info in pkgutil.iter_modules(hh3.__path__)
    if info.name != "__main__"])
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


# --------------------------------------------------------------------------
# Start-up cost: records are named tuples, so importing the CLI needs
# neither ``dataclasses`` nor the code-inspection modules it pulls in, and
# a run parses its flags without ``argparse`` and renders without ``json``.
# --------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_out_dataclasses_and_inspection_modules():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hh3.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', "
            "'dis') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_a_run_without_config_leaves_out_argparse_and_json():
    # flags are parsed from cli.OPTIONS, and reports quote plain text
    # themselves, so neither module, nor what argparse loads, is imported
    code = ("import io, sys; sys.path.insert(0, sys.argv[1]); import hh3.cli; "
            "out, sys.stdout = sys.stdout, io.StringIO(); "
            "code = hh3.cli.main(['bounds', '--f', 'exp(x)', '--a', '0', "
            "'--b', '1']); sys.stdout = out; "
            "print(code, *(m for m in ('argparse', 'json', 'gettext', "
            "'locale') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


# --------------------------------------------------------------------------
# Record semantics: field names and order, keyword construction, repr text,
# immutability, value equality and hashing, and equality with the tuple of
# the fields
# --------------------------------------------------------------------------

_X = Var()
_RECORDS = [
    (Num, {"value": 1.5}),
    (Var, {}),
    (Const, {"name": "pi"}),
    (Neg, {"operand": _X}),
    (BinOp, {"op": "+", "left": _X, "right": Num(2.0)}),
    (Func, {"name": "exp", "arg": _X}),
    (DerivEndpoints, {"f3a_abs": 1.0, "f3b_abs": 2.0, "a": 0.0, "b": 1.0}),
    (BoundReport, {"chi1": 0.1, "chi2": 0.2, "chi3": 0.3, "q": 2.0,
                   "min_value": 0.1, "argmin_label": "chi1"}),
    (QuadResult, {"midpoint_sum": 1.0, "corrected_sum": 1.5,
                  "certified_bound": 0.01, "f3": (1.0, 2.0),
                  "interval_bounds": (0.01,),
                  "midpoint_bound_heuristic": True}),
    (CertifyOutcome, {"result": QuadResult(1.0, 1.5, 0.01, (1.0, 2.0),
                                           (0.01,), True),
                      "n_final": 1, "iterations": 1}),
    (ConvexityReport, {"passed": False, "worst_violation": 0.5,
                       "witness": (0.0, 1.0), "pairs_tested": 3}),
    (HermiteHadamardReport, {"midpoint_value": 1.0, "integral_mean": 1.1,
                             "endpoint_mean": 1.2, "lower_slack": 0.1,
                             "upper_slack": 0.1, "passed": True}),
    (CatalogEntry, {"expression": "exp(x)", "a": 0.0, "b": 1.0,
                    "log_convex": True}),
    (cli.RunConfig, {"command": "integrate", "expression": "x", "ast": _X,
                     "a": 0.0, "b": 1.0, "fmt": "json", "out": None, "n": 4,
                     "tol": None, "method": "best", "q": None, "n_list": (),
                     "grid_points": 257, "n_max": 2 ** 20,
                     "per_interval": False, "oracle": False}),
]


@pytest.mark.parametrize("cls, fields", _RECORDS,
                         ids=[cls.__name__ for cls, _ in _RECORDS])
def test_record_semantics(cls, fields):
    record = cls(**fields)
    # the repr names every field, in order
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{k}={v!r}" for k, v in fields.items()) + ")"
    twin = cls(*fields.values())
    assert twin == record and hash(twin) == hash(record)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    assert record == twin == tuple(fields.values())


def test_record_repr_text_is_pinned():
    assert repr(Num(1.0)) == "Num(value=1.0)"
    assert repr(parse("-x^2")) == (
        "Neg(operand=BinOp(op='^', left=Var(), right=Num(value=2.0)))")


def test_run_config_defaults():
    cfg = cli.RunConfig("bounds", "x", _X, 0.0, 1.0, "json", None)
    assert (cfg.n, cfg.tol, cfg.method, cfg.q, cfg.n_list, cfg.grid_points,
            cfg.n_max, cfg.per_interval, cfg.oracle) == (
        1, None, "best", None, (), 257, 2 ** 20, False, False)


def test_ast_nodes_key_the_jet_cache():
    assert compile_jet3(parse("exp(x)")) is compile_jet3(parse("exp(x)"))
    # equal trees, but their text tells the zeros apart
    zero, minus_zero = BinOp("*", Num(0.0), _X), BinOp("*", Num(-0.0), _X)
    assert zero == minus_zero
    assert compile_jet3(zero) is not compile_jet3(minus_zero)

