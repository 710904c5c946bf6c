"""What other code relies on, beyond the numbers in the reports.

``bench/tracer.py`` wraps functions by attribute name, and each ``__all__``
lists what ``from ... import *`` hands out.  A rename or deletion that
misses either fails here, not halfway through a traced benchmark run.
The records are named tuples with the fields, repr, immutability and
equality callers use, every error survives ``pickle`` and ``copy``, and
importing the CLI stays cheap.
"""

from __future__ import annotations

import copy
import importlib
import importlib.util
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hh3
import hh3.quadrature
from hh3 import cli, errors
from hh3.bounds import BoundReport, DerivEndpoints
from hh3.expr import (BinOp, Const, Func, Neg, Num, Var, compile_jet,
                      parse)
from hh3.quadrature import Certificate, QuadResult
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


#: Every (module, name) whose binding bench/tracer.py replaces.
_TRACED = {
    "hh3.cli": ("main", "resolve", "parse", "eval_jet3", "rows_to_csv",
                "_RENDERERS"),
    "hh3.analysis": ("parse", "eval_jet3", "integrate_adaptive",
                     "check_log_convexity", "grid_samples",
                     "check_hermite_hadamard"),
    "hh3.quadrature": ("eval_jet3", "evaluate", "composite_bound",
                       "certify", "integrate_adaptive", "identity_residual"),
    "hh3.bounds": ("direct_bound", "best_bound", "holder_bound",
                   "power_mean_bound"),
}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in _TRACED.items() for name in names])
def test_every_name_the_bench_tracer_wraps_exists(module, name):
    value = getattr(importlib.import_module(module), name)
    for fn in value.values() if name == "_RENDERERS" else (value,):
        assert callable(fn)


def test_traced_names_are_the_bench_tracers_targets():
    spec = importlib.util.spec_from_file_location("hh3_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = {(module.__name__, attr)
               for attr, modules in tracer._TARGETS.values()
               for module in modules}
    targets |= {("hh3.cli", "rows_to_csv"), ("hh3.cli", "_RENDERERS")}
    assert targets == {(module, name) for module, names in _TRACED.items()
                       for name in names}


@pytest.mark.parametrize("fmt", sorted(cli._RENDERERS))
def test_renderers_return_str(fmt):
    # the tracer counts rendered bytes with ``text.encode``
    doc = {"a": 1.0, "t": Table(("x", "y"), [(0.5, 1.5), (None, "s")])}
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
# Start-up cost: records are tuples over one base, so importing the CLI
# needs neither ``dataclasses`` nor the code-inspection modules it pulls in,
# nor ``re`` or ``typing``, and runs no ``eval``; a run parses its flags
# without ``argparse`` and renders without ``json``.
# --------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_out_dataclasses_and_inspection_modules():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hh3.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', "
            "'dis', 're', 'typing') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_cli_import_builds_no_record_through_typing_namedtuple():
    # typing.NamedTuple leaves the field annotations in the class's own
    # __dict__; collections.namedtuple builds the same record in about half
    # the time and leaves none
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hh3.cli; "
            "records = {c for name, m in list(sys.modules.items()) "
            "if name.split('.')[0] == 'hh3' for c in vars(m).values() "
            "if isinstance(c, type) and issubclass(c, tuple) "
            "and hasattr(c, '_fields')}; "
            "print(len(records), *sorted(c.__qualname__ for c in records "
            "if '__annotations__' in vars(c)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    # the 14 record types; their base has no _fields of its own
    assert done.stdout.split() == ["14"]


def test_cli_import_calls_no_eval_exec_or_compile():
    # the standard modules hh3 builds on are loaded first; from then on
    # every exec or compile must be the import of a module's own code
    code = ("import functools, collections, operator, math, sys; "
            "sys.path.insert(0, sys.argv[1]); seen = []; "
            "sys.addaudithook(lambda event, args: seen.append("
            "args[0].co_filename if event == 'exec' else args[1]) "
            "if event in ('exec', 'compile') else None); import hh3.cli; "
            "print(*(f for f in seen if not f.endswith('.py') "
            "and not f.startswith('<frozen ')))")
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
                  "interval_bounds": (0.01,)}),
    (cli.RunConfig, {"command": "integrate", "expression": "x", "ast": _X,
                     "a": 0.0, "b": 1.0, "fmt": "json", "out": None, "n": 4,
                     "tol": None, "q": None, "n_list": (),
                     "n_max": 2 ** 20,
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


_FIELDS = {
    Num: ("value",),
    Var: (),
    Const: ("name",),
    Neg: ("operand",),
    BinOp: ("op", "left", "right"),
    Func: ("name", "arg"),
    DerivEndpoints: ("f3a_abs", "f3b_abs", "a", "b"),
    BoundReport: ("chi1", "chi2", "chi3", "q", "min_value", "argmin_label"),
    QuadResult: ("midpoint_sum", "corrected_sum", "certified_bound", "f3",
                 "interval_bounds"),
    Certificate: ("midpoint_sum", "corrected_sum", "certified_bound",
                  "order", "n", "log_convexity"),
    cli.RunConfig: ("command", "expression", "ast", "a", "b", "fmt", "out",
                    "n", "tol", "q", "n_list", "n_max",
                    "per_interval", "oracle"),
    cli.Option: ("flag", "kind", "commands", "help"),
    Table: ("keys", "columns"),
}


@pytest.mark.parametrize("cls", _FIELDS, ids=lambda cls: cls.__name__)
def test_record_fields_and_defaults_are_pinned(cls):
    assert cls._fields == _FIELDS[cls]


def test_record_repr_text_is_pinned():
    assert repr(Num(1.0)) == "Num(value=1.0)"
    assert repr(parse("-x^2")) == (
        "Neg(operand=BinOp(op='^', left=Var(), right=Num(value=2.0)))")


@pytest.mark.parametrize("cls, fields", _RECORDS,
                         ids=[cls.__name__ for cls, _ in _RECORDS])
def test_records_rebuild_like_named_tuples(cls, fields):
    record = cls(**fields)
    assert pickle.loads(pickle.dumps(record)) == record
    assert type(copy.copy(record)) is cls
    wrong = [((*fields.values(), 0.0), {}), ((), {**fields, "extra": 0})]
    if fields:  # a field left out, or given twice
        wrong += [((), {}),
                  (tuple(fields.values()), dict([*fields.items()][:1]))]
    for args, kwargs in wrong:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


#: One instance of each error, from the arguments its ``__init__`` takes.
_ERRORS = (
    errors.Hh3Error("plain"),
    errors.ExprSyntaxError(4, ("number", "'('"), "')'"),
    errors.UnknownIdentifier(0, "foo", ("x", "pi", "exp")),
    errors.DomainError("log needs a positive argument", expr_text="log(x)",
                       x=-1.0),
    errors.NonPositiveThirdDerivative(0.5, 1e-310),
    errors.BadInterval("need finite a < b, got [1.0, 0.0]"),
    errors.NonConvergence(200000),
    errors.NonConvergence(64, (1.0, 1.0000000000000002)),
    errors.ToleranceUnreachable(1e-30, 2.5e-12, 64),
    errors.BelowRoundingFloor(1e-20, 3.1e-18, 4096, 1.1e-16),
    errors.HypothesisNotProved("no proof was found"),
)


def test_every_error_class_has_an_instance_here():
    classes = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.Hh3Error)}
    assert classes == set(map(type, _ERRORS))


@pytest.mark.parametrize("error", _ERRORS,
                         ids=lambda error: type(error).__name__)
def test_errors_survive_pickle_and_copy(error):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for twin in (pickle.loads(pickle.dumps(error, protocol)),
                     copy.copy(error), copy.deepcopy(error)):
            assert type(twin) is type(error)
            assert (str(twin), twin.args) == (str(error), error.args)
            assert vars(twin) == vars(error)


def test_ast_nodes_key_the_jet_cache():
    assert compile_jet(parse("exp(x)"), 3) is compile_jet(parse("exp(x)"), 3)
    assert compile_jet(parse("exp(x)"), 4) is not compile_jet(
        parse("exp(x)"), 3)
    # equal trees, but their text tells the zeros apart
    zero, minus_zero = BinOp("*", Num(0.0), _X), BinOp("*", Num(-0.0), _X)
    assert zero == minus_zero
    assert compile_jet(zero, 3) is not compile_jet(minus_zero, 3)

