"""Names that other code looks up as strings must keep resolving.

``bench/tracer.py`` wraps functions by attribute name, and each ``__all__``
lists what ``from ... import *`` hands out.  A rename or deletion that
misses either fails here, not halfway through a traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import hh3
import hh3.quadrature

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_bench_tracer_resolves_every_target():
    spec = importlib.util.spec_from_file_location("hh3_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = hh3.quadrature.composite_bound
    with tracer.Tracer().installed():  # a KeyError names a missing target
        assert hh3.quadrature.composite_bound is not original
    assert hh3.quadrature.composite_bound is original


@pytest.mark.parametrize("name", ["hh3"] + [
    f"hh3.{info.name}" for info in pkgutil.iter_modules(hh3.__path__)
    if info.name != "__main__"])
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
