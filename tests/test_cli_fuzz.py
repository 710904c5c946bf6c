"""A grammar fuzzer for the command line's exit-code contract.

Random expression trees run through :func:`hh3.cli.main` in process, each
on one of a few intervals that reach the edges of float range and under
one of the commands.  Whatever the input, no exception escapes, the exit
code is 0, 2 or 64, an exit 2 names its reason and not a bare errno tuple,
and an exit 0 prints JSON that ``schema.json`` accepts.  Every certificate
an exit 0 prints, a sweep's on each row, is at least the rounding floor of
its sum: half an ulp of ``corrected_sum``.
"""

import contextlib
import io
import json
import math
import re

import jsonschema
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hh3.cli import EXIT_MATH, EXIT_OK, EXIT_USAGE, main
from hh3.expr import parse, to_text
from test_cli import schema
from test_expr import _INTERVALS, _ast_strategy

_COMMANDS = [
    ("bounds",),
    ("integrate", "--n", "4"),
    ("integrate", "--n", "4", "--per-interval"),
    ("integrate", "--n", "4", "--oracle"),
    ("certify", "--tol", "1e-6", "--n-max", "64"),
    ("verify",),
    ("sweep", "--n-list", "1,2,4"),                    # CSV, not JSON
]
_SCHEMA = schema()
_ERRNO = re.compile(r"\(\d+, '")  # str() of a bare OverflowError of **


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ast_strategy(), st.sampled_from(_INTERVALS),
       st.sampled_from(_COMMANDS))
# x^400 underflows to 0, and 1/x^400 raised ZeroDivisionError (exit 1)
@example(parse("x^-400"), ("0.1", "1"), ("bounds",))
@example(parse("x^-400"), ("0.1", "1"), ("integrate", "--n", "4"))
@example(parse("1.2842606408325774e-07^-47"), ("0", "1"), ("bounds",))
# q ln K / 2 far below -700 overflowed mu's L^4 (a bare errno tuple)
@example(parse("exp(x)"), ("0", "1"), ("bounds", "--q", "1e80"))
@example(parse("exp(-3*x)"), ("0", "1"), ("bounds", "--q", "1e300"))
def test_every_run_exits_0_2_or_64_and_names_why(tree, interval, command):
    argv = [*command, "--f", to_text(tree), "--a", interval[0],
            "--b", interval[1]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_MATH, EXIT_USAGE), argv
    if code == EXIT_MATH:
        assert not _ERRNO.search(err.getvalue()), (argv, err.getvalue())
    elif code == EXIT_OK and command[0] == "sweep":
        # n, midpoint_sum, corrected_sum, bound_thm1, ...
        for row in out.getvalue().splitlines()[1:]:
            _, _, corrected_sum, bound, *_ = map(float, row.split(","))
            assert 2 * bound >= math.ulp(corrected_sum), (argv, row)
    elif code == EXIT_OK:
        doc = json.loads(out.getvalue())
        jsonschema.validate(doc, _SCHEMA)
        if "certified_bound" in doc:   # integrate and certify
            assert 2 * doc["certified_bound"] >= math.ulp(
                doc["corrected_sum"]), argv
