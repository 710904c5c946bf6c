"""Expected outcomes for benchmark jobs, decided without asking the program.

Every integrand family below comes with its antiderivative, its second and
third derivatives in closed form and its known hypothesis status, all in
mpmath.  Constants are taken as the doubles the program parses from the
same decimal text, so the 50-digit reference is the exact integral of the
function the program actually evaluates.

A job's outcome falls in one of four classes:

``ok``       the expected exit code, and every check on the report passed;
``refused``  exit 2 on input the oracle deems valid (a failure, not a lie);
``error``    a timeout, a crash or any exit code other than 0 and 2;
``wrong``    exit 0 with a report that fails a check, or exit 0 where the
             oracle predicts that no certificate exists.

Only ``wrong`` makes a run incorrect; every class but ``ok`` counts as
failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import jsonschema
import mpmath

DPS = 50

#: Steepest |ln K| the seed's q-grid search survives: q * |ln K| / 2 <= 700
#: with q up to 64.  Jobs beyond it are valid input that the seed refuses.
STEEP_LOG_RATIO = 21.875

#: |identity_residual| allowed per unit of the mean of f.  An absolute
#: threshold means nothing once |f| is 1e13; relative to the mean it is the
#: same 1e-10 the repository's tests apply to integrands of unit size.
RESIDUAL_RTOL = 1e-10
CHI_RTOL = 1e-12
TEXT_RTOL = 5e-6  # text reports round floats to six significant digits


@dataclass(frozen=True)
class Family:
    """An integrand family f(x; c) with everything the oracle needs."""

    name: str
    template: str                    # expression text with a {c} slot
    antiderivative: Callable         # F(c, x) with F' = f
    second: Callable                 # f''(c, x)
    third: Callable                  # f'''(c, x)
    log_convex: bool                 # is |f'''| log-convex on x >= 0?
    convex: bool                     # is f convex on x >= 0?

    def text(self, c: str) -> str:
        return self.template.format(c=c)


_e = mpmath.exp
FAMILIES = {f.name: f for f in (
    Family("exp", "exp({c}*x)",
           lambda c, x: _e(c * x) / c,
           lambda c, x: c ** 2 * _e(c * x),
           lambda c, x: c ** 3 * _e(c * x), True, True),
    # the parser reads "-c*x" as (-c)*x, so k = -c is the double it uses
    Family("expneg", "exp(-{c}*x)",
           lambda c, x: -_e(-c * x) / c,
           lambda c, x: c ** 2 * _e(-c * x),
           lambda c, x: -c ** 3 * _e(-c * x), True, True),
    Family("exp2", "exp(x)+exp({c}*x)",
           lambda c, x: _e(x) + _e(c * x) / c,
           lambda c, x: _e(x) + c ** 2 * _e(c * x),
           lambda c, x: _e(x) + c ** 3 * _e(c * x), True, True),
    Family("cubexp", "x^3+exp({c}*x)",
           lambda c, x: x ** 4 / 4 + _e(c * x) / c,
           lambda c, x: 6 * x + c ** 2 * _e(c * x),
           lambda c, x: 6 + c ** 3 * _e(c * x), True, True),
    Family("recip", "1/(x+{c})",
           lambda c, x: mpmath.log(x + c),
           lambda c, x: 2 / (x + c) ** 3,
           lambda c, x: -6 / (x + c) ** 4, True, True),
    Family("log", "log(x+{c})",
           lambda c, x: (x + c) * mpmath.log(x + c) - (x + c),
           lambda c, x: -1 / (x + c) ** 2,
           lambda c, x: 2 / (x + c) ** 3, True, False),
    # The catalog's negative case: |f'''| = 24x has concave logarithm.
    Family("quartic", "x^4",
           lambda c, x: x ** 5 / 5,
           lambda c, x: 12 * x ** 2,
           lambda c, x: 24 * x, False, True),
)}


def _mp(text: str) -> mpmath.mpf:
    """The double the program parses from ``text``, exactly."""
    return mpmath.mpf(float(text))


def _mu(log_k: mpmath.mpf) -> mpmath.mpf:
    """mu(K) = integral of t^3 K^(t/2) over [0, 1], from ln K."""
    half = log_k / 2
    if half == 0:
        return mpmath.mpf(1) / 4
    with mpmath.workdps(2 * DPS):  # the closed form cancels near K = 1
        poly = ((half - 3) * half + 6) * half - 6
        return (mpmath.exp(half) * poly + 6) / half ** 4


@dataclass(frozen=True)
class Reference:
    """50-digit facts about one job's integrand and interval."""

    integral: mpmath.mpf
    f3a: mpmath.mpf
    f3b: mpmath.mpf
    chi1: mpmath.mpf
    log_ratio: mpmath.mpf       # ln |f'''(a)/f'''(b)|
    f2_change: mpmath.mpf       # |f''(b) - f''(a)|, the integral of |f'''|


def reference(family: str, c: str, a: str, b: str) -> Reference:
    fam = FAMILIES[family]
    with mpmath.workdps(DPS):
        cv = _mp(c) if c else mpmath.mpf(0)
        av, bv = _mp(a), _mp(b)
        integral = fam.antiderivative(cv, bv) - fam.antiderivative(cv, av)
        f3a = abs(fam.third(cv, av))
        f3b = abs(fam.third(cv, bv))
        log_k = mpmath.log(f3a / f3b)
        width = mpmath.mpf(float(b) - float(a))   # the program's width
        chi1 = width ** 3 / 96 * (f3b * _mu(log_k) + f3a * _mu(-log_k))
        f2_change = abs(fam.second(cv, bv) - fam.second(cv, av))
        return Reference(integral, f3a, f3b, chi1, log_k, f2_change)


class CheckFailed(Exception):
    """A report contradicts the oracle; the message says how."""


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _close(got: float, want: mpmath.mpf, rtol: float) -> bool:
    return abs(mpmath.mpf(got) - want) <= rtol * abs(want)


def _load_schema() -> dict:
    root = Path(__file__).resolve().parent.parent
    schema = json.loads((root / "src" / "hh3" / "schema.json").read_text())
    jsonschema.Draft7Validator.check_schema(schema)
    return schema


# --------------------------------------------------------------------------
# Reading reports back
# --------------------------------------------------------------------------

def _number(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _unflatten(pairs) -> dict:
    """Rebuild the report dict from dotted keys; numeric parts index lists."""
    doc: dict = {}
    for key, value in pairs:
        parts = key.split(".")
        node = doc
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = _number(value)

    def lists(node):
        if isinstance(node, dict):
            if node and all(k.isdigit() for k in node):
                return [lists(node[str(i)]) for i in range(len(node))]
            return {k: lists(v) for k, v in node.items()}
        return node
    return lists(doc)


def parse_report(text: str, fmt: str) -> dict:
    """A json, csv (key,value) or text (key = value) report as a dict."""
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        _require(rows[0] == ["key", "value"], f"csv header {rows[0]!r}")
        return _unflatten(rows[1:])
    pairs = []
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        _require(sep != "", f"text line without ' = ': {line!r}")
        pairs.append((key.rstrip(), value))
    return _unflatten(pairs)


def parse_sweep(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    return [{k: _number(v) for k, v in row.items()} for row in rows]


# --------------------------------------------------------------------------
# Checks per command
# --------------------------------------------------------------------------

class Oracle:
    """Decides expected exit codes and checks reports against references."""

    def __init__(self):
        self._schema = _load_schema()
        self._validator = jsonschema.Draft7Validator(self._schema)
        interval = self._schema["definitions"]["interval"]
        self._interval_keys = set(interval["required"])

    def judge(self, job, ref: Reference, code: int | None,
              stdout: str) -> tuple[str, str]:
        """Return (outcome class, reason) for one finished job."""
        if code is None:
            return "error", "timed out"
        if code not in (0, 2):
            return "error", f"exit {code}"
        if code != job.expect_exit:
            if code == 2:
                return "refused", "exit 2 on valid input"
            return "wrong", "exit 0 where no certificate can exist"
        if code == 2:
            return ("ok", "") if stdout == "" else \
                ("wrong", "exit 2 with a report on stdout")
        try:
            self._check(job, ref, stdout)
        except CheckFailed as exc:
            return "wrong", str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return "wrong", f"unreadable report: {exc!r}"
        return "ok", ""

    def _check(self, job, ref: Reference, stdout: str):
        if job.command == "sweep":
            self._check_sweep(job, ref, parse_sweep(stdout))
            return
        fmt = job.fmt or "json"
        doc = parse_report(stdout, fmt)
        if fmt == "json":
            self._validate(doc)
        rtol = TEXT_RTOL if fmt == "text" else 0.0
        _require(doc["command"] == job.command, "wrong command echoed")
        getattr(self, f"_check_{job.command}")(job, ref, doc, rtol)

    def _validate(self, doc: dict):
        # Validating thousands of identical interval objects costs seconds
        # per report; validate a sample and check every key set instead.
        intervals = doc.get("intervals")
        if intervals is not None and len(intervals) > 8:
            for item in intervals:
                _require(set(item) == self._interval_keys,
                         f"interval keys {sorted(item)}")
            doc = dict(doc, intervals=intervals[:4] + intervals[-4:])
        error = jsonschema.exceptions.best_match(
            self._validator.iter_errors(doc))
        _require(error is None, f"schema: {error.message if error else ''}")

    @staticmethod
    def _certified(ref: Reference, total: float, bound: float, rtol: float,
                   what: str):
        slack = rtol * abs(ref.integral) + rtol * bound
        error = abs(ref.integral - mpmath.mpf(total))
        _require(error <= mpmath.mpf(bound) + slack,
                 f"{what}: |I - corrected_sum| = {mpmath.nstr(error, 5)} "
                 f"exceeds certified bound {bound!r}")

    def _check_bounds(self, job, ref, doc, rtol):
        fam = FAMILIES[job.family]
        _require(_close(doc["f3a_abs"], ref.f3a, CHI_RTOL), "f3a_abs")
        _require(_close(doc["f3b_abs"], ref.f3b, CHI_RTOL), "f3b_abs")
        _require(_close(doc["chi1"], ref.chi1, CHI_RTOL),
                 f"chi1 {doc['chi1']!r} vs mpmath {mpmath.nstr(ref.chi1, 17)}")
        _require(doc["min_value"] <= doc["chi1"], "min_value above chi1")
        verdict = doc["log_convexity"]["passed"]
        _require(verdict == fam.log_convex,
                 f"log-convexity verdict {verdict}, known {fam.log_convex}")
        _require(doc["hypothesis_supported"] == verdict,
                 "hypothesis_supported disagrees with the verdict")

    def _check_verify(self, job, ref, doc, rtol):
        fam = FAMILIES[job.family]
        mean = ref.integral / (float(job.b) - float(job.a))
        limit = RESIDUAL_RTOL * max(1, abs(mean))
        _require(abs(doc["identity_residual"]) <= limit,
                 f"identity_residual {doc['identity_residual']!r}")
        verdict = doc["log_convexity"]["passed"]
        _require(verdict == fam.log_convex,
                 f"log-convexity verdict {verdict}, known {fam.log_convex}")
        hh = doc["hermite_hadamard"]
        _require(hh["convex"] == fam.convex,
                 f"convexity {hh['convex']}, known {fam.convex}")
        if fam.convex:
            _require(hh["passed"], "Hermite-Hadamard failed for convex f")
            _require(_close(hh["integral_mean"], mean, 1e-10),
                     "Hermite-Hadamard integral_mean")
        else:
            x = mpmath.mpf(hh["witness_x"])
            _require(fam.second(_mp(job.c), x) < 0,
                     "non-convexity witness has f'' >= 0")

    def _check_integrate(self, job, ref, doc, rtol):
        _require(doc["n"] == job.n, "n echoed wrong")
        self._certified(ref, doc["corrected_sum"], doc["certified_bound"],
                        rtol, "integrate")
        _require(doc["sound"] is True, "report says unsound")
        _require(_close(doc["true_value"], ref.integral, 1e-11 + rtol),
                 "reference integrator value")
        intervals = doc["intervals"]
        _require(len(intervals) == job.n, "interval count")
        if rtol == 0.0:
            _require(intervals[0]["lo"] == float(job.a)
                     and intervals[-1]["hi"] == float(job.b),
                     "intervals do not span [a, b]")
            total = math.fsum(item["bound"] for item in intervals)
            _require(total == doc["certified_bound"],
                     "interval bounds do not sum to certified_bound")
            for left, right in zip(intervals, intervals[1:]):
                _require(left["hi"] == right["lo"], "intervals not contiguous")

    def _check_certify(self, job, ref, doc, rtol):
        bound = doc["certified_bound"]
        _require(bound <= float(job.tol), f"bound {bound!r} above tol")
        n = doc["n_final"]
        _require(n == 2 ** (doc["iterations"] - 1), "n_final vs iterations")
        self._certified(ref, doc["corrected_sum"], bound, rtol, "certify")

    def _check_sweep(self, job, ref, rows):
        _require([row["n"] for row in rows] == list(job.n_list),
                 "sweep n column")
        for row in rows:
            _require(row["bound_best"] <= row["bound_thm1"],
                     f"n={row['n']}: best bound above thm1")
            self._certified(ref, row["corrected_sum"], row["bound_best"],
                            0.0, f"sweep n={row['n']}")
