"""Seeded job lists for the benchmark workloads.

A workload is a fixed sequence of job slots.  The seed draws only the
continuous parameters inside each slot (family constant, interval,
tolerance), so every seed runs the same mix of commands, methods, formats
and sizes, and two seeds differ only in numbers that do not change a job's
class.  A run repeats the slot list ``reps`` times with fresh draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from oracle import FAMILIES, STEEP_LOG_RATIO, reference

#: Families whose |f'''| is log-convex on x >= 0, with the range of c drawn
#: for them.  None of these ranges reaches |ln K| > 21.9 on one interval.
REGULAR = (("exp", 0.5, 4.0), ("expneg", 0.5, 4.0), ("exp2", 1.5, 4.0),
           ("cubexp", 0.5, 3.0), ("recip", 0.2, 2.0), ("log", 0.2, 2.0))


@dataclass(frozen=True)
class Job:
    """One ``hh3`` invocation and what the oracle needs to judge it."""

    command: str
    family: str
    c: str                      # decimal text of the family constant
    a: str
    b: str
    expect_exit: int = 0
    n: int | None = None
    tol: str | None = None
    method: str | None = None   # None leaves the program default (best)
    fmt: str | None = None
    n_max: int | None = None
    n_list: tuple[int, ...] = ()

    def argv(self) -> list[str]:
        args = [self.command, "--f", FAMILIES[self.family].text(self.c),
                "--a", self.a, "--b", self.b]
        if self.command == "integrate":
            args += ["--n", str(self.n), "--per-interval", "--oracle"]
        if self.tol is not None:
            args += ["--tol", self.tol]
        if self.method is not None:
            args += ["--method", self.method]
        if self.n_max is not None:
            args += ["--n-max", str(self.n_max)]
        if self.n_list:
            args += ["--n-list", ",".join(map(str, self.n_list))]
        if self.fmt is not None:
            args += ["--format", self.fmt]
        return args


def _num(x: float) -> str:
    return f"{x:.4g}"


class Draw:
    """Stratified uniform draws for one run of ``reps`` reps.

    Every rep makes the same sequence of draws, so the i-th draw of each
    rep belongs to the same slot parameter.  Over the run that parameter
    gets exactly one value in each 1/reps band of its range, the bands in a
    seeded order.  Two seeds then cover every range equally, and their runs
    differ in the values drawn but hardly in the spread of job costs.
    """

    def __init__(self, seed: str, reps: int):
        self._rng = random.Random(seed)
        self._bands: list[list[int]] = []
        self.reps = reps
        self.rep = 0
        self._i = 0     # uniform draws so far in this rep
        self._k = 0     # cycle picks so far in this rep

    def next_rep(self, rep: int):
        self.rep, self._i, self._k = rep, 0, 0

    def uniform(self, lo: float, hi: float) -> float:
        if self._i == len(self._bands):
            order = list(range(self.reps))
            self._rng.shuffle(order)
            self._bands.append(order)
        band = self._bands[self._i][self.rep]
        self._i += 1
        return lo + (hi - lo) * (band + self._rng.random()) / self.reps

    def log_uniform(self, lo_exp: float, hi_exp: float) -> float:
        return 10.0 ** self.uniform(lo_exp, hi_exp)

    def cycle(self, values: tuple):
        """The rep's entry of ``values``, cycling from a slot's own start.

        Sizes that set a job's cost come from here rather than from the
        seed, so every seed runs the same sizes in the same slots.
        """
        self._k += 1
        return values[(self.rep + self._k) % len(values)]


def _interval(draw: Draw) -> tuple[str, str]:
    a = round(draw.uniform(0.0, 1.0), 3)
    return repr(a), repr(round(a + draw.uniform(0.5, 2.0), 3))


def _regular(draw: Draw, family: str, lo: float, hi: float,
             **fields) -> Job:
    a, b = _interval(draw)
    return Job(family=family, c=_num(draw.uniform(lo, hi)), a=a, b=b,
               **fields)


def _steep(draw: Draw, family: str, lo: float, hi: float, **fields) -> Job:
    """An exponential whose |ln K| = c * (b - a) lies in [lo, hi]."""
    a, b = _interval(draw)
    c = draw.uniform(lo, hi) / (float(b) - float(a))
    return Job(family=family, c=_num(c), a=a, b=b, **fields)


def _tol(job: Job, rel: float) -> Job:
    """Give a certify job an absolute tolerance rel * |I|."""
    ref = reference(job.family, job.c, job.a, job.b)
    return replace(job, tol=f"{rel * abs(float(ref.integral)):.3e}")


#: Smallest reachable tolerance, as a share of |I|.  The sum is formed with
#: fsum, so its rounding error is a few ulps of |I| (~1e-15); a certified
#: bound at least tol/4.8 >= 2e-14 of |I| leaves room for a sound rounding
#: term of up to ~100 ulps without making a reachable job unreachable.
_REACHABLE = 1e-13


def _certify(draw: Draw, family: str, lo: float, hi: float,
             method: str | None, n_exps: tuple[int, int]) -> Job:
    """A certify job whose tolerance makes the doubling stop at a set n.

    Once h is small the composite chi1 bound approaches
    h^3/192 * |f''(b) - f''(a)| (the integral of |f'''|), and from n = 4 on
    it stays within 0.75x..1x of that.  A tolerance drawn log-uniform
    between 1.7x and 4.8x that value at n lies between the bounds at n and
    n/2, so a job's cost is set by n while its tolerance still varies.
    """
    job = _regular(draw, family, lo, hi, command="certify", method=method)
    ref = reference(job.family, job.c, job.a, job.b)
    width = float(job.b) - float(job.a)
    n = 2 ** draw.cycle(tuple(range(n_exps[0], n_exps[1] + 1)))
    spread = 8.0 ** draw.uniform(0.25, 0.75)

    def tol(n: int) -> float:
        return (width / n) ** 3 / 192 * float(ref.f2_change) * spread
    while n > 8 and tol(n) < _REACHABLE * abs(float(ref.integral)):
        n //= 2
    return replace(job, tol=f"{tol(n):.3e}")


# --------------------------------------------------------------------------
# certify-mix: time to a certified answer
# --------------------------------------------------------------------------

def certify_slots(draw: Draw) -> list[Job]:
    jobs = []
    for family, lo, hi in REGULAR:
        # thm1 stops at n = 8 ... 512, best at 64 or 128, where its
        # q-search costs 0.15 or 0.3 s a job.  No family's tolerance then
        # falls below the reachable limit above.
        jobs.append(_certify(draw, family, lo, hi, "thm1", (3, 9)))
        jobs.append(_certify(draw, family, lo, hi, None, (6, 7)))
    # Below the floor: exp(c x) with c near 50 has ulp(|I|) ~ 1e4, and a
    # plain family asked for 1e-18 of |I|.  No n certifies either; the
    # --n-max cap keeps the failing run short and its answer is exit 2.
    a = repr(round(draw.uniform(0.0, 0.5), 3))
    jobs.append(Job(command="certify", family="exp",
                    c=_num(draw.uniform(40.0, 60.0)), a=a,
                    b=repr(round(float(a) + 1.0, 3)), method="thm1",
                    tol=f"{draw.log_uniform(-7, -5):.3e}",
                    n_max=2 ** draw.cycle((10, 11, 12)), expect_exit=2))
    floor = _regular(draw, "exp2", 1.5, 4.0, command="certify",
                     method="thm1", n_max=2 ** draw.cycle((10, 11, 12)),
                     expect_exit=2)
    jobs.append(_tol(floor, draw.log_uniform(-19, -18)))
    return jobs


# --------------------------------------------------------------------------
# check-mix: short hypothesis and bound reports
# --------------------------------------------------------------------------

def check_slots(draw: Draw) -> list[Job]:
    jobs = []
    for family, lo, hi in REGULAR:
        jobs.append(_regular(draw, family, lo, hi, command="bounds"))
        jobs.append(_regular(draw, family, lo, hi, command="verify"))
    # Steep ratios, |ln K| in [23, 40]: valid input with a finite chi1.
    jobs.append(_steep(draw, "exp", 23.0, 40.0, command="bounds"))
    jobs.append(_steep(draw, "expneg", 23.0, 40.0, command="bounds"))
    jobs.append(_steep(draw, "exp", 23.0, 40.0, command="verify"))
    # The catalog's case whose verdict must come out false.
    for command in ("bounds", "verify"):
        jobs.append(Job(command=command, family="quartic", c="", a="1",
                        b="2"))
    return jobs


# --------------------------------------------------------------------------
# integrate-report: one large composite bound and its rendering
# --------------------------------------------------------------------------

#: (method, format, largest n) of the fixed-n integrate slots; each job
#: takes a fixed n between half the largest and the largest.  thm1 at
#: n <= 4096 keeps the certified bound >= 80x the rounding error of the sum
#: on every family; the 16384 slot uses steep exponentials, whose bound
#: stays >= 1e3x above it, so no job's outcome hinges on rounding.  Each
#: rep then sorts into two cheap thm1 reports, three best reports and two
#: large jobs (n = 16384, sweep), so the median falls inside best's cluster
#: rather than at its edge.
_INTEGRATE = (("thm1", "csv", 4096), ("thm1", "text", 4096),
              ("best", "json", 512), ("best", "csv", 512),
              ("best", "text", 512))
_SWEEP = tuple(2 ** k for k in range(9))


def _size(draw: Draw, largest: int) -> int:
    return int(largest * 2.0 ** -draw.cycle(tuple(k / 8 for k in range(8))))


def integrate_slots(draw: Draw) -> list[Job]:
    rep = draw.rep
    jobs = [_steep(draw, ("exp", "expneg")[rep % 2], 8.0, 14.0,
                   command="integrate", method="thm1",
                   n=_size(draw, 16384))]
    for i, (method, fmt, largest) in enumerate(_INTEGRATE):
        family, lo, hi = REGULAR[(i + rep) % len(REGULAR)]
        jobs.append(_regular(draw, family, lo, hi, command="integrate",
                             method=method, fmt=None if fmt == "json" else fmt,
                             n=_size(draw, largest)))
    family, lo, hi = REGULAR[(len(_INTEGRATE) + rep) % len(REGULAR)]
    jobs.append(_regular(draw, family, lo, hi, command="sweep",
                         n_list=_SWEEP))
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    slots: Callable[[Draw], list[Job]]
    #: Elapsed seconds of one rep in an untraced run at the seed on a
    #: 2-core x86 VM: the jobs, a bare start after each and the oracle.
    rep_seconds: float


WORKLOADS = {w.name: w for w in (
    Workload("certify-mix", certify_slots, 5.0),
    Workload("check-mix", check_slots, 4.1),
    Workload("integrate-report", integrate_slots, 5.0),
)}

#: Fewest jobs in a run, so that the tail percentile has ten jobs beyond it
#: and still sits above the median.
MIN_JOBS = 30


def jobs_for(name: str, seed: int, seconds: float) -> list[list[Job]]:
    """The run's jobs, grouped by rep; the same seed gives the same jobs.

    The job count follows from ``seconds`` and the workload's nominal rep
    time, not from the clock, so every commit runs the identical list.
    """
    workload = WORKLOADS[name]
    per_rep = len(workload.slots(Draw("", 1)))
    reps = max(round(seconds / workload.rep_seconds), -(-MIN_JOBS // per_rep))
    draw = Draw(f"{name}/{seed}", reps)
    out = []
    for rep in range(reps):
        draw.next_rep(rep)
        out.append(workload.slots(draw))
    return out


def overflows_q_search(job: Job) -> bool:
    """Is this a ``bounds`` job whose ratio overflows the seed's q-search?

    Such jobs are valid input (chi1 is finite) and expect exit 0; the seed
    exits 2 on them (ROADMAP item 2), so they are its predicted failures.
    """
    ref = reference(job.family, job.c, job.a, job.b)
    return job.command == "bounds" and abs(ref.log_ratio) > STEEP_LOG_RATIO
