"""Benchmark for the ``hh3`` command line tool.

    python3 bench/run.py --workload certify-mix --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the jobs run one at a time as ``python -m hh3``
subprocesses (a closed loop with one client), each outcome is checked
against an mpmath oracle, and the end-to-end metrics are printed.  Their
times are scaled to a reference host speed by bare interpreter starts taken
between the jobs (see ``run_cli``).  With
``--trace 1`` the first rep of the same jobs runs in-process through
``hh3.cli.main``, alternating untraced and traced passes, and the
per-layer metrics are printed.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a run record
with every job's argv, exit code and wall time goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import mpmath

from oracle import Oracle, reference
from workloads import WORKLOADS, jobs_for, overflows_q_search

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

JOB_TIMEOUT_S = 120.0
SETUP_PROBES = 11

#: Wall time of a bare ``python -I -c pass`` on the reference host, an
#: unloaded 2-core x86 VM with Python 3.11: the speed the end-to-end times
#: are scaled to.
REF_START_S = 0.05


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(1)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HH3_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


# --------------------------------------------------------------------------
# Run record
# --------------------------------------------------------------------------

def _git_revision() -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _run_info(args) -> dict:
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((SRC / "hh3").glob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_revision": _git_revision(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_hh3_lines": lines,
    }


def _write_record(args, record: dict) -> Path:
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


# --------------------------------------------------------------------------
# Untraced CLI run: end-to-end metrics
# --------------------------------------------------------------------------

def _spawn(argv: list[str], env: dict) -> tuple[int | None, str, float]:
    """Run one child to completion; (exit code or None on timeout, stdout,
    wall seconds from spawn to exit)."""
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env,
                          cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=JOB_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            out, code = b"", None
    return code, out.decode("utf-8", "replace"), time.perf_counter() - start


def _start(argv: list[str], env: dict) -> float:
    """Wall time of one start-up probe, which must exit 0."""
    status, _, wall = _spawn(argv, env)
    if status != 0:
        _fail(f"{' '.join(argv[1:])!r} exited {status}")
    return wall


def _quantile(walls: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A beta-weighted mean of every order statistic rather than one or two of
    them.  A workload's job costs fall in clusters (certify-mix: thm1 jobs
    near 0.1 s, best's near 0.23 s and 0.37 s), and a single order
    statistic can sit at the edge of one, where a job or two crossing over
    moved it by 10-20 % between runs; the weighted mean moves smoothly.
    """
    ranked = sorted(walls)
    n = len(ranked)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    weights = [mpmath.betainc(a, b, i / n, (i + 1) / n, regularized=True)
               for i in range(n)]
    return float(mpmath.fsum(w * x for w, x in zip(weights, ranked)))


def _tail(walls: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with ten jobs beyond
    it."""
    p = (len(walls) - 10) / len(walls)
    return _quantile(walls, p), 100.0 * p


def run_cli(jobs, refs, oracle, env) -> dict:
    """Run the jobs and time each at the reference host speed.

    A shared VM changes speed by up to 1.5x, in spells of seconds to tens
    of seconds, as other tenants load its cores (measured on a 2-core x86
    VM).  A 30 s run catches a random share of slow spells, which spread
    the timings of the same code by up to a quarter between runs.  So a
    bare ``python -I -c pass``, which the program cannot affect, is timed
    after every job and start-up probe, and each of those walls is scaled
    by REF_START_S over the geometric mean of the bare starts just before
    and after it.  Raw walls and the bare starts are kept in the record.
    """
    hh3 = [sys.executable, "-m", "hh3"]
    bare_argv = [sys.executable, "-I", "-c", "pass"]
    _spawn(hh3 + jobs[0].argv(), env)          # warm the file cache
    bare = [_start(bare_argv, env)]

    def timed(wall: float) -> float:
        bare.append(_start(bare_argv, env))
        return wall * REF_START_S / math.sqrt(bare[-2] * bare[-1])

    # Start-up probes are spread over the run rather than bunched at its
    # start, so that they see the same machine as the jobs do.
    probe_at = {i * len(jobs) // SETUP_PROBES for i in range(SETUP_PROBES)}
    ready, records, walls, outcomes = [], [], [], Counter()
    for i, job in enumerate(jobs):
        if i in probe_at:
            wall = _start([sys.executable, "-c", "import hh3.cli"], env)
            ready.append(timed(wall))
        code, out, wall = _spawn(hh3 + job.argv(), env)
        walls.append(timed(wall))
        outcome, reason = oracle.judge(job, refs[job], code, out)
        outcomes[outcome] += 1
        records.append({"argv": ["python", "-m", "hh3", *job.argv()],
                        "exit": code, "wall_s": wall, "scaled_s": walls[-1],
                        "bare_after_s": bare[-1], "outcome": outcome,
                        "reason": reason,
                        "predicted_refusal": overflows_q_search(job)})
    tail, pct = _tail(walls)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "jobs_per_s": (len(jobs) / sum(walls), "1/s"),
        "latency_p50_s": (_quantile(walls, 0.5), "s"),
        "latency_tail_s": (tail, "s"),
        "ok_share": (outcomes["ok"] / len(jobs), "ratio"),
        "setup_s": (statistics.median(ready), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }
    notes = {"latency_tail_percentile": pct, "jobs": len(jobs),
             "bare_python_s": statistics.median(bare),
             "raw_wall_p50_s": statistics.median(r["wall_s"] for r in records),
             "failed_predicted": sum(r["predicted_refusal"] for r in records
                                     if r["outcome"] != "ok")}
    return {"metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "outcomes": outcomes, "notes": notes, "jobs": records}


# --------------------------------------------------------------------------
# Traced in-process run: per-layer metrics
# --------------------------------------------------------------------------

def _in_process(argv: list[str]) -> tuple[int, str, float]:
    import hh3.cli
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = hh3.cli.main(argv)
        except Exception:   # a crash is an outcome to record, not to raise
            code = 1
    return code, out.getvalue(), time.perf_counter() - start


def run_traced(jobs, refs, oracle, seconds: float) -> dict:
    from tracer import Tracer, layer_metrics
    os.environ.pop("HH3_THREADS", None)
    outcomes = Counter()

    def one_pass(tracer: Tracer | None) -> tuple[float, list]:
        total, records = 0.0, []
        with tracer.installed() if tracer else contextlib.nullcontext():
            for job in jobs:
                code, out, wall = _in_process(job.argv())
                total += wall
                outcome, reason = oracle.judge(job, refs[job], code, out)
                outcomes[outcome] += 1
                records.append({"argv": job.argv(), "exit": code,
                                "wall_s": wall, "outcome": outcome,
                                "reason": reason})
        return total, records

    one_pass(None)                              # warm-up, not timed
    outcomes.clear()
    untraced, traced, tracers = [], [], []
    deadline = time.monotonic() + seconds
    while not tracers or time.monotonic() < deadline:
        untraced.append(one_pass(None)[0])
        tracers.append(Tracer())
        wall, records = one_pass(tracers[-1])
        traced.append(wall)
    counts = [t.exact_counts() for t in tracers]
    metrics = layer_metrics(tracers)
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(traced) / statistics.median(untraced),
        "unit": "ratio"}
    notes = {"passes": len(tracers), "untraced_s": untraced,
             "traced_s": traced,
             "counts_repeat": all(c == counts[0] for c in counts),
             "exact_counts": counts[0]}
    return {"metrics": metrics, "outcomes": outcomes, "notes": notes,
            "jobs": records}


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hh3" / "cli.py").is_file():
        _fail(f"no hh3 sources under {SRC}; run from a checkout of the repo")
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}")

    env = _child_env()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    reps = jobs_for(args.workload, args.seed, args.seconds)
    jobs = reps[0] if args.trace else [job for rep in reps for job in rep]
    refs = {job: reference(job.family, job.c, job.a, job.b) for job in jobs}
    oracle = Oracle()
    if args.trace:
        result = run_traced(jobs, refs, oracle, args.seconds)
    else:
        result = run_cli(jobs, refs, oracle, env)

    outcomes = result["outcomes"]
    attempted = sum(outcomes.values())
    failed = attempted - outcomes["ok"]
    # A traced run whose counts differ between passes has a tracer that
    # misses calls, so its numbers are not to be trusted either.
    correct = (outcomes["wrong"] == 0
               and result["notes"].get("counts_repeat", True))
    result["notes"]["fail_share"] = f"{failed}/{attempted}"
    path = _write_record(args, {"run": _run_info(args), **result})
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"outcomes: {dict(outcomes)}  fail_share {failed}/{attempted}",
          file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
