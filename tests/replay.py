"""Replay the benchmark's jobs in process and print a digest of each.

    python tests/replay.py > replay.txt

For each workload of ``bench/workloads.py`` and seeds 1 to 3, the jobs of
a 30-second run (735 in all) run one after another through
``hh3.cli.main``, from the ``src`` of the checkout that holds this file.
Each job prints one line: the workload, seed, index, argv as JSON, exit
code, and the sha256 of stdout and of stderr.  The last line is the sha256
over all the lines before it.  Run this in two checkouts and diff the
outputs: a change that keeps every report byte shows no difference.

Its name does not match ``test_*.py``, so pytest does not collect it.  It
needs what ``bench/`` needs: ``mpmath`` and ``jsonschema``.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from hh3 import cli  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

SEEDS = (1, 2, 3)
SECONDS = 30


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def lines():
    """One line per job, in workload, seed and job order."""
    for workload in WORKLOADS:
        for seed in SEEDS:
            jobs = [job for rep in jobs_for(workload, seed, SECONDS)
                    for job in rep]
            for index, job in enumerate(jobs):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(job.argv())
                yield " ".join([workload, str(seed), str(index),
                                json.dumps(job.argv()), str(code),
                                _sha256(out.getvalue()),
                                _sha256(err.getvalue())])


def main() -> None:
    total = hashlib.sha256()
    for line in lines():
        print(line, flush=True)
        total.update(line.encode("utf-8") + b"\n")
    print("all", total.hexdigest())


if __name__ == "__main__":
    main()
