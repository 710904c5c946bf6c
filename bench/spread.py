"""Run a workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload check-mix --seeds 1-10 [--trace 0]
                            [--out bench/baseline/BENCH_<tag>.json]

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the inter-quartile
distance as a share of the median, next to the bound in BENCHMARK.json.
Runs are sequential: the benchmark is a closed loop with one client and
must not compete with itself for the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in
              manifest["end_to_end"] + manifest["per_layer"]}
    runs = []
    for seed in _seeds(args.seeds):
        argv = [*manifest["command"], "--workload", args.workload,
                "--seed", str(seed), "--seconds",
                str(manifest["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"],
                         "median": median, "q1": q1, "q3": q3,
                         "iqr_share": share, "bound": bounds.get(name),
                         "values": values}
        bound = bounds.get(name)
        flag = "" if bound is None else \
            ("ok" if share < bound / 3 else "WIDE" if share > bound else "~")
        print(f"{name:40s} median {median:12.6g} q1 {q1:12.6g} q3 {q3:12.6g}"
              f" iqr/med {share:7.4f} bound {bound} {flag}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace,
             "run_seconds": manifest["run_seconds"],
             "runs": [{k: r[k] for k in ("seed", "correct", "attempted",
                                        "failed")} for r in runs],
             "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
