"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --first-seed 1 \\
        [--workload NAME ...] [--out perfbench/baseline/FILE.json]

Every workload of ``BENCHMARK.json`` (or the ones named) runs ``--runs``
times, each with its own seed, untraced and with the benchmark's
``run_seconds``.  For each end-to-end metric the script prints the median
and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, beside
the metric's bound.  ``--out`` saves every run's values as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> tuple[float, float]:
    """``(median, (q3 - q1) / median)`` of the values."""
    median = statistics.median(values)
    first, _, third = statistics.quantiles(values, n=4)
    return median, (third - first) / median


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    started = time.monotonic()
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=False
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} failed ({completed.returncode}):\n"
            f"{completed.stderr}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["run_s"] = time.monotonic() - started
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {
        "machine": {
            "python": platform.python_version(),
            "processor": platform.processor() or platform.machine(),
        },
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    ok = True
    for workload in workloads:
        runs = [
            run_once(spec, workload, seed)
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        rows = {}
        print(f"\n{workload}: {args.runs} runs, "
              f"{sum(r['run_s'] for r in runs):.0f} s, "
              f"failed {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)}")
        print(f"  {'metric':<26} {'median':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            median, share = spread(values)
            rows[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": median,
                "spread": share,
                "values": values,
            }
            flag = "" if share < bound / 3 else "  <- over bound/3"
            if name != "setup_s" and share > bound:
                ok = False
            print(f"  {name:<26} {median:>12.5g} {share:>8.3f} {bound:>6}{flag}")
        report["workloads"][workload] = {
            "seeds": [run["seed"] for run in runs],
            "correct": all(run["correct"] for run in runs),
            "metrics": rows,
        }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
