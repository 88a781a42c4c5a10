"""End-to-end pipeline benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-mall-csv --seed 1 \\
        --seconds 25 --trace 0

The run generates the workload's inputs from ``--seed`` (see
:mod:`workloads`), measures them in a fresh interpreter (see
:mod:`measure`), prints every metric with its unit and sample count, and
ends with one JSON line::

    {"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a traced run and writes
the spans under ``.perfbench/traces/``.  The run refuses to start when an
environment variable would silently change a library default.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Environment overrides of library defaults; a benchmark run must not
#: inherit them, or a default flip could hide behind a stray variable.
REFUSED_ENV = ("TRIPS_RECORD_LAYOUT", "TRIPS_COLUMNAR_NUMPY")

#: Whole-run limit; the measuring process gets what generation left.
RUN_LIMIT_SECONDS = 170.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str]) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    # A terminated run still unwinds: the measuring process group is
    # killed and reaped, and the generated inputs are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        return fail(
            f"refusing to run with {', '.join(refused)} set: the benchmark "
            "measures library defaults"
        )
    if not (ROOT / "src" / "repro").is_dir():
        return fail(f"no program sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        return fail(
            f"unknown workload {args.workload!r} "
            f"(known: {', '.join(WORKLOADS)})"
        )
    scratch = ROOT / ".perfbench"
    work = scratch / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    result_path = work / "result.json"
    try:
        manifest = generate(args.workload, args.seed, args.seconds, work)
        limit = RUN_LIMIT_SECONDS - (time.monotonic() - started)
        code = run_measure(
            [
                sys.executable,
                str(HERE / "measure.py"),
                str(work),
                repr(args.seconds),
                str(args.trace),
                str(result_path),
            ],
            limit,
        )
        if code != 0:
            return fail(f"measuring {args.workload} failed (exit {code})")
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if set(metrics) != set(units):
        return fail(
            "measured metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(units))}"
        )
    report(args, manifest, result, units)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


def run_measure(command: list[str], limit: float) -> int:
    """Run the measuring process; kill its whole group past ``limit``."""
    process = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return process.wait(timeout=max(limit, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return -signal.SIGKILL
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()


def report(args, manifest: dict, result: dict, units: dict) -> None:
    """Human-readable lines ahead of the final JSON line."""
    print(
        f"workload {args.workload}  seed {args.seed}  "
        f"records {manifest['records']}  devices {manifest['devices']}  "
        f"trace {args.trace}"
    )
    print(f"config {json.dumps(result['stamp'], sort_keys=True)}")
    samples = result.get("samples", {})
    print(f"{'metric':<34} {'value':>16} {'unit':<6} samples")
    for name, unit in units.items():
        count = samples.get(name, "")
        print(f"{name:<34} {result['metrics'][name]:>16.6g} {unit:<6} {count}")
    for key in ("windows", "busy_share", "generator_lag_max_s"):
        if key in result:
            print(f"{key} {result[key]:.6g}")
    scope = "per-layer times are raw" if args.trace else (
        "end-to-end times are at the reference speed"
    )
    print(
        f"machine slowdown {result['slowdown']:.4g} (median calibration "
        f"loop time over its reference); {scope}"
    )
    if args.trace and result["stamp"]["backend"] == "serial":
        metrics = result["metrics"]
        layers = metrics["trace.phase_one_layers_s"]
        traced = metrics["engine.phase_one_s"]
        untraced = metrics["trace.phase_one_untraced_s"]
        overhead = metrics["trace.overhead_s"]
        gap = abs(layers - untraced)
        verdict = "within" if gap <= overhead else "outside"
        print(
            f"phase one: layer self times {layers:.4f} s of traced "
            f"{traced:.4f} s ({layers / traced:.2%}); untraced {untraced:.4f} s, "
            f"gap {gap:.4f} s {verdict} the tracing overhead {overhead:.4f} s"
        )
    elif args.trace:
        print("caller-side trace: phase one runs in pool workers, unseen")
    print(f"operations attempted {result['attempted']} failed {result['failed']}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
