"""The repository benchmark: one command, every metric, every op checked.

    python3 perfbench/run.py --workload abelian_mix --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads: abelian_mix, presentation_mix,
snf_dense (see perfbench/README.md for what each loads and bypasses).

With `--trace 0` the result line carries the end-to-end metrics:

* setup_s      median wall time of a fresh interpreter that imports
               `aspherical.cli` and runs `classify Z^2`, over repeated
               launches, one child at a time;
* batch_s      median time of one pass over the workload's op list;
* op_p50_ms, op_p90_ms
               per-op latency percentiles over every timed op;
* peak_rss_mb  peak RSS of the fresh child that ran the workload.

Every time is scaled to nominal machine speed by reference chunks timed
next to it (see pace.py); the raw batch time and the speed are printed.

`failed_frac` (failed over attempted ops) is printed with the others,
and its parts are the result line's `attempted` and `failed`.

With `--trace 1` the result line carries the per-layer metrics of a
traced run instead (see tracing.py), measured in the same child after
an untraced half whose batch time gives the tracing overhead.

The program is used from `src/` as checked out; nothing is installed.
Exit status is 0 with a result line, or nonzero without one when the
program is missing or the run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 15
# Reference chunks timed before and after each launch, about 16 ms each side.
SETUP_CHUNKS = 10
SETUP_REFERENCE = "interpreted"
SETUP_SCRIPT = (
    "import sys; sys.path.insert(0, 'src'); "
    "from aspherical.cli import main; sys.exit(main(['classify', 'Z^2']))"
)
# A run must end within 180 s; the child gets what is left after setup.
RUN_DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

def measure_setup(deadline: float) -> float:
    """Median cold start over SETUP_LAUNCHES launches after one warm-up
    launch, which leaves bytecode caches as an installed package has them.
    Each launch is scaled by the reference chunks timed around it."""
    times = []
    for k in range(SETUP_LAUNCHES + 1):
        chunks = [pace.chunk(SETUP_REFERENCE) for _ in range(SETUP_CHUNKS)]
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        elapsed = time.perf_counter() - t0
        chunks += [pace.chunk(SETUP_REFERENCE) for _ in range(SETUP_CHUNKS)]
        if proc.returncode != 0 or "aspherical: true" not in proc.stdout:
            raise RuntimeError(f"classify Z^2 failed in a fresh interpreter: {proc.stderr.strip()[-300:]}")
        if k:
            times.append(elapsed * pace.speed(SETUP_REFERENCE, chunks))
    return statistics.median(times)


def run_worker(args, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-600:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="aspherical benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aspherical" / "cli.py").is_file():
        print(f"error: the aspherical sources are not under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        setup_s = None if args.trace else measure_setup(deadline)
        r = run_worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}: closed loop, one caller, "
          f"{r['ops_per_batch']} ops per batch, {r['batches']} timed batches")
    if args.trace:
        metrics = {name: r["per_layer"][name] for name in tracing.PER_LAYER}
        units = {name: tracing.unit(name) for name in metrics}
        print(f"traced batches: {r['traced_batches']} (per-layer values are medians over them)")
    else:
        metrics = {
            "setup_s": setup_s,
            "batch_s": r["batch_s"],
            "op_p50_ms": r["op_p50_ms"],
            "op_p90_ms": r["op_p90_ms"],
            "peak_rss_mb": r["peak_rss_mb"],
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    if not args.trace:
        print(f"latency samples: {r['samples']} ({r['samples'] // 10} beyond p90); "
              f"setup launches: {SETUP_LAUNCHES}")
        print(f"raw batch_s: {r['raw_batch_s']:.6g} s at machine speed {r['speed']:.3f} of nominal")
        print("batch times (s): " + " ".join(f"{t:.3f}" for t in r["batch_times"]))
    print(f"failed_frac: {r['failed'] / r['attempted']:.6g} ratio ({r['failed']}/{r['attempted']} ops)")
    for line in r["failures"]:
        print(f"FAILED {line}")
    for line in r["wrong"]:
        print(f"WRONG {line}")
    result = {
        "correct": not r["wrong"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
