"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks, for every workload:
* the same seed generates the same op list, and another seed another;
* a traced run gives byte-identical stdout for every op to the untraced
  passes of the same run, so tracing does not change the program's
  output (the worker compares digests and reports any difference);
* two runs of one seed report identical counts and call numbers;
* a held-out seed gives the same failed_frac as the default seed.

Each run is a short `worker.py --trace 1` child, so this takes a minute
or two.  Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

EXACT = [n for n in tracing.PER_LAYER if tracing.unit(n) != "s"]


def worker(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed on {workload} seed {seed}: {proc.stderr[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    for w in workloads.WORKLOADS:
        expect(
            workloads.build(w, DEFAULT_SEED) == workloads.build(w, DEFAULT_SEED)
            and workloads.build(w, DEFAULT_SEED) != workloads.build(w, HELD_OUT_SEED),
            f"{w}: op list is a function of the seed",
        )
        first, second, held_out = (worker(w, s) for s in (DEFAULT_SEED, DEFAULT_SEED, HELD_OUT_SEED))
        expect(
            not (first["wrong"] or second["wrong"] or held_out["wrong"]),
            f"{w}: traced and untraced stdout identical, independent checks pass"
            + "".join(f"\n    {line}" for line in first["wrong"] + held_out["wrong"]),
        )
        diff = [n for n in EXACT if first["per_layer"][n] != second["per_layer"][n]]
        expect(not diff, f"{w}: counts repeat exactly across runs of seed {DEFAULT_SEED}" + (f" {diff}" if diff else ""))
        frac = [r["failed"] / r["attempted"] for r in (first, held_out)]
        expect(
            frac[0] == frac[1],
            f"{w}: failed_frac {frac[0]:.4g} at seed {DEFAULT_SEED}, {frac[1]:.4g} at held-out seed {HELD_OUT_SEED}",
        )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
