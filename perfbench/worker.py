"""One benchmark run of one workload, in its own process.

`run.py` starts this file as a fresh child per run, so the child's peak
RSS is the workload's.  The child drives `aspherical.cli.main(argv)`
in-process: a closed loop with one caller, where each op starts only
when the previous one has returned.

Order of work:
1. build the seeded op list and write its input files (untimed);
2. one warm-up pass, whose stdout and exit codes are the reference;
3. timed batches over the op list until `--seconds` is used up, each
   op's stdout compared with the warm-up's digest, and each op followed
   by a machine-speed reference chunk (`pace.py`) that scales its time;
4. with `--trace 1`, the second half of the time goes to traced batches
   (see `tracing.py`), whose stdout must match the untraced digests; the
   last traced batch's spans go to `.perfbench_out/`;
5. the independent checks (`checks.py`) on the warm-up outputs.

The last stdout line is one JSON object for `run.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import workloads  # noqa: E402


class ProgramMissing(RuntimeError):
    pass


def load_cli():
    src = ROOT / "src"
    if not (src / "aspherical" / "cli.py").is_file():
        raise ProgramMissing(f"no aspherical package under {src}")
    sys.path.insert(0, str(src))
    from aspherical import cli

    return cli


def materialize(ops, workdir: Path, call) -> list[tuple[str, ...]]:
    """Write every op's input files and return argvs with real paths.

    A derived file is the `pi1_presentation` block printed by its
    producer op, which is run here, before timing, to make it.
    """
    argvs = []
    for op in ops:
        for name, text in op.files:
            (workdir / name).write_text(text)
        for name, producer in op.derived:
            _, out, _ = call(argvs[producer])
            (workdir / name).write_text(pi1_block(out))
        argvs.append(tuple(str(workdir / a[1:]) if a.startswith("@") else a for a in op.argv))
    return argvs


def pi1_block(out: str) -> str:
    _, sep, block = out.partition("pi1_presentation:\n")
    if not sep:
        raise ValueError("fibration output has no pi1_presentation block")
    return block


def make_call(cli):
    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))  # looked up per call: tracing patches it
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception as e:  # an op that crashes is a failed op, not a crashed run
                rc, err = "exception", io.StringIO(f"{type(e).__name__}: {e}")
        return rc, out.getvalue(), err.getvalue()

    return call


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Batches:
    """Per-op latencies and outcomes of timed batches.  Every op is
    followed by one reference chunk, which measures the machine's speed
    at that moment.  With a tracer, each batch is traced and its
    per-layer metrics kept."""

    def __init__(self, ops, reference, kind, tracer=None):
        self.ops = ops
        self.kind = kind  # of reference chunk
        self.reference = reference  # per op: (exit code, stdout digest)
        self.tracer = tracer
        self.batch_s: list[float] = []
        self.latencies: list[float] = []
        self.chunks: list[float] = []
        self.layer: list[dict[str, float]] = []
        self.failed_by_op = [0] * len(ops)
        self.mismatched_by_op = [0] * len(ops)
        self.stdout_bytes = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def run_batch(self, call, argvs) -> None:
        if self.tracer:
            self.tracer.reset()
        total = 0.0
        self.stdout_bytes = 0
        for i, argv in enumerate(argvs):
            if self.tracer:
                self.tracer.begin_op(i)
            t0 = time.perf_counter()
            rc, out, _ = call(argv)
            dt = time.perf_counter() - t0
            total += dt
            self.latencies.append(dt)
            self.chunks.append(pace.chunk(self.kind))
            self.stdout_bytes += len(out.encode())
            if rc != self.ops[i].expect_exit:
                self.failed_by_op[i] += 1
            elif (rc, digest(out)) != self.reference[i]:
                self.failed_by_op[i] += 1
                self.mismatched_by_op[i] += 1
        self.batch_s.append(total)
        if self.tracer:
            self.layer.append(self.tracer.batch_metrics())

    def scaled(self) -> tuple[list[float], list[float]]:
        """Per-op latencies and per-batch times at nominal machine speed."""
        latencies = pace.scale(self.kind, self.latencies, self.chunks)
        n = len(self.ops)
        return latencies, [sum(latencies[k : k + n]) for k in range(0, len(latencies), n)]

    def run_for(self, call, argvs, seconds: float) -> None:
        """Whole batches until the next one would overrun `seconds`; at least one."""
        start = time.perf_counter()
        while True:
            self.run_batch(call, argvs)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(self.batch_s) > seconds:
                return


def quantile_ms(latencies: list[float], q: int) -> float:
    """q-th percentile (exclusive method) in milliseconds."""
    return statistics.quantiles(latencies, n=100)[q - 1] * 1000


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    call = make_call(cli)
    ops = workloads.build(args.workload, args.seed)

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        argvs = materialize(ops, workdir, call)
        warm = [call(a) for a in argvs]
        reference = [(rc, digest(out)) for rc, out, _ in warm]

        budget = args.seconds / 2 if args.trace else args.seconds
        kind = workloads.REFERENCE[args.workload]
        untraced = Batches(ops, reference, kind)
        untraced.run_for(call, argvs, budget)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        latencies, batch_times = untraced.scaled()
        result = {
            "ops_per_batch": len(ops),
            "batches": len(untraced.batch_s),
            "batch_times": batch_times,
            "batch_s": statistics.median(batch_times),
            "raw_batch_s": statistics.median(untraced.batch_s),
            "speed": pace.speed(kind, untraced.chunks),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_p90_ms": quantile_ms(latencies, 90),
            "samples": len(latencies),
            "peak_rss_mb": peak_rss_kb / 1024,
        }
        runs = [untraced]

        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            traced = Batches(ops, reference, kind, tracer)
            with tracer.installed(cli):
                traced.run_for(call, argvs, budget)
            spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.tsv"
            tracer.write_spans(spans, [op.label for op in ops])
            layer = tracing.summarize(traced.layer)
            layer["cli.stdout_bytes"] = traced.stdout_bytes
            layer["trace.batch_s"] = statistics.median(traced.batch_s)
            layer["trace.overhead_s"] = layer["trace.batch_s"] - result["raw_batch_s"]
            result["per_layer"] = layer
            result["traced_batches"] = len(traced.batch_s)
            runs.append(traced)

        # An op fails on an unexpected exit code or on output that differs
        # from the warm-up's; a failed independent check fails every pass.
        import checks

        passes = sum(len(r.batch_s) for r in runs)
        failed = [sum(r.failed_by_op[i] for r in runs) for i in range(len(ops))]
        failures, wrong = [], []
        for i, op in enumerate(ops):
            rc, out, err = warm[i]
            if any(r.mismatched_by_op[i] for r in runs):
                wrong.append(f"{op.label}: stdout or exit code differs between passes")
            if rc != op.expect_exit:
                failures.append(f"{op.label}: exit {rc}, expected {op.expect_exit}: {err.strip()[:200]}")
                continue
            problem = checks.check(op, argvs[i], out)
            if problem:
                wrong.append(f"{op.label}: {problem}")
                failed[i] = passes
        result["attempted"] = sum(r.attempted for r in runs)
        result["failed"] = sum(failed)
        result["failures"] = failures
        result["wrong"] = wrong
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
