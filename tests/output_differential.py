"""Every benchmark op's CLI output from this tree against another tree's.

Runs each op of the three benchmark workloads (`perfbench/workloads.py`),
at seeds 1 and 2; `fibration` on files of multi-term classes, which the
benchmark's chain relations lack (the seeded two-term files of
`tests/oracles.py` at genus 3, 8 and 16, and `tests/data/mixed_twists.txt`)
and on the banded files of `tests/oracles.py` at genus 10 and 40; and
`fibersum -e 1` on the banded presentation files at genus 10 and 40 and
on dense presentation files of 20 and 40 generators, whose lattices the
sparse stage of `zlinalg.cokernel` takes to the end; and `classify`,
`witness` and `homology` (through degree 5) on a fixed list of group
specs: one per verdict of `asphericity.Reason`; one with repeated
orders of 302 digits, far past the benchmark's orders of under 35 bits;
and divisor chains longer than the benchmark's four members: Z^2 plus
Z/2 + Z/4 + ... + Z/2^10, Z^2 plus 12 copies of Z/6 then Z/12 + Z/24,
and Z/2 + Z/4 + ... + Z/2^300, whose homology the summand limit refuses;
all in text and in JSON, through the `aspherical.cli` of this tree and
through that of OTHER_TREE, and compares the exit code, stdout and
stderr of each run.  Exits 1 naming the runs that differ, 0 when none
does: a change that keeps the README's byte-identical output contract
passes against its base commit.

Each tree runs in a child process of its own, which imports that tree's
package.  Both children take the ops from this tree's `perfbench/`,
read only, and write the ops' input files with `worker.materialize` into
one and the same work directory, so that paths agree in messages; the
fibration and presentation files are written once, by this tree's
oracles, for both.

Standard library only:

    python tests/output_differential.py OTHER_TREE

with OTHER_TREE a checkout of the base, made with, say,
`git worktree add ../base main`.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
FORMATS = ("text", "json")
FIBRATION_GENERA = (3, 8, 16)
BANDED_GENERA = (10, 40)
DENSE_GENERATORS = (20, 40)
# (run label, group spec): one group per verdict, then repeated large
# orders, then long divisor chains: distinct members, a run of equal ones,
# and one that the summand limit refuses.
GROUP_SPECS = [(spec, spec) for spec in ("0", "Z", "Z^2", "Z^2+Z/2", "Z^3", "Z^4", "Z^4+Z/2")] + [
    ("Z^2+Z/6+3*Z/2^1000", "Z^2+Z/6+" + "+".join([f"Z/{2**1000}"] * 3)),
    ("Z^2+Z/2+...+Z/2^10", "Z^2+" + "+".join(f"Z/{2**i}" for i in range(1, 11))),
    ("Z^2+12*Z/6+Z/12+Z/24", "Z^2+" + "+".join(["Z/6"] * 12 + ["Z/12", "Z/24"])),
    ("Z/2+...+Z/2^300", "+".join(f"Z/{2**i}" for i in range(1, 301))),
]


def write_files(directory: Path) -> None:
    """Into `directory`/fibration: the two-term fibration files, 3g cycles
    at genus g and each seed, the banded ones and the hand-written one.
    Into `directory`/fibersum: the banded and dense presentation files."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from oracles import banded_fibration, banded_presentation, dense_presentation, two_term_fibration

    fibrations, presentations = directory / "fibration", directory / "fibersum"
    fibrations.mkdir(parents=True)
    presentations.mkdir()
    for g in FIBRATION_GENERA:
        for seed in SEEDS:
            path = fibrations / f"two_term_g{g}_seed{seed}.txt"
            path.write_text(two_term_fibration(g, 3 * g, seed))
    for g in BANDED_GENERA:
        (fibrations / f"banded_g{g}.txt").write_text(banded_fibration(g))
        (presentations / f"banded_g{g}.txt").write_text(banded_presentation(g))
    for n in DENSE_GENERATORS:
        (presentations / f"dense_n{n}.txt").write_text(dense_presentation(n))
    shutil.copy(ROOT / "tests" / "data" / "mixed_twists.txt", fibrations)


def run_tree(tree: Path, workdir: Path, files: Path) -> list[list]:
    """Each run's name, exit code, stdout digest and stderr, through the
    CLI of `tree`."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import worker
    import workloads
    from aspherical import cli

    if Path(cli.__file__).resolve().parents[2] != tree:
        raise RuntimeError(f"imported {cli.__file__}, not the CLI of {tree}")
    call = worker.make_call(cli)
    rows = []

    def run(name: str, argv: tuple[str, ...]) -> None:
        for fmt in FORMATS:
            rc, out, err = call(("--format", fmt, *argv))
            rows.append([f"{name} {fmt}", rc, hashlib.sha256(out.encode()).hexdigest(), err])

    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir()
            ops = workloads.build(workload, seed)
            for k, (op, argv) in enumerate(zip(ops, worker.materialize(ops, workdir, call))):
                run(f"{workload} seed {seed} op {k} ({op.label})", argv)
    for path in sorted((files / "fibration").iterdir()):
        run(f"fibration {path.name}", ("fibration", str(path)))
    for path in sorted((files / "fibersum").iterdir()):
        run(f"fibersum -e 1 {path.name}", ("fibersum", str(path), "-e", "1"))
    for label, spec in GROUP_SPECS:
        for command in (("classify", spec), ("witness", spec), ("homology", spec, "5")):
            run(f"{command[0]} {label}", command)
    return rows


def _child(tree: Path, workdir: Path, files: Path) -> dict[str, tuple]:
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(tree), str(workdir), str(files)],
        capture_output=True, text=True,
    )
    if done.returncode:
        raise RuntimeError(f"the run of {tree} failed:\n{done.stderr}")
    return {name: tuple(rest) for name, *rest in map(json.loads, done.stdout.splitlines())}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        for row in run_tree(*map(Path, argv[1:4])):
            print(json.dumps(row))
        return 0
    if len(argv) != 1:
        print("usage: python tests/output_differential.py OTHER_TREE", file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    if not (other / "src" / "aspherical" / "cli.py").is_file():
        print(f"error: no aspherical package under {other / 'src'}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        files = Path(scratch) / "files"
        write_files(files)
        ours, theirs = (
            _child(tree, Path(scratch) / "work", files) for tree in (ROOT, other)
        )
    differ = []
    for name in sorted(ours.keys() | theirs.keys()):
        a, b = ours.get(name), theirs.get(name)
        if a is None or b is None:
            differ.append(f"{name}: run only in {ROOT if b is None else other}")
            continue
        parts = [part for part, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
        if parts:
            differ.append(f"{name}: {', '.join(parts)} differ (exit {a[0]} here, {b[0]} there)")
    for line in differ:
        print(line)
    print(f"{len(differ)} of {len(ours)} runs differ from {other}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
