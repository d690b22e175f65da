"""Every function in `src/aspherical` is reached by the command line, pinned
by the benchmark tracer, or listed below as kept for tests and oracles.

The check runs each subcommand on small inputs (and `snf` on one matrix
large enough for the forked Smith replay), in text and JSON, with
exit codes 0, 2 and 3, under `sys.setprofile`, and collects the code
objects entered.  A function that none of these runs enters, that
`perfbench/tracing.py` does not bind in `WRAPPED`, and that is not on
`KEPT_FOR_TESTS` is API no pipeline uses: delete it, or say on the list
which test or oracle needs it.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import random
import sys
from pathlib import Path

from oracles import chain_relation
from aspherical import cli

_SRC = Path(cli.__file__).resolve().parent
_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# (module, qualified name) of functions no command reaches and the
# tracer does not bind, with who needs them.
KEPT_FOR_TESTS = {
    # Helpers of names the tracer pins: `kunneth` (which `tensor` and `tor`
    # call), `presentation_chain_for`, `free_product` and
    # `primary_decomposition`.  They go with those names once the
    # benchmark stops binding them.
    ("abhomology", "_add_tor"),
    ("fibersum", "presentation_chain_for.<locals>.tgt"),
    ("fpgroup", "_rebind"),
    ("zlinalg", "_factorize"),
    # Read by the tracer's `word.letters_parsed` counter.
    ("word", "Word.__len__"),
    # Built only by names the tracer pins (`compose`, `pinch_presentation_map`,
    # `presentation_chain_for`); it runs the check the tracer binds,
    # `GroupHom.__post_init__`.
    ("fpgroup", "GroupHom.__init__"),
    # Value semantics of the frozen records, which no command hashes, prints
    # or assigns to; `tests/test_values.py` checks them for every record.
    # `__init_subclass__` runs as each record class is defined, on import.
    ("word", "_Value.__hash__"),
    ("word", "_Value.__init_subclass__"),
    ("word", "_Value.__repr__"),
    ("word", "_Value._immutable"),
    # Matrix helpers called by the tracer-pinned `GroupHom.__post_init__`
    # and by `tests/oracles.py` (homology of explicit complexes, which
    # the benchmark's `abelian_mix` check runs).
    ("zlinalg", "IntMatrix.apply"),
    ("zlinalg", "IntMatrix.zeros"),
}


def _defined() -> dict[tuple[str, int], tuple[str, str]]:
    """(file, first line) -> (module, qualified name) of every `def`."""
    out = {}

    def walk(node, prefix, module, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, first)] = (module, qualname)
                walk(child, qualname + ".<locals>.", module, path)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", module, path)
            else:
                walk(child, prefix, module, path)

    for path in sorted(_SRC.glob("*.py")):
        module = path.stem
        walk(ast.parse(path.read_text()), "", module, str(path))
    return out


def _code_key(code) -> tuple[str, int]:
    return str(Path(code.co_filename).resolve()), code.co_firstlineno


def _wrapped() -> set[tuple[str, int]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    keys = set()
    for _, module, path, _ in tracing.WRAPPED:
        owner, attr = tracing._resolve(importlib.import_module(f"aspherical.{module}"), path)
        fn = owner.__dict__[attr]
        fn = getattr(fn, "__func__", fn)
        keys.add(_code_key(fn.__code__))
    return keys


def _runs(tmp: Path) -> list[tuple[list[str], int]]:
    fib = tmp / "fib.txt"
    fib.write_text(chain_relation(2))
    caveat = tmp / "caveat.txt"
    caveat.write_text("fibration one\nfiber_genus 1\ncycle + a1\n")
    matrix = tmp / "m.txt"
    matrix.write_text("2 4 1\n6 8 3\n")
    # Dense 40 x 40: both replays are above `zlinalg._FORK_WORK`, so V's
    # runs in a forked child, where the profiler sees nothing.
    rng = random.Random(4512)
    dense = tmp / "dense.txt"
    rows = [" ".join(str(rng.randint(-9, 9)) for _ in range(40)) for _ in range(40)]
    dense.write_text("\n".join(rows) + "\n")
    unknown = tmp / "unknown.txt"
    unknown.write_text("fibration x\nfiber_genus 1\ncycle + zz\n")
    syntax = tmp / "syntax.txt"
    syntax.write_text("fibration x\nfiber_genus 1\ncycle + a1^\n")
    fibered = tmp / "fibered.txt"
    fibered.write_text(
        "group x\ngens a1 b1 a2 b2\nrel a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1\nrel a2^2\n"
    )
    odd = tmp / "odd.txt"
    odd.write_text("group odd\ngens a1 b1 c1\nrel a1 b1 a1^-1 b1^-1\n")
    return [
        (["classify", "Z^4+Z/2"], 0),
        (["classify", "Z^4"], 0),
        (["classify", "Z^3"], 3),
        (["classify", "Z^2+Z/3"], 3),
        (["classify", "Z/2+Q"], 2),
        (["homology", "Z^4+Z/2+Z/6", "3"], 0),
        (["homology", "Z^2", "9"], 2),
        (["witness", "Z^4+Z/2+Z/4"], 0),
        (["witness", "Z^3"], 3),
        (["snf", str(matrix)], 0),
        (["snf", str(dense)], 0),
        (["snf", str(tmp / "missing.txt")], 2),
        (["fibration", str(fib)], 0),
        (["fibration", str(caveat)], 0),
        (["fibration", str(unknown)], 2),
        (["fibration", str(syntax)], 2),
        (["fibersum", str(fibered), "-e", "2"], 0),
        (["fibersum", str(fibered), "--base-genus=2"], 0),  # read by argparse alone
        (["fibersum", str(odd)], 3),
    ]


def _entered(tmp: Path) -> set[tuple[str, int]]:
    cli._build_parser.cache_clear()  # a cached parser would hide `_build_parser`
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sink = io.StringIO()
    for fmt in ("text", "json"):
        for argv, expected in _runs(tmp):
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                sys.setprofile(profile)
                try:
                    rc = cli.main(["--format", fmt, *argv])
                finally:
                    sys.setprofile(None)
            assert rc == expected, argv
    return {_code_key(c) for c in codes}


def test_every_function_is_reached_pinned_or_kept(tmp_path):
    defined = _defined()
    entered = _entered(tmp_path)
    pinned = _wrapped()
    unreached = sorted(defined[k] for k in defined if k not in entered and k not in pinned)
    assert [name for name in unreached if name not in KEPT_FOR_TESTS] == []
    names = set(defined.values())
    assert sorted(KEPT_FOR_TESTS - names) == [], "listed but no longer defined"
    assert sorted(KEPT_FOR_TESTS - set(unreached)) == [], "listed but reached or pinned"
