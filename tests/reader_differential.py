"""The CLI's direct argv reader, `cli._read_argv`, against argparse.

For every argv of a generated corpus the reader must return None, or a
namespace whose `vars()` equal those of `cli._build_parser().parse_args`,
`func` included; it must never accept an argv that argparse rejects.
The corpus crosses option prefixes (in every order, repeated, malformed,
abbreviated, in `=` form) with the operands of every subcommand (missing,
extra, negative, space-padded, `-`, `--`, `""`, `-h`).

Standard library only, so that it also runs on interpreters without
pytest, against their own argparse:

    PYTHONPATH=src python tests/reader_differential.py
"""

import contextlib
import io
import sys

from aspherical import cli

_PREFIXES = [
    [],
    ["--format", "json"],
    ["--format", "text"],
    ["--max-degree", "5"],
    ["--format", "json", "--max-degree", "2"],
    ["--max-degree", "4", "--format", "text"],
    ["--format", "json", "--format", "text"],
    ["--max-degree", "2", "--max-degree", "7"],
    ["--max-degree", " 3"],
    ["--max-degree", "1_0"],
    ["--max-degree", "+4"],
    ["--format"],
    ["--format", "xml"],
    ["--format", " json"],
    ["--format", "JSON"],
    ["--format", ""],
    ["--format=json"],
    ["--form", "json"],
    ["--format", "--max-degree", "2"],
    ["--max-degree", "-1"],
    ["--max-degree", "x"],
    ["--max-degree", ""],
    ["--max-degree=4"],
    ["--max", "4"],
    ["-h"],
    ["--"],
]

_GROUP_OPERANDS = [
    [],
    ["Z^2"],
    ["Z^4+Z/2"],
    [" Z^2 "],
    [""],
    ["-"],
    ["--"],
    ["-1"],
    ["-h"],
    ["--help"],
    ["Z^2", "extra"],
    ["Z^2", "--format", "json"],
    ["--", "Z^2"],
    ["--group", "Z^2"],
]

_TAILS = (
    [["classify", *rest] for rest in _GROUP_OPERANDS]
    + [["witness", *rest] for rest in _GROUP_OPERANDS]
    + [["homology", *rest] for rest in _GROUP_OPERANDS]
    + [
        ["homology", "Z^4", degree]
        for degree in ("3", "0", "-1", " 2", "2 ", "x", "", "1_0", "٣", "-")
    ]
    + [["homology", "Z^4", "3", "4"], ["homology", "Z^4", "--", "3"], ["homology", "-", "3"]]
    + [
        [command, *rest]
        for command in ("fibration", "snf", "fibersum")
        for rest in ([], ["f.txt"], ["f.txt", "g.txt"], ["-"], ["--"], [""], ["-h"])
    ]
    + [
        ["fibersum", *rest]
        for rest in (
            ["f.txt", "-e", "2"],
            ["f.txt", "--base-genus", "3"],
            ["f.txt", "--base-genus=3"],
            ["f.txt", "-e2"],
            ["f.txt", "-e"],
            ["f.txt", "-e", "-1"],
            ["f.txt", "-e", " 2"],
            ["f.txt", "-e", "x"],
            ["f.txt", "-e", ""],
            ["f.txt", "--base", "2"],
            ["f.txt", "2"],
            ["f.txt", "-e", "1", "-e", "2"],
            ["f.txt", "-e", "2", "extra"],
            ["-e", "2", "f.txt"],
            ["f.txt", "-x", "2"],
        )
    ]
    + [[], ["not-a-command"], ["classif", "Z^2"], ["CLASSIFY", "Z^2"], ["", "Z^2"]]
)


def corpus() -> list[list[str]]:
    return [prefix + tail for prefix in _PREFIXES for tail in _TAILS]


def check_reader_against_argparse() -> tuple[int, int]:
    """Compare the reader with argparse on the corpus; return the number
    of argvs checked and the number the reader accepted."""
    parser = cli._build_parser()
    accepted = 0
    argvs = corpus()
    for argv in argvs:
        fast = cli._read_argv(list(argv))
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                slow = vars(parser.parse_args(list(argv)))
        except SystemExit:
            slow = None
        if fast is None:
            continue
        accepted += 1
        assert slow is not None, f"the reader accepts {argv!r}, which argparse rejects"
        assert vars(fast) == slow, (argv, vars(fast), slow)
    return len(argvs), accepted


if __name__ == "__main__":
    checked, accepted = check_reader_against_argparse()
    print(f"Python {sys.version.split()[0]}: {checked} argvs, the reader accepted {accepted}, "
          "each equal to argparse's namespace")
