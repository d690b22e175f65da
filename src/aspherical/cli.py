"""Command-line front end.

Subcommands: classify, homology, fibration, witness, snf, fibersum.
Every report is available as key/value text (default) or JSON with a
stable schema; identical inputs produce byte-identical output.  Exit
codes: 0 success or aspherical, 2 usage or parse error, 3 not
aspherical or a failed construction precondition.

The argv grammar is written once, in the command table `_COMMANDS`:
each subcommand's function, help line and operand.  Two readers are
built from it.  The plain forms are read directly, without importing
argparse: `[--format text|json]... SUBCOMMAND OPERAND`,
with `homology GROUP [DEGREE]` and `fibersum FILE [-e N | --base-genus N]`.
Everything else (`-h`, `--opt=value`, abbreviated options, `--`, an
operand starting with `-`, usage errors) goes to argparse, so help and
error text are argparse's own.
"""

from __future__ import annotations

import functools
import math
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import abhomology, asphericity, fibersum, lefschetz, zlinalg
from .fpgroup import parse_presentation, render_presentation
from .limits import (
    _MAX_FREE_RANK, _MAX_HOMOLOGY_DEGREE, _MAX_TORSION_BITS, _MAX_TORSION_DIGITS, _MAX_TORSION_ORDERS,
)
from .word import _quote
from .zlinalg import FgAbelian

if TYPE_CHECKING:
    import argparse

    Args = argparse.Namespace | SimpleNamespace

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERDICT = 3


class GroupSpecError(ValueError):
    pass


def parse_group_spec(text: str) -> FgAbelian:
    """`Z^r`, `Z`, `Z/d` and `0`, joined by `+`; normalized to a divisor chain."""
    text = text.strip()
    if not text:
        raise GroupSpecError("empty group spec")
    if text == "0":
        return FgAbelian(0)
    free_rank, top = 0, 1  # top: the lcm of the orders so far, the largest invariant factor
    counts: dict[int, int] = {}
    too_big = f"largest invariant factor over the limit of {_MAX_TORSION_BITS} bits"
    for term in text.split("+"):
        term = term.strip()
        if term == "Z":
            free_rank += 1
        elif term.startswith("Z^"):
            try:
                r = int(term[2:])
            except ValueError:
                raise GroupSpecError(f"bad free part {_quote(term)}") from None
            if r < 0:
                raise GroupSpecError(f"negative free rank in {_quote(term)}")
            free_rank += r
        elif term.startswith("Z/"):
            if len(term[2:].strip().lstrip("0")) > _MAX_TORSION_DIGITS:  # before int() reads it
                raise GroupSpecError(too_big)
            try:
                d = int(term[2:])
            except ValueError:
                raise GroupSpecError(f"bad torsion part {_quote(term)}") from None
            if d < 1:
                raise GroupSpecError(f"torsion order must be positive in {_quote(term)}")
            top = math.lcm(top, d)
            if top.bit_length() > _MAX_TORSION_BITS:
                raise GroupSpecError(too_big)
            counts[d] = counts.get(d, 0) + 1
            if len(counts) > _MAX_TORSION_ORDERS:  # equal orders count once
                raise GroupSpecError(
                    f"distinct torsion orders over the limit of {_MAX_TORSION_ORDERS}"
                )
        else:
            raise GroupSpecError(f"cannot parse term {_quote(term)}")
        if free_rank > _MAX_FREE_RANK:
            raise GroupSpecError(f"free rank over the limit of {_MAX_FREE_RANK}")
    return FgAbelian.from_counts(free_rank, counts)


def _read_input(name: str) -> str:
    path = Path(name)
    if not path.exists():
        raise ValueError(f"no such file: {path}")
    return path.read_text()


def _emit(args: Args, payload: dict) -> None:
    """Format the subcommand's report whole, then write it to stdout in
    one call: JSON after the schema_version and command header, or one
    text line (or block) per key.  `writelines` takes the pieces as they
    are, so a long block such as U, V or a presentation is not copied
    into a joined report."""
    if args.format == "json":
        import json  # here, so that a text report does not pay for importing it
        header = {"schema_version": SCHEMA_VERSION, "command": args.subcommand}
        sys.stdout.writelines((json.dumps(header | payload, indent=2), "\n"))
        return
    out = []
    for key, value in payload.items():
        if key[:2] == "H_" and key[2:].isdecimal():  # a graded line: H_0, H_1, ...
            out.append(f"{key} = {value}\n")
        elif isinstance(value, bool):
            out.append(f"{key}: {'true' if value else 'false'}\n")
        elif isinstance(value, (list, tuple)):
            out.append(f"{key}: {'; '.join(str(v) for v in value) if value else '-'}\n")
        elif value is None:
            out.append(f"{key}: -\n")
        elif isinstance(value, str) and "\n" in value:
            out += (f"{key}:\n", value.rstrip("\n"), "\n")
        else:
            out.append(f"{key}: {value}\n")
    sys.stdout.writelines(out)


def cmd_classify(args: Args) -> int:
    gamma = parse_group_spec(args.group)
    verdict = asphericity.classify(gamma)
    citations = list(asphericity.VERDICTS[verdict.reason][0])
    if verdict.pi2_forced_nonzero_in_dim4:
        citations.append("Proposition 5.3")
    if verdict.class_note == asphericity.CLASS_NOTE_Z4_Z2:
        citations.append("Corollary 5.5")
    note = asphericity.covering_note(gamma)
    if note is not None:
        citations.append("Corollary 5.4")
    _emit(args, {
        "group": gamma.render(),
        "aspherical": verdict.aspherical,
        "reason": verdict.reason.value,
        "realizable_dims": sorted(verdict.realizable_dims),
        "pi2_forced_nonzero_in_dim4": verdict.pi2_forced_nonzero_in_dim4,
        "class_note": verdict.class_note,
        "covering_note": note,
        "citations": citations,
    })
    return EXIT_OK if verdict.aspherical else EXIT_VERDICT


def cmd_homology(args: Args) -> int:
    gamma = parse_group_spec(args.group)
    degree = 3 if args.degree is None else args.degree
    if not 0 <= degree <= _MAX_HOMOLOGY_DEGREE:
        raise GroupSpecError(f"max degree must be between 0 and {_MAX_HOMOLOGY_DEGREE}")
    graded = abhomology.group_homology_graded(gamma, max_degree=degree)
    summand = abhomology.factor_homology_sum(gamma, degree)
    payload = {"group": gamma.render(), "max_degree": degree}
    for k, h in enumerate(graded):
        payload[f"H_{k}"] = h.render()
    for k in range(degree + 1):
        payload[f"dim_R_H^{k}"] = abhomology.real_cohomology_rank(gamma, k)
    payload[f"factor_homology_sum_H_{degree}"] = summand.render()
    payload["contains_factor_homology_sum"] = graded[degree].contains_summand(summand)
    _emit(args, payload)
    return EXIT_OK


def cmd_fibration(args: Args) -> int:
    m, label = lefschetz.parse_factorization(_read_input(args.file))
    trivial = lefschetz.homology_trivial(m)
    p = lefschetz.total_space_pi1(m, trivial)
    _emit(args, {
        "fibration": label,
        "fiber_genus": m.fiber_genus,
        "cycles": len(m.cycles),
        "euler_characteristic": lefschetz.euler_characteristic(m),
        "homology_trivial": trivial,
        "homology_trivial_note": "homological check only; not sufficient for isotopy",
        "abelianization": zlinalg.abelianization(p).render(),
        "pi1_presentation": render_presentation(p),
    })
    return EXIT_OK


def cmd_witness(args: Args) -> int:
    gamma = parse_group_spec(args.group)
    try:
        p = fibersum.witness_presentation(gamma)
    except fibersum.NotAspherical as e:
        _emit(args, {
            "group": gamma.render(),
            "aspherical": False,
            "reason": e.reason.value,
            "error": str(e),
        })
        return EXIT_VERDICT
    ab = zlinalg.abelianization(p)
    _emit(args, {
        "group": gamma.render(),
        "aspherical": True,
        "abelianization": ab.render(),
        "rank": ab.free_rank,
        "abelianization_check": "PASS" if ab == gamma else "FAIL",
        "verdict": "symplectically aspherical (Theorem 1.2; witness via Corollary 4.6)",
        "presentation": render_presentation(p),
    })
    return EXIT_OK


def cmd_snf(args: Args) -> int:
    a = zlinalg.parse_matrix(_read_input(args.file))
    snf = zlinalg.smith_normal_form(a)
    _emit(args, {
        "rows": a.rows,
        "cols": a.cols,
        "D": snf.d.render(),
        "U": snf.u.render(),
        "V": snf.v.render(),
        "cokernel": snf.cokernel.render(),
    })
    return EXIT_OK


def cmd_fibersum(args: Args) -> int:
    p = parse_presentation(_read_input(args.file))
    result = fibersum.fiber_sum_with_trivial_bundle(p, args.base_genus)
    rows_p, rows = zlinalg.relator_rows(p), zlinalg.relator_rows(result)
    ab_p = zlinalg.cokernel(rows_p, len(p.generators))
    # A free summand leaves ab_p's invariant factors as they are.  Rows equal
    # to p's hold none of the 2e base columns, which stay free: ab is then
    # exactly ab_p plus Z^(2e), with no second elimination.
    expected = FgAbelian(ab_p.free_rank + 2 * args.base_genus, ab_p.torsion)
    ab = expected if rows == rows_p else zlinalg.cokernel(rows, len(result.generators))
    _emit(args, {
        "fiber_genus": len(p.generators) // 2,
        "base_genus": args.base_genus,
        "abelianization": ab.render(),
        "expected_abelianization": expected.render(),
        "abelianization_check": "PASS" if ab == expected else "FAIL",
        "presentation": render_presentation(result),
    })
    return EXIT_OK


# subcommand -> (function, help, operand name, operand help): the one
# spelling of the argv grammar, which both readers below are built from.
_COMMANDS = {
    "classify": (cmd_classify, "decide symplectic asphericity of an abelian group",
                 "group", "group spec, e.g. Z^4+Z/2"),
    "homology": (cmd_homology, "integral homology and real cohomology ranks", "group", None),
    "fibration": (cmd_fibration, "report on a monodromy factorization file", "file", None),
    "witness": (cmd_witness, "emit a witness presentation for an aspherical group",
                "group", None),
    "snf": (cmd_snf, "Smith normal form of a matrix file", "file", None),
    "fibersum": (cmd_fibersum, "fiber sum of a fibered presentation with a trivial bundle",
                 "file", "presentation file in surface-fibered form"),
}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `_build_parser().parse_args(argv)` returns, for the
    plain forms of the module docstring; None for any other argv."""
    args = SimpleNamespace(format="text")
    try:
        while argv[0] == "--format":
            _, args.format, *argv = argv
            if args.format not in ("text", "json"):
                return None
        command, operand, *rest = argv
        if operand[:1] == "-" or rest and rest[-1][:1] == "-":
            return None
        args.func, _, name, _ = _COMMANDS[command]
        setattr(args, name, operand)
        if command == "homology" and len(rest) <= 1:
            args.degree = int(rest[0]) if rest else None
        elif command == "fibersum" and (
            not rest or len(rest) == 2 and rest[0] in ("-e", "--base-genus")
        ):
            args.base_genus = int(rest[1]) if rest else 1
        elif rest:
            return None
    except (IndexError, KeyError, ValueError):  # short argv, unknown command, or an int()
        return None  # that argparse would refuse
    args.subcommand = command
    return args


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    import argparse  # here, so that the plain forms `_read_argv` reads do not pay for importing it

    parser = argparse.ArgumentParser(
        prog="aspherical",
        description="Symplectically aspherical abelian groups: classification, "
        "homology, Lefschetz fibration presentations and witnesses.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, (func, summary, operand, operand_help) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument(operand, help=operand_help)
        if command == "homology":
            p.add_argument("degree", nargs="?", type=int, default=None)
        elif command == "fibersum":
            p.add_argument("-e", "--base-genus", type=int, default=1)
        p.set_defaults(func=func)
    return parser


_DOMAIN_ERRORS = (fibersum.NotSurfaceFibered, fibersum.InvalidGenus)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERDICT
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
