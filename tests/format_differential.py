"""The one reader of presentation and fibration files,
`fpgroup._read_word_file`, against the two line loops it replaced,
`oracles.reference_parse_presentation` and
`oracles.reference_parse_factorization`, on a seeded corpus.

The corpus holds valid files of both formats and mutations of them:
lines reordered, repeated, dropped or indented; blank and
whitespace-only lines; unknown directives, and the other format's
directives; tabs for spaces; bad words, genera, signs and generator
names.  Every file goes through both readers of both formats.  Either
both return equal results, whose repeated words are shared alike and
lie over the file's one alphabet object, or both raise the same
exception type with the same message.

There is one exception, the one rule the readers differ on: a
fibration file must now give its `fibration` line before its
`fiber_genus` line, as a presentation file gives `group` before
`gens`.  Where the new reader reports `line N: fiber_genus before
fibration`, the check is only that no earlier line is a `fibration`
line and that line N is a `fiber_genus` line.  Words are at most 40
characters, so that no quoted input reaches the 64 characters after
which the new messages cut it.

Standard library only, so that it also runs on interpreters without
pytest:

    PYTHONPATH=src python tests/format_differential.py
"""

import random
import re
import sys

from aspherical.fpgroup import parse_presentation
from aspherical.lefschetz import parse_factorization
from oracles import reference_parse_factorization, reference_parse_presentation

_NAMES = ["a", "b", "c", "x1", "y_2", "t1", "g10"]
_LABELS = ["", "x", "pi_1 of T", "a  b", "group"]
_JUNK_LINES = [
    "nonsense", "Group x", "rels a", "gens2 a", "#comment", "group:", "cycle+ a1",
    "fibration_x", "rel", "cycle", "gens", "fiber_genus",
]
_BAD_TAILS = [" q", " (", "^", "^-", " ]", " $", "^99999999", " ,", " [a1", " 1 1", "*"]
_BAD_GENERA = ["-1", "q", "513", "1 2", "+1", " 01", "1_0", "", "0x1", "1.0", "99999"]
_BAD_SIGNS = ["* ", "+", "", "+\t", "++ ", "- -", "plus "]
_BAD_GENS = ["a a", "1bad", "A", "a b a", "x-y", ""]
_HEADER_RULE = re.compile(r"line (\d+): fiber_genus before fibration\Z")


def _word(rng: random.Random, names: list[str], depth: int = 0) -> str:
    """A word over `names` in the grammar of `aspherical.word`."""
    if not names:
        return "1"
    factors = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.15 and depth < 2:
            factors.append(f"[{_word(rng, names, depth + 1)},{_word(rng, names, depth + 1)}]")
        elif roll < 0.25 and depth < 2:
            factors.append(f"({_word(rng, names, depth + 1)})^{rng.choice([-2, -1, 2, 3])}")
        elif roll < 0.5:
            factors.append(f"{rng.choice(names)}^{rng.choice([-3, -1, 2])}")
        else:
            factors.append(rng.choice(names))
    return rng.choice([" ", " * ", "*"]).join(factors)


def _short_word(rng: random.Random, names: list[str]) -> str:
    """A word of at most 40 characters, so that no quoted line is cut."""
    word = _word(rng, names)
    while len(word) > 40:
        word = _word(rng, names)
    return word


def _presentation_lines(rng: random.Random) -> list[str]:
    names = rng.sample(_NAMES, rng.randint(0, 4))
    label = rng.choice(_LABELS)
    relators = [_short_word(rng, names) for _ in range(rng.randint(0, 4))]
    relators += rng.sample(relators, min(len(relators), rng.randint(0, 2)))  # repeats
    lines = [f"group {label}".rstrip(), " ".join(["gens", *names])]
    return lines + [f"rel {r}" for r in relators]


def _fibration_lines(rng: random.Random) -> list[str]:
    genus = rng.randint(0, 3)
    names = [f"{x}{i}" for i in range(1, genus + 1) for x in "ab"]
    signs = [rng.choice("+-") for _ in range(rng.randint(0, 5))]
    cycles = [f"cycle {sign} {_short_word(rng, names)}" for sign in signs]
    cycles += rng.sample(cycles, min(len(cycles), rng.randint(0, 3)))  # repeats
    label = rng.choice(_LABELS)
    return [f"fibration {label}".rstrip(), f"fiber_genus {genus}"] + cycles


def _replace(lines: list[str], key: str, line: str) -> None:
    """Put `line` in place of the first `key` line, or first if there is none."""
    at = next((i for i, old in enumerate(lines) if old.partition(" ")[0] == key), None)
    if at is None:
        lines.insert(0, line)
    else:
        lines[at] = line


def _mutate(rng: random.Random, lines: list[str]) -> None:
    """One mutation of `lines`, in place."""
    k = rng.randrange(len(lines)) if lines else 0
    kind = rng.randrange(12)
    if kind == 0 and len(lines) > 1:
        j = rng.randrange(len(lines))
        lines[k], lines[j] = lines[j], lines[k]
    elif kind == 1 and lines:
        lines.insert(rng.randrange(len(lines) + 1), lines[k])
    elif kind == 2 and lines:
        del lines[k]
    elif kind == 3:
        lines.insert(k, rng.choice(["", "   ", "\t", " \t "]))
    elif kind == 4:
        lines.insert(k, rng.choice(_JUNK_LINES))
    elif kind == 5 and lines:
        lines[k] = lines[k].replace(" ", "\t", rng.randint(1, 2))
    elif kind == 6 and lines:
        lines[k] += rng.choice(_BAD_TAILS)
    elif kind == 7:
        _replace(lines, "fiber_genus", f"fiber_genus {rng.choice(_BAD_GENERA)}")
    elif kind == 8:
        lines.insert(k, f"cycle {rng.choice(_BAD_SIGNS)}a1")
    elif kind == 9:
        _replace(lines, "gens", f"gens {rng.choice(_BAD_GENS)}")
    elif kind == 10 and lines:
        lines[k] = rng.choice(["  ", "\t", ""]) + lines[k] + rng.choice(["  ", "\t", ""])
    elif kind == 11:
        other = _fibration_lines(rng) if rng.random() < 0.5 else _presentation_lines(rng)
        lines.insert(k, rng.choice(other))


def corpus(seed: int = 1717, count: int = 3000):
    """(name, text) pairs: valid files of both formats, most of them mutated."""
    rng = random.Random(seed)
    for n in range(count):
        fibration = n % 2 == 1
        lines = _fibration_lines(rng) if fibration else _presentation_lines(rng)
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            _mutate(rng, lines)
        ending = rng.choice(["\n", "\n", "\r\n", ""])
        yield f"{'fibration' if fibration else 'presentation'} {n}", ending.join(lines) + ending


def _outcome(read, text):
    try:
        return read(text), None
    except ValueError as e:
        return None, e


def _sharing(words, alphabet) -> list:
    """Where each word first occurs, and whether it lies over `alphabet`."""
    first: dict[int, int] = {}
    return [(first.setdefault(id(w), i), w.alphabet is alphabet) for i, w in enumerate(words)]


def _shape(result) -> list:
    if isinstance(result, tuple):  # a factorization and its label
        m = result[0]
        return _sharing(m.cycles, m.cycles[0].alphabet if m.cycles else None)
    return _sharing(result.relators, result.generators)


def _header_rule(text: str, error: ValueError | None) -> bool:
    """Whether `error` is the new rule's, and the file does break the rule."""
    match = _HEADER_RULE.match(str(error)) if error is not None else None
    if match is None:
        return False
    keys = [line.strip().partition(" ")[0] for line in text.splitlines()]
    n = int(match.group(1))
    assert keys[n - 1] == "fiber_genus" and "fibration" not in keys[: n - 1], text
    return True


def check_against_reference() -> tuple[int, int, int, int]:
    """Read every file of the corpus with both pairs of readers; return
    how many files were checked, how many readings were accepted, how many
    rejected with equal messages, and how many fell under the header rule."""
    checked = accepted = rejected = header_rule = 0
    for name, text in corpus():
        for new, old in (
            (parse_presentation, reference_parse_presentation),
            (parse_factorization, reference_parse_factorization),
        ):
            got, got_error = _outcome(new, text)
            expected, expected_error = _outcome(old, text)
            if _header_rule(text, got_error):
                header_rule += 1
            elif got_error is not None or expected_error is not None:
                assert (type(got_error), str(got_error)) == (
                    type(expected_error), str(expected_error)
                ), (name, new.__name__, text)
                rejected += 1
            else:
                assert got == expected, (name, new.__name__, text)
                assert _shape(got) == _shape(expected), (name, new.__name__, text)
                accepted += 1
        checked += 1
    return checked, accepted, rejected, header_rule


if __name__ == "__main__":
    checked, accepted, rejected, header_rule = check_against_reference()
    print(f"Python {sys.version.split()[0]}: {checked} files, {accepted} readings accepted "
          f"alike, {rejected} rejected with equal messages, {header_rule} under the header rule")
