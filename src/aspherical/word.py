"""Freely reduced words in a finite generating set.

Words are the common currency for relators and vanishing cycles.  A word
is stored as a sequence of signed letters over a fixed alphabet and is
kept freely reduced at all times (no adjacent x x^-1 pair).  The text
grammar, shared by relator files and the CLI, is

    word    := "1" | factor+
    factor  := ident power? | "[" word "," word "]" power? | "(" word ")" power?
    power   := "^" signed-integer
    ident   := [a-z][a-z0-9_]*

with factors separated by whitespace or "*".  Commutator brackets are
sugar: [u,v] denotes u v u^-1 v^-1.  The identity word renders as "1".

The parser, and every function here or in `fpgroup` and `fibersum` that
makes a word, assembles the letters, freely reduces them once and
constructs (so validates) one `Word`, never a fold of intermediate words.

Repeated relators and vanishing cycles are shared objects: a file's
distinct lines are parsed once, `cyclic_reduce` returns a word it leaves
unchanged, and rendering and abelianizing visit each object once (keyed
by identity within the call), so each distinct word is validated once.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .limits import _MAX_PARSED_LETTERS

_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


class _Value:
    """An immutable value, in place of a frozen dataclass, whose import costs
    a cold start more than `classify` does.  A subclass lists its fields in
    `__slots__`, which equality, hashing and the repr all read, and sets
    them in `__init__` with `object.__setattr__`."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__slots__)  # read in C: equality is on hot paths

    def _immutable(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class WordSyntaxError(ValueError):
    """Malformed word text; `position` is the character offset."""

    def __init__(self, position: int, message: str):
        super().__init__(f"at position {position}: {message}")
        self.position = position


class UnknownGenerator(ValueError):
    def __init__(self, name: str):
        super().__init__(f"unknown generator {_quote(name)}")
        self.name = name


class Generator(_Value):
    """A named generator.  Names follow the ident grammar above."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not _IDENT_RE.match(name):
            raise ValueError(f"invalid generator name {_quote(name)}")
        object.__setattr__(self, "name", name)


class Word(_Value):
    """A freely reduced word: letters are (generator index, sign) pairs."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: tuple[Generator, ...], letters: tuple[tuple[int, int], ...]):
        n = len(alphabet)
        pi = ps = None  # the previous letter
        k = 0  # counted by hand: enumerate made this loop a third slower
        for i, s in letters:
            if not 0 <= i < n:
                raise ValueError(f"letter {k} references generator {i} of {n}")
            if s not in (1, -1):
                raise ValueError(f"letter {k} has sign {s}")
            if i == pi and s == -ps:
                raise ValueError("word is not freely reduced")
            pi, ps = i, s
            k += 1
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)


def _free_reduce(letters: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for i, s in letters:
        if out and out[-1] == (i, -s):
            out.pop()
        else:
            out.append((i, s))
    return tuple(out)


def _inv(letters: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(i, -s) for i, s in reversed(letters)]


def cyclic_reduce(w: Word) -> Word:
    """Strip mutually inverse first/last letters until none remain; the
    cancelling pairs are counted first and cut off with one slice.  A word
    with none is returned itself."""
    letters = w.letters
    k, last = 0, len(letters) - 1
    while k < last - k and letters[k] == (letters[last - k][0], -letters[last - k][1]):
        k += 1
    return Word(w.alphabet, letters[k : len(letters) - k]) if k else w


def exponent_vector(w: Word) -> tuple[int, ...]:
    """Exponent sums of w over its whole alphabet, in alphabet order."""
    vec = [0] * len(w.alphabet)
    for i, s in w.letters:
        vec[i] += s
    return tuple(vec)


def render_word(w: Word) -> str:
    """Render with runs collapsed into powers; the identity is "1"."""
    names = {i: w.alphabet[i].name for i, _ in w.letters}
    return _render_letters(w.letters, names, {i: f"{x}^-1" for i, x in names.items()})


def _render_letters(
    letters: tuple[tuple[int, int], ...],
    names: Sequence[str] | Mapping[int, str],
    inverses: Sequence[str] | Mapping[int, str],
) -> str:
    """Runs of equal letters as powers, in one loop over the letters;
    `names[i]` and `inverses[i]` spell generator i and its inverse."""
    if not letters:
        return "1"
    parts: list[str] = []
    run, n = letters[0], 0
    for letter in (*letters, None):  # the sentinel closes the last run
        if letter == run:
            n += 1
            continue
        i, s = run
        if n == 1:
            parts.append(names[i] if s > 0 else inverses[i])
        else:
            parts.append(f"{names[i]}^{s * n}")
        run, n = letter, 1
    return " ".join(parts)


# --- parser ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<ident>[a-z][a-z0-9_]*)
      | (?P<number>\d+)
      | (?P<sym>[\[\](),^*+-])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise WordSyntaxError(pos, f"unexpected character {text[pos]!r}")
        if m.lastgroup != "ws":
            kind = m.lastgroup if m.lastgroup != "sym" else m.group()
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _quote(value: object) -> str:
    """`value!r` for an error message, cut after 64 characters, length noted."""
    text = repr(value)
    return text if len(text) <= 64 else f"{text[:64]}... ({len(text)} characters)"


class _Parser:
    def __init__(self, text: str, alphabet: tuple[Generator, ...]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.alphabet = alphabet
        self.index = {g.name: i for i, g in enumerate(alphabet)}

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise WordSyntaxError(tok[2], f"expected {kind}, found {_quote(tok[1] or 'end of input')}")
        self.pos += 1
        return tok

    def parse_word(self, closers: tuple[str, ...]) -> list[tuple[int, int]]:
        kind, value, at = self.peek()
        if kind == "number" and value == "1" and self.tokens[self.pos + 1][0] in closers:
            self.pos += 1
            return []
        letters = self.parse_factor()
        while True:
            kind, value, at = self.peek()
            if len(letters) > _MAX_PARSED_LETTERS:
                raise WordSyntaxError(at, "word expansion too large")
            if kind == "*":
                self.pos += 1
                letters += self.parse_factor()
            elif kind in ("ident", "[", "("):
                letters += self.parse_factor()
            elif kind in closers:
                return letters
            else:
                raise WordSyntaxError(at, f"unexpected {_quote(value)}")

    def parse_factor(self) -> list[tuple[int, int]]:
        kind, value, at = self.peek()
        if kind == "ident":
            self.pos += 1
            idx = self.index.get(value)
            if idx is None:
                raise UnknownGenerator(value)
            base = [(idx, 1)]
        elif kind == "[":
            self.pos += 1
            u = self.parse_word(closers=(",",))
            self.take(",")
            v = self.parse_word(closers=("]",))
            self.take("]")
            if 2 * (len(u) + len(v)) > _MAX_PARSED_LETTERS:
                raise WordSyntaxError(at, "word expansion too large")
            base = u + v + _inv(u) + _inv(v)
        elif kind == "(":
            self.pos += 1
            base = self.parse_word(closers=(")",))
            self.take(")")
        else:
            raise WordSyntaxError(at, f"expected a factor, found {_quote(value or 'end of input')}")
        if self.peek()[0] == "^":
            self.pos += 1
            exponent = self.parse_exponent()
            if len(base) * abs(exponent) > _MAX_PARSED_LETTERS:
                raise WordSyntaxError(at, "word expansion too large")
            base = _power(base, exponent)
        return base

    def parse_exponent(self) -> int:
        kind, value, at = self.peek()
        sign = 1
        if kind in ("+", "-"):
            sign = -1 if kind == "-" else 1
            self.pos += 1
        tok = self.take("number")
        return sign * int(tok[1])


def _power(letters: list[tuple[int, int]], n: int) -> list[tuple[int, int]]:
    if n < 0:
        letters, n = _inv(letters), -n
    return letters * n


def parse_word(text: str, alphabet: Sequence[Generator]) -> Word:
    """Parse `text` over `alphabet`; see the module docstring for the grammar."""
    parser = _Parser(text, tuple(alphabet))
    letters = parser.parse_word(closers=("end",))
    parser.take("end")
    return Word(tuple(alphabet), _free_reduce(letters))
