"""Freely reduced words in a finite generating set.

Words are the common currency for relators and vanishing cycles.  A word
is stored as (generator index, nonzero exponent) syllables, as in GAP's
`ExtRepOfObj`, over a fixed alphabet, a tuple of generator names, and is
kept freely reduced: neighbouring syllables name different generators,
so a1^262144 is one syllable.  `exponent_sums` is the one reader of
exponent sums.  The text grammar, shared by relator files and the CLI, is

    word    := "1" | factor+
    factor  := ident power? | "[" word "," word "]" power? | "(" word ")" power?
    power   := "^" signed-integer
    ident   := [a-z][a-z0-9_]*

with factors separated by whitespace or "*".  Commutator brackets are
sugar: [u,v] denotes u v u^-1 v^-1.  The identity word renders as "1".
Names from outside, a presentation file's gens line, are checked against
`ident` where `fpgroup` reads them; the alphabets built in code are
ident-shaped already.

The parser, and every function here or in `fpgroup` and `fibersum` that
makes a word, assembles the syllables, freely reduces them once and
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


class Word(_Value):
    """A freely reduced word: (generator index, nonzero exponent) syllables
    over an alphabet, a tuple of generator names; neighbouring syllables
    name different generators.  Its length is its count of letters."""

    __slots__ = ("alphabet", "syllables")

    def __init__(self, alphabet: tuple[str, ...], syllables: tuple[tuple[int, int], ...]):
        n = len(alphabet)
        prev = None  # the previous syllable's generator
        k = 0  # counted by hand: enumerate made this loop a third slower
        for i, e in syllables:
            if not 0 <= i < n:
                raise ValueError(f"syllable {k} references generator {i} of {n}")
            if not e:
                raise ValueError(f"syllable {k} has exponent 0")
            if i == prev:
                raise ValueError(f"syllable {k} repeats generator {i}")
            prev = i
            k += 1
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "syllables", syllables)

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.syllables)


def _free_reduce(syllables: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for syllable in syllables:
        i = syllable[0]
        if out and out[-1][0] == i:
            e = out.pop()[1] + syllable[1]
            if e:
                out.append((i, e))
        else:
            out.append(syllable)  # shared, not copied: a power's repeats are one object
    return tuple(out)


def _inv(syllables: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(i, -e) for i, e in reversed(syllables)]


def cyclic_reduce(w: Word) -> Word:
    """Cancel opposite powers of one generator at the two ends until none
    remain; the syllables that cancel whole are counted first and cut off
    with one slice, and a partly cancelled end keeps the difference where
    it was.  A word with none is returned itself."""
    s = w.syllables
    k, last = 0, len(s) - 1
    while k < last - k and s[k][0] == s[last - k][0] and s[k][1] * s[last - k][1] < 0:
        e = s[k][1] + s[last - k][1]
        if e:
            core, end = s[k + 1 : last - k], ((s[k][0], e),)
            return Word(w.alphabet, end + core if e * s[k][1] > 0 else core + end)
        k += 1
    return Word(w.alphabet, s[k : len(s) - k]) if k else w


def exponent_sums(w: Word) -> dict[int, int]:
    """Generator index -> exponent sum, in order of first occurrence; a sum may be 0."""
    sums: dict[int, int] = {}
    for i, e in w.syllables:
        sums[i] = sums.get(i, 0) + e
    return sums


def exponent_vector(w: Word) -> tuple[int, ...]:
    """Exponent sums of w over its whole alphabet, in alphabet order."""
    sums = exponent_sums(w)
    return tuple(sums.get(i, 0) for i in range(len(w.alphabet)))


def render_word(w: Word) -> str:
    """Render each syllable as a power; the identity is "1"."""
    return _render_syllables(w.syllables, w.alphabet, [f"{name}^-1" for name in w.alphabet])


def _render_syllables(
    syllables: tuple[tuple[int, int], ...], names: Sequence[str], inverses: Sequence[str]
) -> str:
    """`names[i]` and `inverses[i]` spell generator i and its inverse."""
    return " ".join(
        [names[i] if e == 1 else inverses[i] if e == -1 else f"{names[i]}^{e}" for i, e in syllables]
    ) or "1"


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
    def __init__(self, text: str, index: Mapping[str, int]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.index = index  # generator name -> its position in the alphabet

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise WordSyntaxError(tok[2], f"expected {kind}, found {_quote(tok[1] or 'end of input')}")
        self.pos += 1
        return tok

    def parse_word(self, closers: tuple[str, ...]) -> tuple[list[tuple[int, int]], int]:
        """The factors' syllables up to a closer, unreduced, and their letter count."""
        kind, value, at = self.peek()
        if kind == "number" and value == "1" and self.tokens[self.pos + 1][0] in closers:
            self.pos += 1
            return [], 0
        syllables, letters = self.parse_factor()
        while True:
            kind, value, at = self.peek()
            if letters > _MAX_PARSED_LETTERS:
                raise WordSyntaxError(at, "word expansion too large")
            if kind == "*":
                self.pos += 1
            elif kind not in ("ident", "[", "("):
                if kind in closers:
                    return syllables, letters
                raise WordSyntaxError(at, f"unexpected {_quote(value)}")
            more, n = self.parse_factor()
            syllables += more
            letters += n

    def parse_factor(self) -> tuple[list[tuple[int, int]], int]:
        kind, value, at = self.peek()
        if kind == "ident":
            self.pos += 1
            idx = self.index.get(value)
            if idx is None:
                raise UnknownGenerator(value)
            base, letters = [(idx, 1)], 1
        elif kind == "[":
            self.pos += 1
            u, m = self.parse_word(closers=(",",))
            self.take(",")
            v, n = self.parse_word(closers=("]",))
            self.take("]")
            if (letters := 2 * (m + n)) > _MAX_PARSED_LETTERS:
                raise WordSyntaxError(at, "word expansion too large")
            base = u + v + _inv(u) + _inv(v)
        elif kind == "(":
            self.pos += 1
            base, letters = self.parse_word(closers=(")",))
            self.take(")")
        else:
            raise WordSyntaxError(at, f"expected a factor, found {_quote(value or 'end of input')}")
        if self.peek()[0] == "^":
            self.pos += 1
            exponent = self.parse_exponent()
            if (letters := letters * abs(exponent)) > _MAX_PARSED_LETTERS:
                raise WordSyntaxError(at, "word expansion too large")
            base = _power(base, exponent)
        return base, letters

    def parse_exponent(self) -> int:
        kind, value, at = self.peek()
        sign = 1
        if kind in ("+", "-"):
            sign = -1 if kind == "-" else 1
            self.pos += 1
        tok = self.take("number")
        return sign * int(tok[1])


def _power(syllables: list[tuple[int, int]], n: int) -> list[tuple[int, int]]:
    if len(syllables) == 1:  # a power of one syllable stays one syllable
        return [(syllables[0][0], syllables[0][1] * n)] if n else []
    if n < 0:
        syllables, n = _inv(syllables), -n
    return syllables * n


def parse_word(text: str, alphabet: Sequence[str], index: Mapping[str, int] | None = None) -> Word:
    """Parse `text` over `alphabet`, a sequence of generator names; see the
    module docstring for the grammar.  `index` maps each name to its
    position; a file's reader builds it once for all its words."""
    alphabet = tuple(alphabet)
    parser = _Parser(text, index or {name: i for i, name in enumerate(alphabet)})
    syllables, _ = parser.parse_word(closers=("end",))
    parser.take("end")
    return Word(alphabet, _free_reduce(syllables))
