"""Syllable words against the letter-level oracle.

`word` stores a word as (generator, exponent) syllables.  The references
in `tests/oracles.py` spell every word out letter by letter
(`letters_of`), reduce and fold on letters, and group runs back into
syllables only to build the `Word` they return.  Each random word text
here comes with its letters, written out factor by factor as the grammar
defines them, so the parser is checked against the expansion it
replaced.
"""

import itertools
import random

import pytest

from oracles import (
    free_group,
    letters_of,
    reference_apply_hom,
    reference_cyclic_reduce,
    word_from_letters,
)
from aspherical.fpgroup import GroupHom, Presentation, apply_hom
from aspherical.limits import _MAX_PARSED_LETTERS
from aspherical.word import WordSyntaxError, cyclic_reduce, exponent_vector, parse_word, render_word

ALPHABET = ("a", "b", "c")


def _inverse(letters):
    return [(i, -s) for i, s in reversed(letters)]


def _expression(rng, depth):
    """A random factor's text and its letters, unreduced."""
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        i = rng.randrange(len(ALPHABET))
        text, letters = ALPHABET[i], [(i, 1)]
    elif roll < 0.65:
        (u, x), (v, y) = _expression(rng, depth - 1), _expression(rng, depth - 1)
        text, letters = f"[{u},{v}]", x + y + _inverse(x) + _inverse(y)
    elif roll < 0.95:
        parts = [_expression(rng, depth - 1) for _ in range(rng.randrange(1, 4))]
        text = "(" + " ".join(t for t, _ in parts) + ")"
        letters = [letter for _, x in parts for letter in x]
    else:
        text, letters = "(1)", []
    if rng.random() < 0.5:  # long powers of one generator, short ones of the rest
        n = rng.randrange(-12, 13) if len(text) == 1 else rng.choice((0, 1, -1, 2, -2))
        text += f"^{n}"
        letters = (letters if n > 0 else _inverse(letters)) * abs(n)
    return text, letters


def _random_text(rng):
    """A word text and its letters: a product of random factors, conjugated
    now and then by powers that cancel in part at either end."""
    parts = [_expression(rng, 3) for _ in range(rng.randrange(1, 4))]
    text = " ".join(t for t, _ in parts)
    letters = [letter for _, x in parts for letter in x]
    if rng.random() < 0.4:
        i = rng.randrange(len(ALPHABET))
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        text = f"{ALPHABET[i]}^{m} {text} {ALPHABET[i]}^-{n}"
        letters = [(i, 1)] * m + letters + [(i, -1)] * n
    return text, letters


def _reference_render(letters):
    """Runs of equal letters as powers, found by itertools.groupby."""
    parts = []
    for (i, s), run in itertools.groupby(letters):
        n = s * len(list(run))
        parts.append(ALPHABET[i] if n == 1 else f"{ALPHABET[i]}^{n}")
    return " ".join(parts) or "1"


def _check(text, letters, f):
    w = parse_word(text, ALPHABET)
    expected = word_from_letters(ALPHABET, letters)
    assert w == expected, text
    reduced = letters_of(w)
    assert len(w) == len(reduced), text
    assert render_word(w) == _reference_render(reduced), text
    assert parse_word(render_word(w), ALPHABET) == w, text
    sums = [0] * len(ALPHABET)
    for i, s in reduced:
        sums[i] += s
    assert exponent_vector(w) == tuple(sums), text
    core = cyclic_reduce(w)
    assert core == reference_cyclic_reduce(w), text
    assert len(core) == len(letters_of(core)), text
    assert apply_hom(f, w) == reference_apply_hom(f, w), text


def _random_hom(rng):
    target = free_group(rng.randrange(1, 4))
    images = []
    for _ in ALPHABET:
        letters = [
            (rng.randrange(len(target.generators)), rng.choice((1, -1)))
            for _ in range(rng.randrange(5))
        ]
        images.append(word_from_letters(target.generators, letters))
    return GroupHom(Presentation(ALPHABET, ()), target, tuple(images))


NAMED = {
    # a partly cancelled end keeps the difference where it was
    "a^3 b a^-1": [(0, 1)] * 3 + [(1, 1), (0, -1)],
    "a b a^-3": [(0, 1), (1, 1)] + [(0, -1)] * 3,
    "c^-2 a b^4 a^-1 c^5": [(2, -1)] * 2 + [(0, 1)] + [(1, 1)] * 4 + [(0, -1)] + [(2, 1)] * 5,
    # ^0, alone and inside a product
    "a^0": [],
    "b a^0 b^-1 c": [(2, 1)],
    # a negative power of a multi-syllable base
    "(a^2 b^-1 c)^-3": [(2, -1), (1, 1), (0, -1), (0, -1)] * 3,
    "[a^2,b]^-2": ([(1, 1)] + [(0, 1)] * 2 + [(1, -1)] + [(0, -1)] * 2) * 2,
    # one syllable
    "c^-7": [(2, -1)] * 7,
    "(a^3)^-4 a^5": [(0, -1)] * 12 + [(0, 1)] * 5,
}


def test_named_cases_match_the_letter_oracle():
    f = _random_hom(random.Random(3101))
    for text, letters in NAMED.items():
        _check(text, letters, f)
    assert parse_word("(a^3)^-4 a^5", ALPHABET).syllables == ((0, -7),)
    assert cyclic_reduce(parse_word("a^3 b a^-1", ALPHABET)).syllables == ((0, 2), (1, 1))
    assert cyclic_reduce(parse_word("a b a^-3", ALPHABET)).syllables == ((1, 1), (0, -2))


def test_random_words_match_the_letter_oracle():
    rng = random.Random(3102)
    f = _random_hom(rng)
    for k in range(2000):
        if k % 50 == 0:
            f = _random_hom(rng)
        _check(*_random_text(rng), f)


def test_the_letter_cap_counts_letters_not_syllables():
    # Each accepted word expands to at most _MAX_PARSED_LETTERS letters,
    # and each refused one to more, however few syllables it has; x^0
    # expands to none, whatever its exponent.
    cap = _MAX_PARSED_LETTERS
    h, q = cap // 2, cap // 4
    accepted = [
        f"a^{cap}", f"a^-{cap}", f"(a^2)^{h}", f"(a b)^-{h}", f"a^{h} b^{h}",
        f"[a^{q},b^{q}]", f"[a^{q},b^{q - 1} c]", f"(a^0)^{10 * cap}", f"a^{h} (b^{q})^2",
    ]
    refused = [
        f"a^{cap + 1}", f"a^-{cap + 1}", f"(a^2)^{h + 1}", f"(a b)^-{h + 1}", f"a^{h} b^{h} c",
        f"[a^{q},b^{q} c]", f"[a^{q},b^{q}]^2", f"a^{h} (b^{q})^2 c", f"c [a^{q},b^{q}]",
    ]
    for text in accepted:
        assert len(parse_word(text, ALPHABET)) <= cap, text
    for text in refused:
        with pytest.raises(WordSyntaxError, match="word expansion too large"):
            parse_word(text, ALPHABET)
