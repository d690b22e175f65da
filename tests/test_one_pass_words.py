"""The one-pass word functions against the folds they replaced.

The commutator brackets of `parse_word`, `surface_relator`, `apply_hom`
and `cyclic_reduce` lay out their syllables and reduce once;
`in_row_lattice` compares two cokernels.
The references in `tests/oracles.py` build the same words through
`multiply` and answer membership from the Smith transform V.
"""

import random
import time

from oracles import (
    free_group,
    invert,
    letters_of,
    multiply,
    reference_apply_hom,
    reference_commutator,
    reference_cyclic_reduce,
    reference_in_row_lattice,
    reference_surface_relator,
    reference_witness,
    word_from_letters,
)
from aspherical.fibersum import witness_presentation
from aspherical.fpgroup import (
    GroupHom,
    apply_hom,
    compose,
    parse_presentation,
    surface_group,
    surface_relator,
)
from aspherical.word import Word, cyclic_reduce, parse_word, render_word
from aspherical.zlinalg import FgAbelian, IntMatrix, in_row_lattice


def _random_word(rng, alphabet, max_len):
    letters = [
        (rng.randrange(len(alphabet)), rng.choice((1, -1))) for _ in range(rng.randrange(max_len))
    ]
    return word_from_letters(alphabet, letters)


def _partner(rng, alphabet, u):
    """A word whose junctions with u, u^-1 cancel: u itself, its inverse,
    a piece of it or of its inverse, or a conjugate of it."""
    x = _random_word(rng, alphabet, 4)
    k = rng.randrange(len(u) + 1)
    return rng.choice(
        [
            u,
            invert(u),
            word_from_letters(u.alphabet, letters_of(u)[:k]),
            word_from_letters(u.alphabet, letters_of(u)[k:]),
            invert(word_from_letters(u.alphabet, letters_of(u)[k:])),
            multiply(multiply(x, u), invert(x)),
            _random_word(rng, alphabet, 6),
        ]
    )


def test_commutator_matches_fold():
    rng = random.Random(1501)
    for n in (1, 2, 3):
        alphabet = tuple(f"g{i + 1}" for i in range(n))
        for _ in range(400):
            u = _random_word(rng, alphabet, 8)
            v = _partner(rng, alphabet, u)
            if rng.random() < 0.5:
                u, v = v, u
            text = f"[{render_word(u)},{render_word(v)}]"
            assert parse_word(text, alphabet) == reference_commutator(u, v)


def test_cyclic_reduce_matches_stripping():
    rng = random.Random(1502)
    for n in (1, 2, 3):
        alphabet = tuple(f"g{i + 1}" for i in range(n))
        for _ in range(300):
            core = _random_word(rng, alphabet, 6)
            x = _random_word(rng, alphabet, 8)
            w = multiply(multiply(x, core), invert(x))
            assert cyclic_reduce(w) == reference_cyclic_reduce(w)
            assert cyclic_reduce(core) == reference_cyclic_reduce(core)


def test_surface_relator_matches_fold():
    for g in range(13):
        gens = surface_group(g).generators
        assert surface_relator(gens) == reference_surface_relator(gens)
        for f in range(g + 1):
            # The base relator of a fiber sum: the pairs from index 2f on.
            base = reference_surface_relator(gens[2 * f :])
            expected = word_from_letters(gens, [(i + 2 * f, s) for i, s in letters_of(base)])
            assert surface_relator(gens, 2 * f) == expected


def test_apply_hom_and_compose_match_fold():
    rng = random.Random(1503)
    for _ in range(60):
        source, middle, target = (free_group(rng.randrange(1, 4)) for _ in range(3))
        f = GroupHom(
            source,
            middle,
            tuple(_random_word(rng, middle.generators, 6) for _ in source.generators),
        )
        g = GroupHom(
            middle,
            target,
            tuple(_random_word(rng, target.generators, 6) for _ in middle.generators),
        )
        for _ in range(10):
            w = _random_word(rng, source.generators, 10)
            assert apply_hom(f, w) == reference_apply_hom(f, w)
        assert compose(f, g).images == tuple(reference_apply_hom(g, w) for w in f.images)


def test_in_row_lattice_matches_smith_columns():
    rng = random.Random(1504)
    for _ in range(300):
        rows, cols = rng.randrange(0, 5), rng.randrange(1, 5)
        lattice = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        matrix = IntMatrix.from_rows(lattice, cols=cols)
        coefficients = [rng.randint(-3, 3) for _ in lattice]
        combination = [
            sum(x * row[j] for x, row in zip(coefficients, lattice)) for j in range(cols)
        ]
        assert in_row_lattice(combination, matrix)
        assert reference_in_row_lattice(combination, matrix)
        for _ in range(3):
            v = [rng.randint(-6, 6) for _ in range(cols)]
            assert in_row_lattice(v, matrix) == reference_in_row_lattice(v, matrix)


def test_witness_matches_folded_build():
    torsions = ((), (2,), (3, 6), (2, 4, 8))
    for k, m in enumerate(list(range(4, 41, 3)) + [40]):
        for torsion in (torsions[0], torsions[1 + k % 3]):
            gamma = FgAbelian(m, torsion)
            assert witness_presentation(gamma) == reference_witness(gamma), gamma.render()


def test_surface_group_of_genus_2000_in_bounded_time():
    # The folded relator is quadratic in the genus: 4.7 s for genus 2000
    # with it on 2 vCPUs (Python 3.11).
    start = time.perf_counter()
    p = surface_group(2000)
    assert time.perf_counter() - start < 0.5
    assert len(p.relators[0]) == 8000


def test_long_cancelling_relator_parses_in_bounded_time():
    # 131,071 cancelling end pairs fit inside the parser's letter cap;
    # stripping them one copy at a time takes minutes.
    n = 131_071
    start = time.perf_counter()
    p = parse_presentation(f"group q\ngens a1 b1\nrel a1^{n} b1 a1^-{n}\n")
    assert time.perf_counter() - start < 1.0
    assert p.relators == (parse_word("b1", p.generators),)
