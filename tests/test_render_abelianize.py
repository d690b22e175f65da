"""Rendering and abelianizing a presentation in one lean pass per relator.

`render_presentation` makes the generator-name tables once and shares
the run-collapsing loop with `render_word`; `abelianization` drops zero
exponent rows before the cokernel's sparse stage.  Both must give what
the per-word paths give: the `group`/`gens` lines plus
`rel {render_word(r)}` for each relator, and the dense cokernel of the
relator matrix.
"""

import itertools
import random

from oracles import chain_relation, reference_cokernel, word_from_letters
from aspherical.fibersum import (
    fiber_sum_with_trivial_bundle,
    witness_presentation,
)
from aspherical.fpgroup import Presentation, render_presentation, surface_group
from aspherical.lefschetz import homology_trivial, parse_factorization, total_space_pi1
from aspherical.word import (
    Word,
    cyclic_reduce,
    parse_word,
    render_word,
)
from aspherical.zlinalg import FgAbelian, abelianization, relator_matrix


def _per_word(p: Presentation) -> str:
    lines = [f"group {p.label}" if p.label else "group"]
    lines.append(" ".join(["gens", *p.generators]))
    lines += [f"rel {render_word(r)}" for r in p.relators]
    return "\n".join(lines) + "\n"


def _grouped(w: Word) -> str:
    """Runs found by itertools.groupby, each rendered on its own."""
    if not w.letters:
        return "1"
    parts = []
    for (i, s), run in itertools.groupby(w.letters):
        exponent = s * len(list(run))
        name = w.alphabet[i]
        parts.append(name if exponent == 1 else f"{name}^{exponent}")
    return " ".join(parts)


def _random_relator(rng: random.Random, gens: tuple[str, ...]) -> Word:
    if not gens or rng.random() < 0.1:
        return Word(gens, ())  # the identity relator
    letters = []
    for _ in range(rng.randrange(1, 7)):  # runs, inverse runs, mixed-sign neighbours
        letters += [(rng.randrange(len(gens)), rng.choice((1, -1)))] * rng.randrange(1, 5)
    return cyclic_reduce(word_from_letters(gens, letters))


def _random_presentation(rng: random.Random, k: int) -> Presentation:
    gens = tuple(f"g{i + 1}" for i in range(0 if k % 5 == 0 else rng.randrange(1, 6)))
    distinct = [_random_relator(rng, gens) for _ in range(rng.randrange(1, 6))]
    relators = [rng.choice(distinct) for _ in range(rng.randrange(0, 12))]  # shared objects
    label = None if k % 2 else f"random {k}"
    return Presentation(gens, tuple(relators), label=label)


def test_render_presentation_equals_rendering_each_word():
    rng = random.Random(9201)
    seen = set()
    for k in range(60):
        p = _random_presentation(rng, k)
        text = render_presentation(p)
        assert text == _per_word(p)
        for r in p.relators:
            assert render_word(r) == _grouped(r)
            assert parse_word(render_word(r), p.generators) == r
        seen.add((bool(p.generators), p.label is None))
        seen.update(("identity",) for r in p.relators if not r.letters)
        seen.update(("shared",) for a, b in itertools.combinations(p.relators, 2) if a is b)
    assert seen >= {(True, True), (True, False), (False, True), (False, False)}
    assert ("identity",) in seen and ("shared",) in seen


def test_render_collapses_runs_and_keeps_mixed_sign_neighbours():
    gens = ("a", "b", "c")
    p = Presentation(
        gens,
        (
            parse_word("a^3 b^-2 a b^-1 c^-1 a^-3 b", gens),
            parse_word("a a^-1", gens),
            parse_word("c^-1 b c b^-1", gens),
        ),
        label="runs",
    )
    assert render_presentation(p) == (
        "group runs\n"
        "gens a b c\n"
        "rel a^3 b^-2 a b^-1 c^-1 a^-3 b\n"
        "rel 1\n"
        "rel c^-1 b c b^-1\n"
    )
    assert render_presentation(Presentation((), ())) == "group\ngens\n"
    identity = Word((), ())
    assert render_presentation(Presentation((), (identity, identity))) == "group\ngens\nrel 1\nrel 1\n"


def _zero_row_presentations():
    gens = tuple(f"g{i + 1}" for i in range(4))
    commutators = [
        parse_word(text, gens)
        for text in ("[g1,g2]", "[g1^2,g3]", "[g1 g2,g4^-1]", "[g3,g4]^2", "1")
    ]
    yield Presentation(gens, tuple(commutators))
    yield Presentation(gens, (commutators[0],) * 3)
    yield Presentation(gens, ())
    yield Presentation((), (Word((), ()),))


def test_abelianization_equals_the_dense_reference():
    groups = [
        FgAbelian(2), FgAbelian(4), FgAbelian(5, (2,)), FgAbelian(7, (3, 6)), FgAbelian(9, (2, 2, 4))
    ]
    presentations = [witness_presentation(gamma) for gamma in groups]
    for g in (1, 2, 3):
        m, _ = parse_factorization(chain_relation(g))
        pi1 = total_space_pi1(m, homology_trivial(m))
        for e in (1, 2):
            presentations.append(fiber_sum_with_trivial_bundle(pi1, e))
    for f in (1, 3):
        presentations.append(fiber_sum_with_trivial_bundle(surface_group(f), 2))
    zero = list(_zero_row_presentations())
    for p in presentations + zero:
        assert abelianization(p) == reference_cokernel(relator_matrix(p))
    for gamma, p in zip(groups, presentations):
        assert abelianization(p) == gamma
    for p in zero:
        assert abelianization(p) == FgAbelian(len(p.generators))
