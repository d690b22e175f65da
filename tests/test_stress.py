"""Torture tests: arbitrary-precision exactness, parser fuzzing, and
cross-construction consistency sweeps."""

import random
import string
import subprocess
import sys

from oracles import determinant
from aspherical.asphericity import realizable_dimensions
from aspherical.fibersum import witness_presentation
from aspherical.fpgroup import (
    Presentation,
    parse_presentation,
    render_presentation,
)
from aspherical.word import (
    Generator,
    UnknownGenerator,
    WordSyntaxError,
    cyclic_reduce,
    parse_word,
    render_word,
    word_from_letters,
)
from aspherical.zlinalg import (
    FgAbelian,
    IntMatrix,
    abelianization,
    cokernel,
    smith_normal_form,
)


def test_snf_survives_large_entries():
    # intermediate growth forces exact big-int arithmetic; the transforms
    # must still reproduce d exactly
    rng = random.Random(701)
    for _ in range(20):
        n = rng.randrange(3, 7)
        a = IntMatrix.from_rows(
            [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(n)], cols=n
        )
        snf = smith_normal_form(a)
        assert snf.u.mul(a).mul(snf.v) == snf.d
        assert abs(determinant(snf.u)) == 1
        assert abs(determinant(snf.v)) == 1
        # |det a| equals the product of the invariants
        prod = 1
        for x in snf.diagonal:
            prod *= x
        assert abs(determinant(a)) == prod


def test_snf_structured_near_singular():
    # consecutive-integer matrices are rank 2 for any size
    for n in range(3, 7):
        a = IntMatrix.from_rows(
            [[i * n + j for j in range(n)] for i in range(n)], cols=n
        )
        snf = smith_normal_form(a)
        assert snf.u.mul(a).mul(snf.v) == snf.d
        assert sum(1 for x in snf.diagonal if x) == 2
        assert cokernel(a).free_rank == n - 2


def test_cokernel_of_scaled_identity_powers():
    a = IntMatrix.from_rows([[2**40, 0], [0, 3**30]])
    assert cokernel(a) == FgAbelian(0, (2**40 * 3**30,)) or cokernel(a) == FgAbelian(
        0, (1, 2**40 * 3**30)
    ) or cokernel(a) == FgAbelian.from_cyclic_orders([2**40, 3**30])


def test_word_parser_never_crashes_on_noise():
    rng = random.Random(702)
    alphabet = (Generator("a1"), Generator("b1"))
    chars = string.ascii_lowercase + string.digits + "[](),^*+- \t"
    for _ in range(500):
        text = "".join(rng.choice(chars) for _ in range(rng.randrange(20)))
        try:
            parse_word(text, alphabet)
        except (WordSyntaxError, UnknownGenerator):
            pass


def test_word_parser_handles_adversarial_but_valid_input():
    alphabet = (Generator("a1"), Generator("b1"))
    # each [a1, -] level doubles the body, so depth 10 is ~2^11 letters
    deep = "[a1," * 10 + "b1" + "]" * 10
    w = parse_word(deep, alphabet)
    assert len(w) == 2066  # doubling recurrence minus boundary cancellations
    assert parse_word(render_word(w), alphabet) == w
    assert render_word(parse_word("((((a1))))^-1", alphabet)) == "a1^-1"
    assert render_word(parse_word("a1^0 * b1^0", alphabet)) == "1"


def test_word_parser_caps_runaway_expansion():
    alphabet = (Generator("a1"), Generator("b1"))
    import pytest

    with pytest.raises(WordSyntaxError):
        parse_word("a1^99999999999999", alphabet)
    with pytest.raises(WordSyntaxError):
        parse_word("(a1^1000)^1000000", alphabet)
    # doubling commutators must hit the cap, not exhaust memory
    doubling = "a1 b1"
    for _ in range(12):
        doubling = f"[{doubling},{doubling}]"
    with pytest.raises(WordSyntaxError):
        parse_word(doubling, alphabet)
    # factors that each fit must not add up past the cap either
    with pytest.raises(WordSyntaxError):
        parse_word("a1^262144 b1^262144 " * 4, alphabet)
    # a large but sane power still parses
    assert len(parse_word("a1^4096", alphabet)) == 4096


def test_presentation_round_trip_fuzz():
    rng = random.Random(703)
    for _ in range(60):
        n = rng.randrange(5)
        gens = tuple(Generator(f"g{i + 1}") for i in range(n))
        relators = []
        if n:
            for _ in range(rng.randrange(4)):
                letters = [
                    (rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randrange(9))
                ]
                relators.append(cyclic_reduce(word_from_letters(gens, letters)))
        label = None if rng.random() < 0.3 else "case " + str(rng.randrange(100))
        p = Presentation(gens, tuple(relators), label=label)
        text = render_presentation(p)
        assert parse_presentation(text) == p
        assert render_presentation(parse_presentation(text)) == text


def test_realizable_dimensions_are_witnessed_by_lower_rank_groups():
    # a group realized in dimension 2n comes from a rank-(m - 2n + 4)
    # witness crossed with a torus; check the arithmetic stays inside the
    # constructible range for every reported dimension
    for m in range(4, 9):
        for torsion in ((), (2,), (3, 6)):
            gamma = FgAbelian(m, torsion)
            for dim in realizable_dimensions(gamma):
                reduced = FgAbelian(m - dim + 4, torsion)
                assert abelianization(witness_presentation(reduced)) == reduced


def test_hopf_flag_examples_by_rank():
    from aspherical.asphericity import hopf_obstruction_dim4

    # binomial(m,3) > m for m >= 5, so free groups of rank 5+ are always
    # obstructed in dimension 4; Z^4 is the free case that is not
    assert hopf_obstruction_dim4(FgAbelian(4)) is False
    for m in (5, 6, 7):
        assert hopf_obstruction_dim4(FgAbelian(m)) is True


def test_console_module_runs_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "aspherical.cli", "classify", "Z^4+Z/2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "aspherical: true" in proc.stdout

    proc = subprocess.run(
        [sys.executable, "-m", "aspherical.cli", "classify", "Z/9"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
