import random

import pytest

from oracles import (
    empty_word,
    generator_word,
    invert,
    multiply,
    reference_commutator,
    word_from_letters,
)
from aspherical.fpgroup import FormatError, parse_presentation
from aspherical.word import (
    UnknownGenerator,
    Word,
    WordSyntaxError,
    cyclic_reduce,
    exponent_vector,
    parse_word,
    render_word,
)

AB = ("a1", "b1", "a2", "b2")


def w(text):
    return parse_word(text, AB)


def test_parse_literal():
    assert w("a1 b1 a1^-1 b1^-1").letters == ((0, 1), (1, 1), (0, -1), (1, -1))


def test_parse_commutator_sugar():
    assert w("[a1,b1]") == w("a1 b1 a1^-1 b1^-1")


def test_parse_free_reduction():
    assert w("a1 a1^-1") == empty_word(AB)


def test_parse_identity_token():
    assert w("1") == empty_word(AB)
    assert w("[a1,1]") == empty_word(AB)


def test_parse_star_separator_and_parens():
    assert w("a1*b1") == w("a1 b1")
    assert w("(a1 b1)^-1") == w("b1^-1 a1^-1")
    assert w("(a1 b1)^2") == w("a1 b1 a1 b1")
    assert w("[a1,b1]^-1") == w("[b1,a1]")


def test_parse_powers():
    assert w("a1^3").letters == ((0, 1),) * 3
    assert w("a1^0") == empty_word(AB)
    assert w("a1^-2").letters == ((0, -1),) * 2


def test_parse_nested_commutator():
    inner = reference_commutator(w("b1"), w("a2"))
    assert w("[a1,[b1,a2]]") == reference_commutator(w("a1"), inner)


def test_parse_unknown_generator():
    with pytest.raises(UnknownGenerator) as exc:
        w("a1 zz")
    assert exc.value.name == "zz"


@pytest.mark.parametrize("bad", ["a1^", "[a1,b1", "a1 )", "^2", "a1 2", "", "*a1", "a1^x", "[,a1]"])
def test_parse_syntax_errors(bad):
    with pytest.raises(WordSyntaxError):
        w(bad)


def test_syntax_error_position():
    with pytest.raises(WordSyntaxError) as exc:
        w("a1 %")
    assert exc.value.position == 3


def test_cyclic_reduce():
    assert cyclic_reduce(w("a1 b1 a1^-1")) == w("b1")
    assert cyclic_reduce(w("[a1,b1]")) == w("[a1,b1]")
    assert cyclic_reduce(w("a2^-1 [a1,b1] a2")) == w("[a1,b1]")
    assert cyclic_reduce(empty_word(AB)) == empty_word(AB)


def test_exponent_sum():
    assert exponent_vector(w("[a1,b1]")) == (0, 0, 0, 0)
    assert exponent_vector(w("a1^3")) == (3, 0, 0, 0)
    assert exponent_vector(w("[a1,b1] [a2,b2]")) == (0, 0, 0, 0)
    assert exponent_vector(w("a1 b2^-2 a2 a1")) == (2, 0, 1, -2)


def test_word_constructor_rejects_unreduced():
    with pytest.raises(ValueError):
        Word(AB, ((0, 1), (0, -1)))


def test_word_constructor_rejects_bad_letters():
    with pytest.raises(ValueError):
        Word(AB, ((7, 1),))
    with pytest.raises(ValueError):
        Word(AB, ((0, 2),))


def test_word_constructor_names_the_first_bad_letter():
    n = len(AB)
    cases = {
        ((0, 1), (n, 1), (1, 0)): f"letter 1 references generator {n} of {n}",
        ((0, 1), (-1, 1)): f"letter 1 references generator -1 of {n}",
        ((1, -1), (0, 3), (0, -3)): "letter 1 has sign 3",
        ((0, 1), (1, 1), (1, -1), (n, 1)): "word is not freely reduced",
        ((0, 1), (1, 1), (0, 0)): "letter 2 has sign 0",
    }
    for letters, message in cases.items():
        with pytest.raises(ValueError) as exc:
            Word(AB, letters)
        assert str(exc.value) == message


def test_generator_name_validation():
    # A gens line takes exactly the names the word grammar reads as one
    # generator: "1" is the identity, and the others cannot be spelled.
    for bad in ("1", "A", "9x", "a-b"):
        with pytest.raises(FormatError) as exc:
            parse_presentation(f"group x\ngens {bad}\n")
        assert str(exc.value) == f"line 2: invalid generator name '{bad}'"
        if bad == "1":
            assert parse_word(bad, (bad,)) == empty_word((bad,))
        else:
            with pytest.raises(ValueError):
                parse_word(bad, (bad,))
    assert parse_presentation("group x\ngens \n").generators == ()
    assert parse_presentation("group x\ngens a b\n").generators == ("a", "b")
    gens = parse_presentation("group x\ngens a1_x\n").generators
    assert gens == ("a1_x",)
    assert parse_word("a1_x", gens) == generator_word(gens, 0)


def _random_letters(rng, length):
    return [(rng.randrange(len(AB)), rng.choice((1, -1))) for _ in range(length)]


def _random_word(rng, max_len=12):
    return word_from_letters(AB, _random_letters(rng, rng.randrange(max_len)))


def test_parse_concatenation_matches_fold():
    # The parser reduces the letters of all factors once; the fold reduces
    # at each junction, and either grouping gives the same word.
    rng = random.Random(101)
    for _ in range(200):
        u, v, x = (_random_word(rng) for _ in range(3))
        ru, rv, rx = (render_word(y) for y in (u, v, x))
        expected = multiply(multiply(u, v), x)
        assert multiply(u, multiply(v, x)) == expected
        assert w(f"({ru}) ({rv}) ({rx})") == expected
        assert w(f"(({ru}) ({rv})) * ({rx})") == expected
        assert w(f"({ru}) (({rv}) ({rx}))") == expected


def test_parse_power_matches_repeated_product():
    rng = random.Random(106)
    for _ in range(200):
        u = _random_word(rng)
        n = rng.randrange(-3, 4)
        expected = empty_word(AB)
        for _ in range(abs(n)):
            expected = multiply(expected, u if n > 0 else invert(u))
        assert w(f"({render_word(u)})^{n}") == expected


def test_render_parse_round_trip_random():
    rng = random.Random(102)
    for _ in range(300):
        word = _random_word(rng, max_len=20)
        assert parse_word(render_word(word), AB) == word


def test_exponent_sum_invariant_under_cyclic_reduce():
    rng = random.Random(103)
    for _ in range(200):
        word = _random_word(rng, max_len=20)
        assert exponent_vector(cyclic_reduce(word)) == exponent_vector(word)


def test_exponent_sum_additive_under_multiply():
    rng = random.Random(104)
    for _ in range(200):
        u, v = _random_word(rng), _random_word(rng)
        total = [x + y for x, y in zip(exponent_vector(u), exponent_vector(v))]
        assert list(exponent_vector(multiply(u, v))) == total


def _reduce_in_random_order(letters, rng):
    letters = list(letters)
    while True:
        spots = [
            i
            for i in range(len(letters) - 1)
            if letters[i] == (letters[i + 1][0], -letters[i + 1][1])
        ]
        if not spots:
            return tuple(letters)
        i = rng.choice(spots)
        del letters[i : i + 2]


def test_free_reduction_confluent():
    # Cancelling adjacent inverse pairs in any order reaches the same
    # normal form the constructor computes.
    rng = random.Random(105)
    for _ in range(100):
        raw = _random_letters(rng, rng.randrange(64))
        text = " ".join(AB[i] + ("" if s > 0 else "^-1") for i, s in raw) or "1"
        expected = parse_word(text, AB).letters
        for _ in range(4):
            assert _reduce_in_random_order(raw, rng) == expected


def test_generator_word_and_render_identity():
    assert render_word(generator_word(AB, 2)) == "a2"
    assert render_word(generator_word(AB, 2, -1)) == "a2^-1"
    assert render_word(empty_word(AB)) == "1"
    assert render_word(w("a1 a1 a1")) == "a1^3"
