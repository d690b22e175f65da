import random

import pytest

from oracles import (
    free_group,
    generator_word,
    is_surjective_onto,
    reference_direct_sum,
    word_from_letters,
)
from aspherical.fpgroup import (
    FormatError,
    GroupHom,
    InvalidGenus,
    InvalidHomomorphism,
    Presentation,
    TargetSourceMismatch,
    abelian_presentation,
    apply_hom,
    compose,
    free_product,
    parse_presentation,
    pinch_presentation_map,
    quotient_by_normal_closure,
    render_presentation,
    surface_group,
)
from aspherical.word import (
    cyclic_reduce,
    exponent_vector,
    parse_word,
    render_word,
)
from aspherical.zlinalg import (
    FgAbelian,
    IntMatrix,
    abelianization,
    cokernel,
    induced_matrix,
    relator_matrix,
)


def test_constructor_input_validation():
    with pytest.raises(InvalidGenus):
        surface_group(-1)


def test_surface_group():
    torus = surface_group(1)
    assert list(torus.generators) == ["a1", "b1"]
    assert torus.relators[0] == parse_word("[a1,b1]", torus.generators)
    assert abelianization(torus) == FgAbelian(2)

    genus2 = surface_group(2)
    assert len(genus2.relators[0]) == 8
    assert genus2.relators[0] == parse_word("[a1,b1] [a2,b2]", genus2.generators)

    assert surface_group(0).generators == ()
    for g in range(9):
        assert abelianization(surface_group(g)) == FgAbelian(2 * g)


def test_free_product_torus_and_z2():
    z2 = Presentation(
        ("c1", "c2"),
        (parse_word("[c1,c2]", ("c1", "c2")),),
    )
    p = free_product(surface_group(1), z2)
    assert list(p.generators) == ["a1", "b1", "c1", "c2"]
    assert [render_word(r) for r in p.relators] == [
        "a1 b1 a1^-1 b1^-1",
        "c1 c2 c1^-1 c2^-1",
    ]
    assert abelianization(p) == FgAbelian(4)


def test_free_product_renames_clashes():
    p = free_product(surface_group(1), surface_group(1))
    assert list(p.generators) == ["a1", "b1", "a1_2", "b1_2"]
    assert render_word(p.relators[1]) == "a1_2 b1_2 a1_2^-1 b1_2^-1"


def test_free_product_with_trivial():
    p = surface_group(2)
    assert free_product(surface_group(0), p).generators == p.generators
    assert free_product(p, surface_group(0)).relators == p.relators


def _random_presentation(rng, tag):
    n = rng.randrange(1, 4)
    gens = tuple(f"{tag}{i + 1}" for i in range(n))
    relators = []
    for _ in range(rng.randrange(3)):
        letters = [(rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randrange(1, 7))]
        relators.append(cyclic_reduce(word_from_letters(gens, letters)))
    return Presentation(gens, tuple(relators))


def test_product_abelianizations_are_direct_sums():
    rng = random.Random(301)
    for _ in range(10):
        p = _random_presentation(rng, "p")
        q = _random_presentation(rng, "q")
        expected = reference_direct_sum(abelianization(p), abelianization(q))
        assert abelianization(free_product(p, q)) == expected


def test_quotient_by_normal_closure():
    pi2 = surface_group(2)
    gens = pi2.generators
    killed = quotient_by_normal_closure(pi2, [parse_word(t, gens) for t in "a1 b1 a2 b2".split()])
    assert abelianization(killed) == FgAbelian(0)

    halved = quotient_by_normal_closure(pi2, [parse_word("a1", gens), parse_word("a2", gens)])
    assert abelianization(halved) == FgAbelian(2)

    assert quotient_by_normal_closure(pi2, []) == pi2

    # words get cyclically reduced on the way in
    q = quotient_by_normal_closure(pi2, [parse_word("b1^-1 a1 b1", pi2.generators)])
    assert q.relators[-1] == parse_word("a1", pi2.generators)

    other = free_group(1)
    with pytest.raises(ValueError, match="relator over a different alphabet"):
        quotient_by_normal_closure(pi2, [parse_word("g1", other.generators)])


def test_quotient_abelianization_matches_cokernel_oracle():
    rng = random.Random(302)
    for _ in range(25):
        p = _random_presentation(rng, "p")
        n = len(p.generators)
        ws = []
        for _ in range(rng.randrange(3)):
            letters = [(rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randrange(1, 7))]
            ws.append(word_from_letters(p.generators, letters))
        q = quotient_by_normal_closure(p, ws)
        rows = [list(exponent_vector(r)) for r in p.relators]
        rows += [list(exponent_vector(w)) for w in ws]
        assert abelianization(q) == cokernel(IntMatrix.from_rows(rows, cols=n))


def test_abelian_presentation():
    z2 = abelian_presentation(FgAbelian(2))
    assert list(z2.generators) == ["g1", "g2"]
    assert [render_word(r) for r in z2.relators] == ["g1 g2 g1^-1 g2^-1"]

    c2 = abelian_presentation(FgAbelian(0, (2,)))
    assert list(c2.generators) == ["t1"]
    assert [render_word(r) for r in c2.relators] == ["t1^2"]

    g = FgAbelian(4, (2,))
    p = abelian_presentation(g)
    assert len(p.generators) == 5
    assert len(p.relators) == 11  # 10 commutators plus t1^2
    assert abelianization(p) == g


def test_abelian_presentation_round_trips():
    rng = random.Random(303)
    for _ in range(20):
        g = FgAbelian.from_cyclic_orders(
            [rng.choice([0, 2, 3, 4, 6, 8]) for _ in range(rng.randrange(5))]
        )
        assert abelianization(abelian_presentation(g)) == g


def test_pinch_presentation_map():
    u = pinch_presentation_map(1, 1)
    assert len(u.source.generators) == 4
    assert len(u.target.generators) == 4
    image = apply_hom(u, u.source.relators[0])
    assert exponent_vector(image) == (0, 0, 0, 0)
    assert induced_matrix(u) == IntMatrix.identity(4)

    u2 = pinch_presentation_map(2, 1)
    assert is_surjective_onto(
        induced_matrix(u2), abelianization(u2.target), relator_matrix(u2.target)
    )

    with pytest.raises(InvalidGenus):
        pinch_presentation_map(1, 0)
    with pytest.raises(InvalidGenus):
        pinch_presentation_map(-1, 1)


def test_pinch_map_genus_zero_first_factor():
    u = pinch_presentation_map(0, 2)
    assert induced_matrix(u) == IntMatrix.identity(4)


def test_hom_validation_rejects_bad_images():
    c2 = abelian_presentation(FgAbelian(0, (2,)))
    f1 = free_group(1)
    with pytest.raises(InvalidHomomorphism):
        # t1 -> g1 sends the relator t1^2 to g1^2 which survives abelianized
        GroupHom(c2, f1, (generator_word(f1.generators, 0),))


def test_hom_image_count_checked():
    f2 = free_group(2)
    with pytest.raises(ValueError):
        GroupHom(f2, f2, (generator_word(f2.generators, 0),))


def _identity(p):
    return GroupHom(p, p, tuple(generator_word(p.generators, i) for i in range(len(p.generators))))


def test_compose_identity_laws():
    f = pinch_presentation_map(1, 1)
    assert compose(_identity(f.source), f) == f
    assert compose(f, _identity(f.target)) == f


def test_compose_mismatch():
    f = _identity(free_group(2))
    g = _identity(free_group(3))
    with pytest.raises(TargetSourceMismatch):
        compose(f, g)


def _random_free_hom(rng, source_rank, target):
    images = []
    n = len(target.generators)
    for _ in range(source_rank):
        letters = [(rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randrange(5))]
        images.append(word_from_letters(target.generators, letters))
    return GroupHom(free_group(source_rank), target, tuple(images))


def test_compose_matrix_is_product():
    rng = random.Random(304)
    for _ in range(20):
        f = _random_free_hom(rng, rng.randrange(1, 4), free_group(rng.randrange(1, 4)))
        g = _random_free_hom(rng, len(f.target.generators), surface_group(2))
        # realign f into g's source so the composition is defined
        f = GroupHom(f.source, g.source, f.images)
        assert induced_matrix(compose(f, g)) == induced_matrix(g).mul(induced_matrix(f))


def test_presentation_chain_at_abelian_level():
    # pi_{2r} -> F_r -> (abelian target), surjective after abelianization
    gamma = FgAbelian(4, (2,))
    target = abelian_presentation(gamma)
    r = len(target.generators)
    pi = surface_group(r)  # genus r has 2r generators, a_i and b_i
    fr = free_group(r)
    collapse = []
    for i in range(r):
        collapse.append(generator_word(fr.generators, i))
        collapse.append(parse_word("1", fr.generators))
    s = GroupHom(pi, fr, tuple(collapse))
    t = GroupHom(fr, target, tuple(generator_word(target.generators, i) for i in range(r)))
    chain = compose(s, t)
    assert is_surjective_onto(induced_matrix(chain), gamma, relator_matrix(target))


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(("a1", "a1"), ())
    gens = ("a1", "b1")
    with pytest.raises(ValueError):
        Presentation(gens, (parse_word("a1 b1 a1^-1", gens),))
    with pytest.raises(ValueError):
        Presentation(gens, (), label="two\nlines")
    other = free_group(1)
    with pytest.raises(ValueError):
        Presentation(gens, (parse_word("g1", other.generators),))


def test_hom_images_must_be_over_target_alphabet():
    f1, f2 = free_group(1), free_group(2)
    with pytest.raises(ValueError):
        GroupHom(f1, f2, (parse_word("g1", f1.generators),))
    with pytest.raises(ValueError):
        apply_hom(_identity(f2), parse_word("g1", f1.generators))


def test_free_product_triple_name_clash():
    p = free_product(free_product(free_group(1), free_group(1)), free_group(1))
    assert list(p.generators) == ["g1", "g1_2", "g1_3"]


def test_quotient_rejects_words_over_sub_alphabets():
    # A word over some of p's generators is not rebound by name.
    pi1 = surface_group(1)
    w = parse_word("a1^2", ("a1",))
    with pytest.raises(ValueError, match="relator over a different alphabet"):
        quotient_by_normal_closure(pi1, [w])
    equal = tuple(list(pi1.generators))
    assert equal is not pi1.generators
    q = quotient_by_normal_closure(pi1, [parse_word("a1^2", equal)])
    assert q.relators[-1] == parse_word("a1^2", pi1.generators)
    assert abelianization(q) == FgAbelian.from_cyclic_orders([0, 2])


def test_relator_free_presentation_is_free():
    for r in range(5):
        names = " ".join(f"g{i + 1}" for i in range(r))
        p = parse_presentation(f"group F_{r}\ngens {names}\n")
        assert list(p.generators) == [f"g{i + 1}" for i in range(r)]
        assert p.relators == ()
        assert abelianization(p) == FgAbelian(r)
        assert parse_presentation(render_presentation(p)) == p


def test_pinch_images_are_the_target_generators():
    for g1 in range(3):
        for g2 in range(1, 3):
            u = pinch_presentation_map(g1, g2)
            assert [render_word(w) for w in u.images] == list(u.target.generators)


def test_pinch_map_abelianization_is_identity_for_all_small_genera():
    for g1 in range(3):
        for g2 in range(1, 3):
            u = pinch_presentation_map(g1, g2)
            n = 2 * (g1 + g2)
            assert induced_matrix(u) == IntMatrix.identity(n)


def test_presentation_file_round_trip():
    p = surface_group(2)
    text = render_presentation(p)
    assert text == "group pi_2\ngens a1 b1 a2 b2\nrel a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1\n"
    assert parse_presentation(text) == p
    assert render_presentation(parse_presentation(text)) == text


def test_presentation_file_no_label_and_trivial():
    p = Presentation((), (), label=None)
    text = render_presentation(p)
    assert text == "group\ngens\n"
    assert parse_presentation(text) == p


# Every FormatError of a presentation file, with its exact message.
_PRESENTATION_ERRORS = {
    "gens a b\n": "line 1: gens before group",
    "group x\nrel a\n": "line 2: rel before gens",
    "group x\ngens a1\nrel zz\n": "line 3: unknown generator 'zz'",
    "group x\ngens a1\nrel a1 (\n": (
        "line 3: at position 4: expected a factor, found 'end of input'"
    ),
    "group x\ngens a1\nnonsense\n": "line 3: unknown directive 'nonsense'",
    "group x\ngens a1 a1\n": "duplicate generator names in ['a1', 'a1']",
    "group x\ngroup y\ngens a1\n": "line 2: repeated group line",
    "group x\ngens a1\ngens b1\n": "line 3: repeated gens line",
    "group x\ngens a1 1bad\n": "line 2: invalid generator name '1bad'",
    "group x\ngens 1\n": "line 2: invalid generator name '1'",
    "group x\ngens a1 A\n": "line 2: invalid generator name 'A'",
    "group x\ngens 9x a1\n": "line 2: invalid generator name '9x'",
    "group x\n\ngens a-b\nrel a\n": "line 3: invalid generator name 'a-b'",
    "group x\n\n  \n": "missing group/gens lines",
    "": "missing group/gens lines",
}


def test_presentation_file_errors():
    for text, message in _PRESENTATION_ERRORS.items():
        with pytest.raises(FormatError) as exc:
            parse_presentation(text)
        assert str(exc.value) == message, text
    assert parse_presentation("group x\ngens a1_x\n").generators == ("a1_x",)


def test_presentation_file_tolerates_blank_lines():
    p = parse_presentation("\ngroup x\n\ngens a1\n\nrel a1^2\n\n")
    assert abelianization(p) == FgAbelian.from_cyclic_orders([2])


def test_parse_normalizes_relators():
    text = "group q\ngens a1 b1\nrel b1^-1 a1 b1\n"
    p = parse_presentation(text)
    assert p.relators[0] == parse_word("a1", p.generators)


def test_exponent_sum_on_presentation_words():
    p = surface_group(2)
    w = parse_word("a1^3 [a2,b2]", p.generators)
    assert exponent_vector(w) == (3, 0, 0, 0)
