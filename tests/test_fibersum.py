import random

import pytest

from oracles import (
    determinant,
    is_surjective_onto,
    letters_of,
    reference_direct_sum,
    word_from_letters,
)
from aspherical.asphericity import Reason
from aspherical.fibersum import (
    NotAspherical,
    NotSurfaceFibered,
    RankTooSmall,
    fiber_sum_with_trivial_bundle,
    presentation_chain_for,
    witness_presentation,
)
from aspherical.fpgroup import (
    InvalidGenus,
    Presentation,
    surface_group,
    surface_relator,
)
from aspherical.limits import _MAX_PARSED_LETTERS
from aspherical.word import cyclic_reduce, parse_word, render_word
from aspherical.zlinalg import (
    FgAbelian,
    IntMatrix,
    abelianization,
    induced_matrix,
    relator_matrix,
)


def fibered(genus, *relator_texts):
    p = surface_group(genus)
    extras = tuple(cyclic_reduce(parse_word(t, p.generators)) for t in relator_texts)
    return Presentation(p.generators, p.relators + extras)


def test_surface_fibered_validation():
    # The fiber genus is half the generator count; both surface checks
    # come before the base genus is checked.
    p = surface_group(1)
    not_fibered = {
        Presentation(p.generators + ("c1",), ()): (
            "generators must be exactly those of the genus-1 surface group, in order"
        ),
        Presentation(p.generators[::-1], ()): (
            "generators must be exactly those of the genus-1 surface group, in order"
        ),
        Presentation(p.generators, (parse_word("a1", p.generators),)): (
            "first relator must be the surface relator"
        ),
        Presentation(p.generators, ()): "first relator must be the surface relator",
    }
    for x, message in not_fibered.items():
        for e in (1, 0):
            with pytest.raises(NotSurfaceFibered) as exc:
                fiber_sum_with_trivial_bundle(x, e)
            assert str(exc.value) == message
    x = fibered(2, "a1")
    assert fiber_sum_with_trivial_bundle(x, 1).relators[-1].syllables == ((0, 1),)


def test_fiber_sum_layout():
    x = fibered(1, "a1")
    p = fiber_sum_with_trivial_bundle(x, 1)
    assert list(p.generators) == ["a1", "b1", "x1", "y1"]
    assert [render_word(r) for r in p.relators] == [
        "a1 b1 a1^-1 b1^-1",
        "x1 y1 x1^-1 y1^-1",
        "x1 a1 x1^-1 a1^-1",
        "x1 b1 x1^-1 b1^-1",
        "y1 a1 y1^-1 a1^-1",
        "y1 b1 y1^-1 b1^-1",
        "a1",
    ]


def test_fiber_sum_killed_fiber():
    x = fibered(1, "a1", "b1")  # pi_1(X) trivial
    assert abelianization(fiber_sum_with_trivial_bundle(x, 1)) == FgAbelian(2)


def test_fiber_sum_worked_example():
    # ab(x) = Z^2 + Z/2, so the e = 1 sum abelianizes to Z^4 + Z/2
    x = fibered(2, "a2^2", "b2", "[a1,b1]", "[a1,a2]", "[b1,a2]")
    assert abelianization(x) == FgAbelian(2, (2,))
    total = fiber_sum_with_trivial_bundle(x, 1)
    assert abelianization(total) == FgAbelian(4, (2,))


def test_fiber_sum_rejects_sphere_base():
    with pytest.raises(InvalidGenus):
        fiber_sum_with_trivial_bundle(fibered(1), 0)


def _random_fibered(rng, max_genus=3):
    genus = rng.randrange(1, max_genus + 1)
    p = surface_group(genus)
    extras = []
    for _ in range(rng.randrange(5)):
        letters = [
            (rng.randrange(2 * genus), rng.choice((1, -1))) for _ in range(rng.randrange(1, 9))
        ]
        extras.append(cyclic_reduce(word_from_letters(p.generators, letters)))
    return Presentation(p.generators, p.relators + tuple(extras))


def test_fiber_sum_abelianization_random():
    rng = random.Random(601)
    for _ in range(20):
        x = _random_fibered(rng)
        base = abelianization(x)
        for e in (1, 2, 3):
            total = fiber_sum_with_trivial_bundle(x, e)
            assert abelianization(total) == reference_direct_sum(base, FgAbelian(2 * e))


def M(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


def test_presentation_chain_surjective_for_z2():
    hom, g = presentation_chain_for(FgAbelian(2))
    assert g == 2 * 2 + 1
    assert len(hom.source.generators) == 2 * g
    assert is_surjective_onto(
        induced_matrix(hom), FgAbelian(2), relator_matrix(hom.target)
    )


def test_presentation_chain_for_z4_z2():
    gamma = FgAbelian(4, (2,))
    hom, g = presentation_chain_for(gamma)
    assert g == 11  # five generators, h = 10
    m = induced_matrix(hom)
    assert is_surjective_onto(m, gamma, relator_matrix(hom.target))
    # the torus pair lands unimodularly on the last two free generators
    h = g - 1
    minor = M(
        [
            [m.at(2, 2 * h), m.at(2, 2 * h + 1)],
            [m.at(3, 2 * h), m.at(3, 2 * h + 1)],
        ]
    )
    assert abs(determinant(minor)) == 1
    free_gen_names = set(hom.target.generators[2:4])
    assert free_gen_names == {"g3", "g4"}


def test_presentation_chain_rejects_small_rank():
    with pytest.raises(RankTooSmall):
        presentation_chain_for(FgAbelian(0, (2,)))
    with pytest.raises(RankTooSmall):
        presentation_chain_for(FgAbelian(1))


def test_witness_z2_is_the_torus_group():
    p = witness_presentation(FgAbelian(2))
    torus = surface_group(1)
    assert p.generators == torus.generators
    assert p.relators == torus.relators
    assert abelianization(p) == FgAbelian(2)


def test_witness_round_trips():
    for gamma in (
        FgAbelian(4),
        FgAbelian(4, (2,)),
        FgAbelian(5),
        FgAbelian(6, (3, 6)),
        FgAbelian(4, (2, 4)),
    ):
        p = witness_presentation(gamma)
        assert abelianization(p) == gamma


def test_witness_is_a_fiber_sum_shape():
    p = witness_presentation(FgAbelian(4))
    names = list(p.generators)
    assert names[-2:] == ["x1", "y1"]
    assert len(names) % 2 == 0
    fiber_relator = surface_relator(p.generators[:-2])
    assert p.relators[0].syllables == fiber_relator.syllables


def test_witness_torsion_relator_is_one_syllable():
    # Z^4 + Z/d puts t = a3 to the power d last; spelled letter by letter,
    # Z/262144 made 262,144 of them.
    for d in (2, 7, _MAX_PARSED_LETTERS):
        p = witness_presentation(FgAbelian(4, (d,)))
        assert p.relators[-1].syllables == ((4, d),)
        assert (p.generators[4], len(p.relators[-1])) == ("a3", d)


def test_witness_relators_lie_in_the_chain_kernel():
    # the witness is built without the chain, so check it against the
    # chain: its fiber generators are the chain's source generators, and
    # every extra relator of the fibered presentation dies under the chain
    # homomorphism (its image is the empty word or literally one of the
    # target's relators)
    from aspherical.fpgroup import apply_hom

    for m, torsion in (
        (4, ()),
        (4, (2,)),
        (5, (2, 4)),
        (6, (3, 6)),
        (7, (2,)),
        (8, (2, 4)),
    ):
        gamma = FgAbelian(m, torsion)
        a = FgAbelian(m - 2, torsion)
        hom, g = presentation_chain_for(a)
        witness = witness_presentation(gamma)
        assert witness.generators[:-2] == hom.source.generators, gamma.render()
        fiber_genus = (len(witness.generators) - 2) // 2
        assert fiber_genus == g
        p = surface_group(g)
        target_relators = set(hom.target.relators)
        names = set(witness.generators[: 2 * g])
        for relator in witness.relators:
            if any(witness.generators[i] not in names for i, _ in letters_of(relator)):
                continue  # mixed or base relator from the fiber sum step
            fiber_word = parse_word(render_word(relator), p.generators)
            image = apply_hom(hom, fiber_word)
            assert not image.syllables or image in target_relators, render_word(relator)


def test_witness_rejections():
    low, torsion, three = Reason.RANK_ZERO_OR_ONE, Reason.RANK_TWO_WITH_TORSION, Reason.RANK_THREE
    cases = {
        FgAbelian(0): (low, "free rank 0 or 1"),
        FgAbelian(1): (low, "free rank 0 or 1"),
        FgAbelian(0, (5,)): (low, "free rank 0 or 1"),
        FgAbelian(2, (2,)): (torsion, "free rank 2 with torsion"),
        FgAbelian(3): (three, "free rank 3"),
        FgAbelian(3, (7,)): (three, "free rank 3"),
    }
    for gamma, (reason, phrase) in cases.items():
        with pytest.raises(NotAspherical) as exc:
            witness_presentation(gamma)
        assert exc.value.reason is reason
        assert str(exc.value) == f"not symplectically aspherical: {phrase}"


def test_witness_matches_classification_on_rank_sweep():
    for m in range(7):
        for torsion in ((), (2,), (2, 4), (6,)):
            gamma = FgAbelian(m, torsion)
            should_work = gamma == FgAbelian(2) or m >= 4
            if should_work:
                assert abelianization(witness_presentation(gamma)) == gamma
            else:
                with pytest.raises(NotAspherical):
                    witness_presentation(gamma)
