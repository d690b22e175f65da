"""The package's records are immutable values, as frozen dataclasses were:
fields cannot be assigned or deleted, equal fields make equal values with
equal hashes, values of different classes are unequal, and the repr is
the dataclass one (recorded from the dataclass implementation)."""

import pytest

from aspherical.asphericity import AsphericityVerdict, Reason
from aspherical.fibersum import SurfaceFiberedPresentation
from aspherical.fpgroup import GroupHom, Presentation, surface_group
from aspherical.lefschetz import MonodromyFactorization
from aspherical.word import Generator, Word, generator_word, parse_word
from aspherical.zlinalg import FgAbelian, IntMatrix, smith_normal_form


def _samples():
    """One value of each record class, built afresh on every call."""
    torus = surface_group(1)
    a1 = parse_word("a1", torus.generators)
    return [
        Generator("a1"),
        Word(torus.generators, ((0, 1), (1, -1))),
        IntMatrix(1, 2, (2, 4)),
        smith_normal_form(IntMatrix(1, 2, (2, 4))),
        FgAbelian(0, (6,)),
        AsphericityVerdict(Reason.IS_Z2, frozenset({2}), False, "A\\B"),
        Presentation(torus.generators, torus.relators, label="pi_1"),
        GroupHom(torus, torus, (a1, generator_word(torus.generators, 1))),
        MonodromyFactorization(1, (a1,), (1,)),
        SurfaceFiberedPresentation(1, torus),
    ]


# Each sample with a different value of the same class.
def _others():
    torus = surface_group(1)
    b1 = parse_word("b1", torus.generators)
    return [
        Generator("b1"),
        Word(torus.generators, ((0, 1),)),
        IntMatrix(1, 2, (2, 5)),
        smith_normal_form(IntMatrix(1, 2, (3, 4))),
        FgAbelian(0, (2, 6)),
        AsphericityVerdict(Reason.IS_Z2, frozenset({2}), False, None),
        Presentation(torus.generators, torus.relators, label="torus"),
        GroupHom(torus, torus, (b1, generator_word(torus.generators, 0))),
        MonodromyFactorization(1, (b1,), (1,)),
        SurfaceFiberedPresentation(1, Presentation(torus.generators, torus.relators + (b1,))),
    ]


_TORUS_GENS = "(Generator(name='a1'), Generator(name='b1'))"
_TORUS_RELATOR = f"Word(alphabet={_TORUS_GENS}, letters=((0, 1), (1, 1), (0, -1), (1, -1)))"
_TORUS = f"Presentation(generators={_TORUS_GENS}, relators=({_TORUS_RELATOR},), label='pi_1')"
_A1 = f"Word(alphabet={_TORUS_GENS}, letters=((0, 1),))"
_B1 = f"Word(alphabet={_TORUS_GENS}, letters=((1, 1),))"
_REPRS = [
    "Generator(name='a1')",
    f"Word(alphabet={_TORUS_GENS}, letters=((0, 1), (1, -1)))",
    "IntMatrix(rows=1, cols=2, entries=(2, 4))",
    "SmithDecomposition(d=IntMatrix(rows=1, cols=2, entries=(2, 0)), "
    "u=IntMatrix(rows=1, cols=1, entries=(1,)), v=IntMatrix(rows=2, cols=2, entries=(1, -2, 0, 1)))",
    "FgAbelian(free_rank=0, torsion=(6,))",
    "AsphericityVerdict(reason=<Reason.IS_Z2: 'IsZ2'>, realizable_dims=frozenset({2}), "
    "pi2_forced_nonzero_in_dim4=False, class_note='A\\\\B')",
    _TORUS,
    f"GroupHom(source={_TORUS}, target={_TORUS}, images=({_A1}, {_B1}))",
    f"MonodromyFactorization(fiber_genus=1, cycles=({_A1},), signs=(1,))",
    f"SurfaceFiberedPresentation(fiber_genus=1, presentation={_TORUS})",
]


def _name(value):
    return type(value).__name__


@pytest.mark.parametrize("index", range(10), ids=[_name(v) for v in _samples()])
def test_record_is_an_immutable_value(index):
    value, twin, other = _samples()[index], _samples()[index], _others()[index]
    assert value is not twin
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert value != other and type(other) is type(value)
    assert repr(value) == _REPRS[index]

    for field in value.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == twin


def test_records_of_different_classes_are_unequal():
    samples = _samples()
    for i, a in enumerate(samples):
        for j, b in enumerate(samples):
            assert (a == b) is (i == j), (_name(a), _name(b))
    # Nor does a record equal the tuple of its fields.
    assert Generator("a1") != ("a1",)
    assert FgAbelian(0, (6,)) != (0, (6,))


def test_keyword_construction_keeps_the_field_names_and_defaults():
    assert FgAbelian(free_rank=2) == FgAbelian(2, ())
    gens = surface_group(1).generators
    assert Presentation(generators=gens, relators=()).label is None
    assert IntMatrix(rows=0, cols=3, entries=()) == IntMatrix.zeros(0, 3)
    verdict = AsphericityVerdict(
        reason=Reason.RANK_THREE, realizable_dims=frozenset(), pi2_forced_nonzero_in_dim4=False,
        class_note=None,
    )
    assert not verdict.aspherical
