import pytest

from oracles import epi_exists_oracle
from aspherical.abhomology import group_homology
from aspherical.asphericity import (
    VERDICTS,
    AsphericityVerdict,
    Reason,
    classify,
    classify_reason,
    covering_note,
    hopf_obstruction_dim4,
    realizable_dimensions,
)
from aspherical.fibersum import NotAspherical, witness_presentation
from aspherical.zlinalg import FgAbelian, abelianization, exists_epimorphism


def C(*orders):
    return FgAbelian.from_cyclic_orders(orders)


def test_classify_z2():
    v = classify(FgAbelian(2))
    assert v.aspherical
    assert v.reason is Reason.IS_Z2
    assert v.realizable_dims == frozenset({2})
    assert v.class_note == "A\\B"


def test_classify_rank_three():
    v = classify(FgAbelian(3, (7,)))
    assert not v.aspherical
    assert v.reason is Reason.RANK_THREE
    assert v.realizable_dims == frozenset()
    assert classify(FgAbelian(3)).reason is Reason.RANK_THREE


def test_classify_z4_z2():
    v = classify(FgAbelian(4, (2,)))
    assert v.aspherical
    assert v.reason is Reason.RANK_AT_LEAST_4
    assert v.pi2_forced_nonzero_in_dim4
    assert v.class_note == "B\\A"


def test_classify_low_ranks():
    assert classify(FgAbelian(0)).reason is Reason.RANK_ZERO_OR_ONE
    assert classify(FgAbelian(1)).reason is Reason.RANK_ZERO_OR_ONE
    assert classify(C(5)).reason is Reason.RANK_ZERO_OR_ONE
    assert classify(FgAbelian(2, (2,))).reason is Reason.RANK_TWO_WITH_TORSION


def test_classify_no_class_note_elsewhere():
    assert classify(FgAbelian(4)).class_note is None
    assert classify(FgAbelian(5, (2,))).class_note is None
    assert classify(FgAbelian(2, (2,))).class_note is None


def _chains():
    singles = [(), (2,), (3,), (4,), (6,)]
    pairs = [(d1, d2) for d1 in (2, 3, 4, 6) for d2 in (2, 3, 4, 6) if d2 % d1 == 0]
    return singles + pairs


def test_classification_exhaustive_small_range():
    for m in range(7):
        for torsion in _chains():
            gamma = FgAbelian(m, torsion)
            expected = (m == 2 and not torsion) or m >= 4
            assert classify(gamma).aspherical == expected, gamma


def test_verdict_invariants_enforced():
    assert AsphericityVerdict(Reason.IS_Z2, frozenset({2}), False, None).aspherical
    with pytest.raises(ValueError):
        AsphericityVerdict(Reason.RANK_THREE, frozenset({4}), False, None)
    with pytest.raises(ValueError):
        AsphericityVerdict(Reason.IS_Z2, frozenset(), False, None)


def test_verdict_table_has_one_entry_per_reason():
    assert set(VERDICTS) == set(Reason)
    for reason, (citations, phrase) in VERDICTS.items():
        assert citations and all(isinstance(c, str) for c in citations), reason
        dims = frozenset() if phrase else frozenset({4})
        assert AsphericityVerdict(reason, dims, False, None).aspherical == (phrase is None), reason
    accepted = {reason for reason, (_, phrase) in VERDICTS.items() if phrase is None}
    assert accepted == {Reason.IS_Z2, Reason.RANK_AT_LEAST_4}


def test_realizable_dimensions_nonempty_exactly_when_accepted():
    for m in range(10):
        for torsion in ((), (2,), (3, 6)):
            gamma = FgAbelian(m, torsion)
            accepted = VERDICTS[classify_reason(gamma)][1] is None
            assert accepted == ((m == 2 and not torsion) or m >= 4), gamma
            assert bool(realizable_dimensions(gamma)) == accepted, gamma


def test_realizable_dimensions_examples():
    assert realizable_dimensions(FgAbelian(5, (3,))) == frozenset({4})
    assert realizable_dimensions(FgAbelian(8)) == frozenset({4, 6, 8})
    assert realizable_dimensions(FgAbelian(1)) == frozenset()
    assert realizable_dimensions(FgAbelian(2)) == frozenset({2})
    assert realizable_dimensions(FgAbelian(2, (3,))) == frozenset()
    assert realizable_dimensions(FgAbelian(4)) == frozenset({4})
    assert realizable_dimensions(FgAbelian(6)) == frozenset({4, 6})


def test_realizable_dimensions_bounded_by_rank():
    for m in range(9):
        for torsion in ((), (2,)):
            gamma = FgAbelian(m, torsion)
            dims = realizable_dimensions(gamma)
            allowed = {2 * n for n in range(1, m + 1) if 2 * n <= m}
            if gamma == FgAbelian(2):
                allowed |= {2}
            assert dims <= allowed


def test_hopf_obstruction_examples():
    assert hopf_obstruction_dim4(FgAbelian(4, (2,))) is True
    assert hopf_obstruction_dim4(FgAbelian(4)) is False
    assert hopf_obstruction_dim4(FgAbelian(5)) is True


def test_hopf_obstruction_is_the_stated_comparison():
    for gamma in (FgAbelian(4), FgAbelian(4, (2,)), FgAbelian(5, (6,)), FgAbelian(2)):
        expected = not exists_epimorphism(
            FgAbelian(gamma.free_rank), group_homology(gamma, 3)
        )
        assert hopf_obstruction_dim4(gamma) == expected


def test_hopf_obstruction_against_enumeration_oracle():
    torsions = [(), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 4), (2, 2, 2)]
    for m in range(5):
        for torsion in torsions:
            gamma = FgAbelian.from_cyclic_orders([0] * m + list(torsion))
            h3 = group_homology(gamma, 3)
            assert hopf_obstruction_dim4(gamma) == (
                not epi_exists_oracle(FgAbelian(m), h3)
            ), gamma


def test_covering_note():
    assert covering_note(FgAbelian(4)) is not None
    assert "Z^4" in covering_note(FgAbelian(4))
    assert covering_note(FgAbelian(2)) is None
    assert covering_note(FgAbelian(6)) is None
    assert covering_note(FgAbelian(4, (2,))) is None


def test_classify_agrees_with_witness_availability():
    for m in range(7):
        for torsion in ((), (2,), (3, 6)):
            gamma = FgAbelian(m, torsion)
            verdict = classify(gamma)
            if verdict.aspherical:
                assert abelianization(witness_presentation(gamma)) == gamma
            else:
                with pytest.raises(NotAspherical):
                    witness_presentation(gamma)
