import random

import pytest

from oracles import determinant, epi_exists_oracle, is_surjective_onto
from aspherical.fpgroup import GroupHom, free_group, pinch_presentation_map, surface_group
from aspherical.word import parse_word
from aspherical.zlinalg import (
    DimensionMismatch,
    FgAbelian,
    IntMatrix,
    cokernel,
    exists_epimorphism,
    in_row_lattice,
    induced_matrix,
    parse_matrix,
    primary_decomposition,
    relator_matrix,
    smith_normal_form,
)


def M(rows):
    return IntMatrix.from_rows(rows)


def _random_matrix(rng, max_dim=6, bound=9):
    r = rng.randrange(max_dim + 1)
    c = rng.randrange(max_dim + 1)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)], cols=c
    )


def _check_decomposition(a):
    snf = smith_normal_form(a)
    assert snf.u.mul(a).mul(snf.v) == snf.d
    assert abs(determinant(snf.u)) == 1
    assert abs(determinant(snf.v)) == 1
    diag = snf.diagonal
    for i, d in enumerate(diag):
        assert d >= 0
        if i and diag[i - 1]:
            assert d % diag[i - 1] == 0
        if i and diag[i - 1] == 0:
            assert d == 0
    for i in range(snf.d.rows):
        for j in range(snf.d.cols):
            if i != j:
                assert snf.d.at(i, j) == 0
    return snf


def test_snf_identity():
    snf = _check_decomposition(IntMatrix.identity(2))
    assert snf.d == IntMatrix.identity(2)


def test_snf_worked_example():
    # d1 = gcd of the entries = 2 and d1*d2 = |det| = |2*8 - 4*6| = 8
    snf = _check_decomposition(M([[2, 4], [6, 8]]))
    assert snf.diagonal == (2, 4)


def test_snf_zero_and_degenerate():
    assert _check_decomposition(M([[0]])).diagonal == (0,)
    _check_decomposition(IntMatrix.zeros(0, 3))
    _check_decomposition(IntMatrix.zeros(3, 0))
    _check_decomposition(IntMatrix.zeros(0, 0))


def test_snf_deterministic():
    a = M([[6, 4, 2], [4, 2, 8], [2, 8, 4]])
    assert smith_normal_form(a) == smith_normal_form(a)


def test_snf_property_sweep():
    rng = random.Random(201)
    for _ in range(300):
        _check_decomposition(_random_matrix(rng))


def test_determinant():
    assert determinant(M([[2, 4], [6, 8]])) == -8
    assert determinant(IntMatrix.identity(3)) == 1
    assert determinant(IntMatrix.zeros(0, 0)) == 1
    assert determinant(M([[1, 2], [2, 4]])) == 0
    with pytest.raises(DimensionMismatch):
        determinant(IntMatrix.zeros(2, 3))


def test_determinant_multiplicative_random():
    rng = random.Random(202)
    for _ in range(100):
        n = rng.randrange(5)
        a = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)], cols=n)
        b = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)], cols=n)
        assert determinant(a.mul(b)) == determinant(a) * determinant(b)


def test_cokernel_examples():
    assert cokernel(IntMatrix.zeros(1, 2)) == FgAbelian(2)
    assert cokernel(M([[2, 0], [0, 3]])) == FgAbelian(0, (6,))
    assert cokernel(relator_matrix(surface_group(3))) == FgAbelian(6)
    assert cokernel(IntMatrix.zeros(0, 0)) == FgAbelian(0)


def test_cokernel_invariance():
    rng = random.Random(203)
    for _ in range(60):
        a = _random_matrix(rng, max_dim=5, bound=6)
        base = cokernel(a)
        rows = a.to_rows()
        rng.shuffle(rows)
        shuffled = IntMatrix.from_rows(rows, cols=a.cols)
        assert cokernel(shuffled) == base
        perm = list(range(a.cols))
        rng.shuffle(perm)
        permuted = IntMatrix.from_rows([[row[j] for j in perm] for row in rows], cols=a.cols)
        assert cokernel(permuted) == base
        padded = IntMatrix.from_rows(rows + [[0] * a.cols], cols=a.cols)
        assert cokernel(padded) == base


def test_fgabelian_validation():
    with pytest.raises(ValueError):
        FgAbelian(0, (3, 4))  # 3 does not divide 4
    with pytest.raises(ValueError):
        FgAbelian(0, (1,))
    with pytest.raises(ValueError):
        FgAbelian(-1)
    with pytest.raises(ValueError):
        FgAbelian.from_counts(0, {0: 1})
    with pytest.raises(ValueError):
        FgAbelian.from_counts(0, {2: -1})


def _chain_error(torsion):
    """The message of the check that takes one modulo per entry."""
    for i, d in enumerate(torsion):
        if d < 2:
            return f"invariant factor {d} < 2"
        if i and torsion[i] % torsion[i - 1]:
            return f"broken divisor chain {torsion}"
    return None


def test_fgabelian_chain_check_skips_equal_neighbours_only():
    broken = [(2, 2, 4, 4, 6), (3, 3, 2), (3, 4), (2, 2, 2, 3), (4, 4, 2, 1), (6, 6, 12, 18, 36)]
    small = [(1,), (2, 2, 1), (2, 1, 1), (4, 4, 0), (-2,), (2, 2, 4, -4)]
    for torsion in broken + small:
        message = _chain_error(torsion)
        assert message is not None
        with pytest.raises(ValueError) as exc:
            FgAbelian(0, torsion)
        assert str(exc.value) == message
    rng = random.Random(9301)
    for _ in range(2000):
        orders = (-1, 0, 1, 2, 2, 3, 4, 4, 6, 8, 12)
        torsion = tuple(rng.choice(orders) for _ in range(rng.randrange(6)))
        message = _chain_error(torsion)
        if message is None:
            assert FgAbelian(1, torsion).torsion == torsion
        else:
            with pytest.raises(ValueError) as exc:
                FgAbelian(1, torsion)
            assert str(exc.value) == message
    assert FgAbelian(0, (2, 2, 4, 4, 8, 8)).torsion == (2, 2, 4, 4, 8, 8)


def test_fgabelian_normalization():
    assert FgAbelian.from_cyclic_orders([2, 3]) == FgAbelian(0, (6,))
    assert FgAbelian.from_cyclic_orders([2, 4]) == FgAbelian(0, (2, 4))
    assert FgAbelian.from_cyclic_orders([0, 1, 0]) == FgAbelian(2)
    assert FgAbelian.from_cyclic_orders([12, 60]) == FgAbelian(0, (12, 60))
    assert FgAbelian.from_cyclic_orders([6, 4]) == FgAbelian(0, (2, 12))


def test_fgabelian_render():
    assert FgAbelian(2).render() == "Z^2"
    assert FgAbelian(1).render() == "Z"
    assert FgAbelian(0).render() == "0"
    assert FgAbelian(4, (2,)).render() == "Z^4 + Z/2"
    assert FgAbelian(0, (2, 4)).render() == "Z/2 + Z/4"


def test_primary_decomposition():
    assert primary_decomposition(FgAbelian(0, (6,))) == {2: (1,), 3: (1,)}
    assert primary_decomposition(FgAbelian(0, (2, 4))) == {2: (2, 1)}
    assert primary_decomposition(FgAbelian(3)) == {}


def test_primary_recombination_round_trip():
    rng = random.Random(204)
    for _ in range(100):
        orders = [rng.choice([0, 2, 3, 4, 5, 6, 8, 9, 12]) for _ in range(rng.randrange(5))]
        g = FgAbelian.from_cyclic_orders(orders)
        primary = primary_decomposition(g)
        rebuilt_orders = [0] * g.free_rank
        for p, exps in primary.items():
            rebuilt_orders.extend(p**e for e in exps)
        assert FgAbelian.from_cyclic_orders(rebuilt_orders) == g


def test_exists_epimorphism_examples():
    assert exists_epimorphism(FgAbelian(4), FgAbelian(4, (2,))) is False
    assert exists_epimorphism(FgAbelian(2), FgAbelian(2)) is True
    assert exists_epimorphism(FgAbelian(0, (2, 2)), FgAbelian(0, (4,))) is False
    assert exists_epimorphism(FgAbelian(1), FgAbelian(0, (4,))) is True
    assert exists_epimorphism(FgAbelian(0, (8,)), FgAbelian(0, (2, 2))) is False
    assert exists_epimorphism(FgAbelian(3), FgAbelian(0)) is True


def test_exists_epimorphism_brute_force_spot_check():
    # The full order <= 64 sweep is acceptance criterion 6; this keeps a
    # small sample in the unit suite.
    groups = [
        FgAbelian(0),
        FgAbelian(1),
        FgAbelian(2),
        FgAbelian(0, (2,)),
        FgAbelian(0, (4,)),
        FgAbelian(0, (2, 2)),
        FgAbelian(0, (6,)),
        FgAbelian(1, (2, 4)),
        FgAbelian(0, (3, 9)),
        FgAbelian(2, (8,)),
    ]
    for a in groups:
        for b in groups:
            assert exists_epimorphism(a, b) == epi_exists_oracle(a, b), (a, b)


def test_exists_epimorphism_reflexive_and_transitive():
    rng = random.Random(205)
    pool = [
        FgAbelian.from_cyclic_orders(
            [rng.choice([0, 2, 3, 4, 6]) for _ in range(rng.randrange(4))]
        )
        for _ in range(24)
    ]
    for g in pool:
        assert exists_epimorphism(g, g)
    for a in pool:
        for b in pool:
            if not exists_epimorphism(a, b):
                continue
            for c in pool:
                if exists_epimorphism(b, c):
                    assert exists_epimorphism(a, c), (a, b, c)


def test_direct_sum_and_contains_summand():
    g = FgAbelian(1, (2,)).direct_sum(FgAbelian(1, (3,)))
    assert g == FgAbelian(2, (6,))
    assert FgAbelian(4, (2, 2)).contains_summand(FgAbelian(4, (2,)))
    assert not FgAbelian(0, (4,)).contains_summand(FgAbelian(0, (2,)))
    assert FgAbelian(2).contains_summand(FgAbelian(0))


def test_induced_matrix_identity_and_pinch():
    f3 = free_group(3)
    identity = GroupHom(f3, f3, tuple(parse_word(g.name, f3.generators) for g in f3.generators))
    assert induced_matrix(identity) == IntMatrix.identity(3)
    assert induced_matrix(pinch_presentation_map(1, 1)) == IntMatrix.identity(4)


def test_is_surjective_onto():
    assert is_surjective_onto(IntMatrix.identity(2), FgAbelian(2), IntMatrix.zeros(0, 2))
    assert not is_surjective_onto(M([[2]]), FgAbelian(1), IntMatrix.zeros(0, 1))
    # Z^2 onto Z/2 sending both generators to the nonzero class
    assert is_surjective_onto(M([[1, 1]]), FgAbelian(0, (2,)), M([[2]]))
    with pytest.raises(DimensionMismatch):
        is_surjective_onto(M([[1, 1]]), FgAbelian(2), IntMatrix.zeros(0, 2))
    with pytest.raises(ValueError):
        is_surjective_onto(M([[1, 1]]), FgAbelian(5), M([[2]]))


def test_in_row_lattice():
    lattice = M([[2, 0], [0, 3]])
    assert in_row_lattice([4, 3], lattice)
    assert not in_row_lattice([1, 0], lattice)
    assert in_row_lattice([0, 0], IntMatrix.zeros(0, 2))
    assert not in_row_lattice([1, 0], IntMatrix.zeros(0, 2))


def test_matrix_text_round_trip():
    a = M([[2, 4], [6, 8]])
    assert parse_matrix(a.render()) == a
    with pytest.raises(ValueError):
        parse_matrix("1 x\n2 3")
    with pytest.raises(DimensionMismatch):
        parse_matrix("1 2\n3")


def test_matrix_mul_and_apply():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert a.mul(b) == M([[2, 1], [4, 3]])
    assert a.apply([1, 1]) == (3, 7)
    with pytest.raises(DimensionMismatch):
        a.apply([1])


def test_matrix_construction_validation():
    with pytest.raises(ValueError):
        IntMatrix(-1, 2, ())
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2]], cols=3)
    with pytest.raises(DimensionMismatch):
        M([[1, 2]]).mul(M([[1, 2]]))


def test_determinant_zero_column():
    assert determinant(M([[0, 1], [0, 2]])) == 0


def test_exists_epimorphism_rank_deficit():
    assert exists_epimorphism(FgAbelian(1), FgAbelian(2)) is False


def test_in_row_lattice_dimension_check():
    with pytest.raises(DimensionMismatch):
        in_row_lattice([1, 2, 3], M([[1, 1]]))
