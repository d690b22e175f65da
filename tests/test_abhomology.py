import math
import random

import pytest

from oracles import (
    InvalidModulus,
    _reference_tensor,
    _reference_tor,
    graded_cyclic,
    homology_cyclic,
    oracle_group_homology,
    reference_group_homology_graded,
    reference_kunneth,
    torsion_chains,
)
from aspherical.abhomology import (
    InsufficientDegrees,
    factor_homology_sum,
    group_homology,
    group_homology_graded,
    kunneth,
    real_cohomology_rank,
    tensor,
    tor,
)
from aspherical.zlinalg import FgAbelian

Z = FgAbelian(1)
TRIVIAL = FgAbelian(0)


def C(*orders):
    return FgAbelian.from_cyclic_orders(orders)


def test_homology_cyclic_examples():
    assert homology_cyclic(2, 3) == C(2)
    assert homology_cyclic(0, 1) == Z
    assert homology_cyclic(2, 2) == TRIVIAL
    assert homology_cyclic(5, 0) == Z
    assert homology_cyclic(0, 4) == TRIVIAL
    assert homology_cyclic(1, 0) == Z
    assert homology_cyclic(1, 3) == TRIVIAL
    with pytest.raises(InvalidModulus):
        homology_cyclic(-2, 1)


def test_homology_cyclic_against_cell_complexes():
    for n in (0, 2, 3, 4, 6):
        for k in range(6):
            assert homology_cyclic(n, k) == oracle_group_homology([n], k), (n, k)


def test_tensor_examples():
    assert tensor(FgAbelian(2), C(2)) == C(2, 2)
    assert tensor(C(4), C(6)) == C(2)
    assert tensor(Z, Z) == Z
    assert tensor(FgAbelian(2), FgAbelian(3)) == FgAbelian(6)


def test_tensor_unit_law_random():
    rng = random.Random(401)
    for _ in range(50):
        g = C(*(rng.choice([0, 2, 3, 4, 6, 8]) for _ in range(rng.randrange(4))))
        assert tensor(Z, g) == g
        assert tensor(g, Z) == g


def test_tor_examples():
    assert tor(FgAbelian(4), C(2)) == TRIVIAL
    assert tor(C(2), C(2)) == C(2)
    assert tor(C(4), C(6)) == C(2)
    assert tor(Z, C(8)) == TRIVIAL


def test_tor_symmetric_random():
    rng = random.Random(402)
    for _ in range(50):
        a = C(*(rng.choice([0, 2, 3, 4, 6]) for _ in range(rng.randrange(4))))
        b = C(*(rng.choice([0, 2, 3, 4, 6]) for _ in range(rng.randrange(4))))
        assert tor(a, b) == tor(b, a)


def test_tensor_and_tor_against_the_oracles():
    # Both are cases of `kunneth`: degree 0 of the product, and degree 1
    # of a product whose factors have no H_1.
    rng = random.Random(406)
    chains = torsion_chains(32)
    for _ in range(2000):
        a, b = (FgAbelian(rng.randrange(3), rng.choice(chains)) for _ in range(2))
        assert tensor(a, b) == _reference_tensor(a, b), (a, b)
        assert tor(a, b) == _reference_tor(a, b), (a, b)


def test_kunneth_against_the_oracle():
    rng = random.Random(407)
    pool = [graded_cyclic(n, 4) for n in (0, 1, 2, 3, 4, 6, 12)]
    for _ in range(8):
        orders = [rng.choice([0, 2, 3, 4, 6, 8, 9]) for _ in range(rng.randrange(1, 4))]
        pool.append(tuple(reference_group_homology_graded(orders, 4)))
    for ha in pool:
        for hb in pool:
            for n in range(5):
                assert kunneth(ha, hb, n) == reference_kunneth(ha, hb, n), (ha, hb, n)


def test_kunneth_z_times_z2():
    # H_3(Z x Z/2): only H_0 (x) H_3 = Z/2 survives; every Tor term dies
    ha = graded_cyclic(0, 3)
    hb = graded_cyclic(2, 3)
    assert kunneth(ha, hb, 3) == C(2)
    assert kunneth(ha, hb, 3) == oracle_group_homology([0, 2], 3)


def test_kunneth_unit_law():
    trivial = graded_cyclic(1, 4)
    for n in (0, 2, 6):
        g = graded_cyclic(n, 4)
        for k in range(5):
            assert kunneth(g, trivial, k) == g[k]
            assert kunneth(trivial, g, k) == g[k]


def test_kunneth_h1_of_klein_four():
    ha = graded_cyclic(2, 1)
    hb = graded_cyclic(2, 1)
    assert kunneth(ha, hb, 1) == C(2, 2)


def test_kunneth_insufficient_degrees():
    with pytest.raises(InsufficientDegrees):
        kunneth(graded_cyclic(2, 1), graded_cyclic(2, 3), 2)


def test_kunneth_associative_on_mixed_group():
    x = graded_cyclic(2, 4)
    y = graded_cyclic(4, 4)
    z = graded_cyclic(0, 4)
    xy = tuple(kunneth(x, y, k) for k in range(5))
    yz = tuple(kunneth(y, z, k) for k in range(5))
    for k in range(5):
        assert kunneth(xy, z, k) == kunneth(x, yz, k)


def test_group_homology_examples():
    assert group_homology(FgAbelian(4), 3) == FgAbelian(4)
    assert group_homology(FgAbelian(4, (2,)), 3) == FgAbelian(4, (2,) * 7)
    for g in (TRIVIAL, Z, C(6), FgAbelian(3, (2, 4))):
        assert group_homology(g, 0) == Z


def test_group_homology_against_cell_complexes():
    cases = [
        [2, 2],
        [0, 4],
        [4, 6],
        [0, 0],
        [3, 9],
        [0, 0, 2],
    ]
    for orders in cases:
        g = C(*orders)
        for k in range(4):
            assert group_homology(g, k) == oracle_group_homology(orders, k), (orders, k)


def test_group_homology_z4_z2_against_cells():
    # the acceptance-critical value, re-derived from boundary matrices
    assert oracle_group_homology([0, 0, 0, 0, 2], 3) == FgAbelian(4, (2,) * 7)


def test_group_homology_degree_one_is_the_group():
    rng = random.Random(403)
    for _ in range(30):
        g = C(*(rng.choice([0, 2, 3, 4, 6, 9]) for _ in range(rng.randrange(5))))
        assert group_homology(g, 1) == g


def test_group_homology_free_binomials():
    for m in range(7):
        for k in range(7):
            assert group_homology(FgAbelian(m), k) == FgAbelian(math.comb(m, k))


def test_group_homology_factor_order_independent():
    rng = random.Random(404)
    orders = [0, 2, 4, 0, 3]
    reference = None
    for _ in range(5):
        rng.shuffle(orders)
        acc = graded_cyclic(1, 4)
        for n in orders:
            block = graded_cyclic(n, 4)
            acc = tuple(kunneth(acc, block, k) for k in range(5))
        if reference is None:
            reference = acc
        else:
            assert acc == reference


def test_group_homology_graded_shape():
    graded = group_homology_graded(C(2), 5)
    assert len(graded) == 6
    assert graded[0] == Z
    assert graded[4] == TRIVIAL
    assert graded[5] == C(2)


def test_factor_homology_sum():
    assert factor_homology_sum(FgAbelian(4, (2,)), 3) == FgAbelian(4, (2,))
    assert factor_homology_sum(FgAbelian(4), 3) == FgAbelian(4)
    assert group_homology(FgAbelian(4, (2,)), 3).contains_summand(
        factor_homology_sum(FgAbelian(4, (2,)), 3)
    )


def test_real_cohomology_rank():
    assert real_cohomology_rank(FgAbelian(3, (5,)), 3) == 1
    assert real_cohomology_rank(FgAbelian(2), 2) == 1
    for m in range(9):
        assert real_cohomology_rank(FgAbelian(m), 2) == m * (m - 1) // 2
        assert (
            real_cohomology_rank(FgAbelian(m), 2)
            == group_homology(FgAbelian(m), 2).free_rank
        )


def test_real_cohomology_matches_free_rank_of_homology():
    rng = random.Random(405)
    for _ in range(20):
        g = C(*(rng.choice([0, 0, 2, 3, 4]) for _ in range(rng.randrange(5))))
        for k in range(5):
            assert real_cohomology_rank(g, k) == group_homology(g, k).free_rank
