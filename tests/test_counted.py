"""Counted normalisation and homology against the factorising reference.

`oracles.py` keeps the normalisation that factors every order by trial
division and the Kunneth fold that spells out every summand.  The counted
code in `zlinalg` and `abhomology` must agree with it on every group of
torsion order <= 64 and free rank <= 3, and must treat orders built from
large primes exactly as it treats the same exponent pattern over small
primes, without factoring them.
"""

import math
import random
from collections import Counter

from oracles import (
    reference_contains_summand,
    reference_exists_epimorphism,
    reference_from_cyclic_orders,
    reference_group_homology_graded,
    reference_times_cyclic,
    torsion_chains,
)
from aspherical.abhomology import factor_homology_sum, group_homology_graded
from aspherical.zlinalg import FgAbelian, exists_epimorphism

TOP_DEGREE = 6

# Primes far beyond trial division.
P = 1000000000000000000000000000057
Q = 2000000000000000000000000000071
R = 3000000000000000000000000000091


def test_homology_sweep_matches_reference():
    for chain in torsion_chains(64):
        reference = reference_group_homology_graded(chain, TOP_DEGREE)
        for rank in range(4):
            if rank:
                reference = reference_times_cyclic(reference, 0)
            g = FgAbelian(rank, chain)
            graded = group_homology_graded(g, TOP_DEGREE)
            assert list(graded) == reference, g
            for k, h in enumerate(graded):
                summand = factor_homology_sum(g, k)
                assert h.contains_summand(summand) == reference_contains_summand(h, summand)
                assert summand.contains_summand(h) == reference_contains_summand(summand, h)
            free = FgAbelian(rank)
            assert exists_epimorphism(free, graded[3]) == reference_exists_epimorphism(
                free, graded[3]
            ), g


def test_summand_and_epimorphism_pairs_match_reference():
    groups = [FgAbelian(rank, chain) for chain in torsion_chains(32) for rank in range(2)]
    for a in groups:
        for b in groups:
            assert a.contains_summand(b) == reference_contains_summand(a, b), (a, b)
            assert exists_epimorphism(a, b) == reference_exists_epimorphism(a, b), (a, b)
        # Free sources on either side of a's generator count.
        for n in range(max(a.free_rank + len(a.torsion) - 1, 0), a.free_rank + len(a.torsion) + 2):
            free = FgAbelian(n)
            assert exists_epimorphism(free, a) == reference_exists_epimorphism(free, a), (n, a)


def test_from_cyclic_orders_random_sweep():
    rng = random.Random(20261018)
    primes = (2, 3, 5, 7, 11, 13, 101, 997)
    for _ in range(400):
        orders = []
        for _ in range(rng.randrange(9)):
            kind = rng.random()
            if kind < 0.15:
                orders.append(0)
            elif kind < 0.45:
                orders.append(rng.choice((1, -1)) * rng.randrange(1, 100))
            else:
                orders.append(
                    math.prod(rng.choice(primes) ** rng.randrange(1, 4) for _ in range(rng.randrange(1, 4)))
                )
        assert FgAbelian.from_cyclic_orders(orders) == reference_from_cyclic_orders(orders), orders


def test_divisor_chains_in_any_order_match_reference():
    # Orders that already form a divisor chain, listed in any order, repeated,
    # with Z/1 and zero counts mixed in, skip the coprime base.
    rng = random.Random(20261020)
    for _ in range(400):
        orders, d = [], 1
        for _ in range(rng.randrange(1, 6)):
            d *= rng.choice((1, 2, 3, 5, 6, 1009, 10007))
            orders += [d] * rng.randrange(1, 3)
        rng.shuffle(orders)
        counts = Counter(orders)
        counts.setdefault(rng.randrange(2, 50), 0)
        rank = rng.randrange(3)
        expected = reference_from_cyclic_orders([0] * rank + list(counts.elements()))
        assert FgAbelian.from_counts(rank, counts) == expected, counts


def test_large_shared_prime_factors():
    pq, p2q = FgAbelian(0, (P * Q,)), FgAbelian(0, (P * P * Q,))
    assert exists_epimorphism(p2q, pq)
    assert not exists_epimorphism(pq, p2q)
    assert not p2q.contains_summand(pq)
    assert not pq.contains_summand(p2q)
    both = FgAbelian.from_cyclic_orders([P * P * Q, P * Q])
    assert both == FgAbelian(0, (P * Q, P * P * Q))
    assert both.contains_summand(pq) and both.contains_summand(p2q)
    assert FgAbelian.from_cyclic_orders([P * P, Q * P]) == FgAbelian(0, (P, P * P * Q))
    assert FgAbelian.from_cyclic_orders([P * Q, Q * R, R * P]) == FgAbelian(0, (P * Q * R, P * Q * R))


def _lift(d: int) -> int:
    """Replace 2, 3, 5 in d by the large primes P, Q, R."""
    out = 1
    for small, large in ((2, P), (3, Q), (5, R)):
        while d % small == 0:
            d //= small
            out *= large
    assert d == 1
    return out


def _lifted(g: FgAbelian) -> FgAbelian:
    return FgAbelian(g.free_rank, tuple(_lift(d) for d in g.torsion))


def test_large_primes_behave_like_small_ones():
    rng = random.Random(20261019)

    def random_pair():
        rank = rng.randrange(3)
        exponents = [[rng.randrange(4) for _ in range(3)] for _ in range(rng.randrange(4))]
        small = [0] * rank + [2**a * 3**b * 5**c for a, b, c in exponents]
        large = [0] * rank + [P**a * Q**b * R**c for a, b, c in exponents]
        return FgAbelian.from_cyclic_orders(small), FgAbelian.from_cyclic_orders(large)

    for _ in range(150):
        (small_a, large_a), (small_b, large_b) = random_pair(), random_pair()
        assert large_a == _lifted(small_a)
        assert small_a == reference_from_cyclic_orders((0,) * small_a.free_rank + small_a.torsion)
        contains = reference_contains_summand(small_a, small_b)
        assert small_a.contains_summand(small_b) == contains
        assert large_a.contains_summand(large_b) == contains
        epi = reference_exists_epimorphism(small_a, small_b)
        assert exists_epimorphism(small_a, small_b) == epi
        assert exists_epimorphism(large_a, large_b) == epi
        small_h = group_homology_graded(small_a, 3)
        large_h = group_homology_graded(large_a, 3)
        assert list(large_h) == [_lifted(h) for h in small_h]
