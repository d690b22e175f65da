"""The divisor-chain shortcuts in `abhomology` and `asphericity` against
the slow paths they replaced.

`invariant_factor_counts` reads the number of invariant factors of each
H_n off a Poincare series; the fold in `group_homology_graded` lays out
each degree's chain members without normalising; the Hopf flag compares
two counts instead of testing for an epimorphism; `factor_homology_sum`
is one group instead of a fold of direct sums.  Each is checked on
seeded divisor chains (free rank <= 8, at most 5 invariant factors, with
mixed chains such as 6 | 30 | 210 | 420) against the factorising,
tuple-spelled Kunneth fold of `tests/oracles.py`, and the fold also
against homology of explicit chain complexes, on runs of equal members,
and for its cost: one prefix sum per chain member.
"""

import math
import random
from functools import cache
from itertools import accumulate

from oracles import (
    homology_cyclic,
    oracle_group_homology,
    reference_direct_sum,
    reference_group_homology_graded,
    reference_times_cyclic,
)
from aspherical import abhomology
from aspherical.abhomology import (
    factor_homology_sum,
    group_homology_graded,
    invariant_factor_counts,
)
from aspherical.asphericity import hopf_obstruction_dim4
from aspherical.zlinalg import FgAbelian, exists_epimorphism

TOP_DEGREE = 8

FIXED_CHAINS = [(), (6, 30, 210, 420), (2, 2, 2, 2, 2), (3, 9, 27), (2, 6, 6, 12, 60), (5,)]


def _seeded_chains(seed: int, count: int) -> list[tuple[int, ...]]:
    """Divisor chains of length 1..5: each member a multiple of the last,
    by a factor drawn from {1, 2, 3, 5, 7}."""
    rng = random.Random(seed)
    chains = []
    for _ in range(count):
        d = rng.choice([2, 3, 4, 5, 6, 10])
        chain = [d]
        for _ in range(rng.randrange(5)):
            d *= rng.choice([1, 2, 3, 5, 7])
            chain.append(d)
        chains.append(tuple(chain))
    return chains


@cache
def _cases() -> list[tuple[FgAbelian, list[FgAbelian]]]:
    """(group, reference H_0..H_8) for every chain and each free rank up
    to the chain's own top rank, the reference folded one Z at a time."""
    rng = random.Random(8801)
    cases = []
    for chain in FIXED_CHAINS + _seeded_chains(8802, 8):
        top_rank = 8 if len(chain) <= 2 else rng.randrange(2, 6)
        reference = reference_group_homology_graded(chain, TOP_DEGREE)
        for m in range(top_rank + 1):
            if m:
                reference = reference_times_cyclic(reference, 0)
            cases.append((FgAbelian(m, chain), reference))
    return cases


def test_counts_match_the_reference_fold():
    for g, reference in _cases():
        counts = invariant_factor_counts(g.free_rank, len(g.torsion), TOP_DEGREE)
        assert counts == [len(h.torsion) for h in reference], g


def test_fold_matches_the_reference_fold():
    for g, reference in _cases():
        assert list(group_homology_graded(g, TOP_DEGREE)) == reference, g


def test_hopf_flag_is_the_epimorphism_test_on_reference_h3():
    for g, reference in _cases():
        free = FgAbelian(g.free_rank)
        assert hopf_obstruction_dim4(g) == (not exists_epimorphism(free, reference[3])), g


def test_fold_matches_cell_complexes():
    for orders in ([6, 30], [0, 2, 4], [2, 2, 2], [0, 0, 6, 12], [3, 3, 9]):
        chain = tuple(sorted(d for d in orders if d))
        graded = group_homology_graded(FgAbelian(orders.count(0), chain), 3)
        for k in range(4):
            assert graded[k] == oracle_group_homology(orders, k), (orders, k)


def test_factor_homology_sum_is_the_direct_sum_fold():
    for g, _ in _cases():
        for k in range(TOP_DEGREE + 1):
            folded = FgAbelian(math.comb(g.free_rank, k))
            for d in g.torsion:
                folded = reference_direct_sum(folded, homology_cyclic(d, k))
            assert factor_homology_sum(g, k) == folded, (g, k)


def test_counts_of_free_groups_and_single_factors():
    for m in range(10):
        assert invariant_factor_counts(m, 0, TOP_DEGREE) == [0] * (TOP_DEGREE + 1)
        # Z^m + Z/d: H_n gets C(m, n-1) + C(m, n-3) + ... copies of Z/d
        expected = [sum(math.comb(m, i) for i in range(n - 1, -1, -2)) for n in range(9)]
        assert invariant_factor_counts(m, 1, TOP_DEGREE) == expected


def test_fold_makes_one_prefix_sum_per_chain_member(monkeypatch):
    # A fold that sums every earlier member's column again at each new
    # member makes t(t - 1)/2 = 780 prefix sums for this chain of 40.
    calls = []

    def counted(*args):
        calls.append(args)
        return accumulate(*args)

    monkeypatch.setattr(abhomology, "accumulate", counted)
    graded = group_homology_graded(FgAbelian(2, tuple(2**i for i in range(1, 41))), 3)
    assert len(calls) == 40
    assert [len(h.torsion) for h in graded] == invariant_factor_counts(2, 40, 3)
    # Runs of equal members share a column, and still cost one sum each.
    for m, chain in ((0, (3, 3, 3, 3)), (1, (2, 2, 2, 6, 6, 12)), (3, (2, 4, 4, 8, 8, 8))):
        calls.clear()
        reference = reference_group_homology_graded((0,) * m + chain, 6)
        assert list(group_homology_graded(FgAbelian(m, chain), 6)) == reference, (m, chain)
        assert len(calls) == len(chain)
