"""The presolved cokernel against the dense Smith-form reference and sympy.

`zlinalg.cokernel` drops zero and repeated rows and eliminates +-1
pivots before any dense work; these tests feed it matrices rich in
exactly those rows, the relator lattices the CLI abelianizes, and a
dense presentation on which the presolve finds little to do.
"""

import math
import random
import time

import pytest

from oracles import (
    chain_relation,
    determinant,
    reference_cokernel,
    reference_direct_sum,
    sparse_rows,
    sympy_cokernel,
)
from aspherical.fibersum import (
    SurfaceFiberedPresentation,
    fiber_sum_with_trivial_bundle,
    witness_presentation,
)
from aspherical.fpgroup import parse_presentation
from aspherical.lefschetz import homology_trivial, parse_factorization, total_space_pi1
from aspherical.zlinalg import FgAbelian, IntMatrix, abelianization, cokernel, relator_matrix


def _sparse_matrix(rng):
    """Rows with few nonzero entries, mostly +-1, padded with zero rows,
    repeats and negations of earlier rows, in shuffled order."""
    cols = rng.randrange(1, 13)
    rows = []
    for _ in range(rng.randrange(0, 12)):
        row = [0] * cols
        for j in rng.sample(range(cols), rng.randrange(1, min(cols, 4) + 1)):
            row[j] = rng.choice((1, -1, 1, -1, 2, -2, 3, -4, 6))
        rows.append(row)
    for _ in range(rng.randrange(0, 8)):
        kind = rng.randrange(3)
        if kind == 0 or not rows:
            rows.append([0] * cols)
        else:
            row = rng.choice(rows)
            rows.append(list(row) if kind == 1 else [-x for x in row])
    rng.shuffle(rows)
    return IntMatrix.from_rows(rows, cols=cols)


def test_presolved_cokernel_matches_dense_reference():
    rng = random.Random(4401)
    for _ in range(400):
        a = _sparse_matrix(rng)
        expected = reference_cokernel(a)
        assert cokernel(a) == expected, a
        assert cokernel(sparse_rows(a), a.cols) == expected, a


def test_presolved_cokernel_matches_sympy():
    rng = random.Random(4402)
    for _ in range(150):
        a = _sparse_matrix(rng)
        assert cokernel(a) == sympy_cokernel(a), a


def test_presolve_edge_cases():
    assert cokernel([], 3) == FgAbelian(3)
    assert cokernel([{}, {1: 0}], 2) == FgAbelian(2)
    # The shorter row is the pivot and leaves 2 * x1 behind, a row with no unit.
    assert cokernel([{0: 1, 1: 2}, {0: 1}], 2) == FgAbelian(0, (2,))
    assert cokernel([{0: 4, 1: 6}, {0: -4, 1: -6}, {2: 1}], 4) == FgAbelian(2, (2,))
    with pytest.raises(TypeError):
        cokernel([{0: 1}])


def _assert_matches_reference(p):
    ab = abelianization(p)
    assert ab == reference_cokernel(relator_matrix(p)), p.label
    return ab


def test_abelianization_of_witnesses_matches_dense_reference():
    for m, torsion in ((4, ()), (5, (2,)), (8, (3, 6)), (13, (2, 4, 8)), (21, (5,)), (30, (2, 4))):
        gamma = FgAbelian(m, torsion)
        assert _assert_matches_reference(witness_presentation(gamma)) == gamma


def test_abelianization_of_chain_fibrations_and_fiber_sums_matches_dense_reference():
    for g in range(1, 7):
        m, _ = parse_factorization(chain_relation(g))
        pi1 = total_space_pi1(m, homology_trivial(m))
        base = _assert_matches_reference(pi1)
        fibered = SurfaceFiberedPresentation(g, pi1)
        for e in range(1, 5):
            total = fiber_sum_with_trivial_bundle(fibered, e)
            assert _assert_matches_reference(total) == reference_direct_sum(base, FgAbelian(2 * e))


def test_dense_random_presentation_matches_sympy_in_bounded_time(tmp_path):
    # Few unit entries to eliminate, so the presolve hands on an almost
    # full 40 x 40 core; eliminating what units there are must not grow
    # the entries enough to slow the Smith form down.  The dense Smith
    # form alone takes 0.10-0.15 s here, so the best of three runs must
    # stay within about three times that.
    rng = random.Random(4403)
    n = 40
    lines = ["group dense", "gens " + " ".join(f"g{j}" for j in range(1, n + 1))]
    for _ in range(n):
        powers = [(j, rng.randint(-9, 9)) for j in range(1, n + 1)]
        lines.append("rel " + " ".join(f"g{j}^{e}" for j, e in powers if e))
    path = tmp_path / "dense.txt"
    path.write_text("\n".join(lines) + "\n")
    p = parse_presentation(path.read_text())
    times = []
    for _ in range(3):
        start = time.perf_counter()
        ab = abelianization(p)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.4
    assert ab == sympy_cokernel(relator_matrix(p))


def test_dense_80x80_cokernel_in_bounded_time():
    # A dense core offers no unit pivots, so all of it goes through the
    # Smith elimination; carrying U and V through it took 16.7 s here.
    # The cokernel carries no transforms and must stay within 3 s.
    rng = random.Random(4403)
    n = 80
    a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)], cols=n)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        ab = cokernel(a)
        times.append(time.perf_counter() - start)
    assert min(times) < 3.0
    # Full rank: the group is finite, of order |det a|.
    assert ab.free_rank == 0
    assert math.prod(ab.torsion) == abs(determinant(a))
