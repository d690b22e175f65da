"""The cokernel against the dense Smith-form reference and sympy.

`zlinalg.cokernel` splits every cyclic summand off sparse rows by
Euclidean steps, +-1 pivots first; zero, repeated and negated rows
reduce to zero there.  No dense core is handed on: the Smith loop
`_eliminate` serves `smith_normal_form` alone.  These tests feed the
cokernel matrices rich in exactly those rows, sparse lattices with no
unit entry (the seeded sweeps of `tests/cokernel_differential.py`,
two-term fibration files and banded lattices), the relator lattices the
CLI abelianizes, and dense matrices, which the sparse stage now takes
to the end as well.  The tests named for a presolve keep the name of the
unit-only stage that the Euclidean one replaced.
"""

import math
import random
import time

import pytest

from cokernel_differential import (
    all_cases,
    banded_lattices,
    check,
    dense_sweep,
    shaped_sweep,
    sparse_sweep,
)
from oracles import (
    banded_fibration,
    banded_presentation,
    banded_rows,
    chain_relation,
    dense_presentation,
    determinant,
    reference_cokernel,
    reference_direct_sum,
    sparse_rows,
    sympy_cokernel,
    two_term_fibration,
)
from aspherical import cli, zlinalg
from aspherical.fibersum import (
    fiber_sum_with_trivial_bundle,
    witness_presentation,
)
from aspherical.fpgroup import parse_presentation, render_presentation
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
    # Euclidean steps with no unit anywhere: gcd(4, 6) = 2 and gcd(6, 10, 15) = 1.
    assert cokernel([{0: 4, 1: 6}], 2) == FgAbelian(1, (2,))
    assert cokernel([{0: 6, 1: 10, 2: 15}], 3) == FgAbelian(2)
    assert cokernel([{0: 2, 1: 3}, {0: 3, 1: 2}], 2) == FgAbelian(0, (5,))
    with pytest.raises(TypeError):
        cokernel([{0: 1}])


def test_differential_sweeps_match_the_dense_reference():
    # Unit and non-unit sparse sweeps, wide and tall shapes, two-term,
    # banded and dense lattices.
    assert check(all_cases()) == 300 + 300 + 21 + 18 + 19 + 72


def test_non_unit_sweeps_match_sympy():
    # Up to 40 x 40: sympy is the independent oracle, not the Smith loop.
    cases = [*sparse_sweep(4604, 60, 12), *sparse_sweep(4605, 12, 40), *shaped_sweep(4606)]
    for name, a in cases:
        assert cokernel(a) == sympy_cokernel(a), name


def test_banded_lattices_match_sympy():
    # 2g = 4 to 40: tridiagonal, no entry +-1.
    for name, a in banded_lattices():
        assert cokernel(a) == sympy_cokernel(a), name


def test_two_term_fibrations_match_the_dense_reference():
    for g in (8, 10, 12, 14, 16):
        for seed in (1, 2, 3):
            m, _ = parse_factorization(two_term_fibration(g, 2 * g + seed * g // 2, seed))
            _assert_matches_reference(total_space_pi1(m, homology_trivial(m)))


def test_two_term_fibration_in_bounded_time(tmp_path, capsys):
    # 400 cycles at genus 256: no entry is +-1, so an elimination that
    # pivots on units alone sends the whole 400 x 512 lattice to the dense
    # loop, 3.3 s here.  The Euclidean stage takes the whole command to
    # about 0.2 s; the best of three runs must stay under 1 s.
    path = tmp_path / "two_term.txt"
    path.write_text(two_term_fibration(256, 400, 1))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert cli.main(["fibration", str(path)]) == 0
        times.append(time.perf_counter() - start)
    assert min(times) < 1.0
    assert "abelianization: Z^" in capsys.readouterr().out


def test_no_cokernel_enters_the_dense_loop(monkeypatch, tmp_path, capsys):
    # With the Smith loop raising, every cokernel below, through the CLI
    # and called directly, must come from the sparse stage alone.
    def refused(*args):
        raise AssertionError("a cokernel entered the Smith loop")

    monkeypatch.setattr(zlinalg, "_eliminate", refused)
    m, _ = parse_factorization(chain_relation(3))
    files = {
        "chain.txt": chain_relation(3),
        "two_term.txt": two_term_fibration(64, 200, 1),
        "banded.txt": banded_fibration(20),
        "chain_pi1.txt": render_presentation(total_space_pi1(m, homology_trivial(m))),
        "banded_pi1.txt": banded_presentation(20),
        "dense_pi1.txt": dense_presentation(30),
    }
    argvs = [["witness", "Z^13+Z/2+Z/4+Z/8"]]
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text)
        argvs.append(["fibersum", str(path), "-e", "2"] if "pi1" in name else ["fibration", str(path)])
    for argv in argvs:
        assert cli.main(argv) == 0, argv
    assert capsys.readouterr().out.count("abelianization_check: PASS") == 4
    # Sparse lattices with no unit, dense ones with few, and a banded one.
    rng = random.Random(4607)
    rows = [{j: rng.choice((2, -3, 5, -7, 9)) for j in rng.sample(range(60), 3)} for _ in range(60)]
    cokernel(rows, 60)
    for _, a in dense_sweep(sides=(30,), copies=1):
        cokernel(a)
    cokernel(banded_rows(100), 200)


def test_banded_genus_200_cokernel_in_bounded_time():
    # 400 x 400 tridiagonal, no entry +-1.  Handing a dense core of
    # entries that reach hundreds of bits to the Smith loop took 0.67-0.78 s
    # here; the sparse stage alone takes 0.15-0.19 s.  The best of three
    # runs must stay under 0.6 s.
    rows = banded_rows(200)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        ab = cokernel([dict(row) for row in rows], 400)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.6
    # Full rank: the group is finite, of order |det|, which a tridiagonal
    # matrix gives by its three-term recurrence.
    det, prev = 1, 0
    for i, row in enumerate(rows):
        det, prev = row[i] * det - row.get(i - 1, 0) * rows[i - 1].get(i, 0) * prev, det
    assert det and ab.free_rank == 0
    assert math.prod(ab.torsion) == abs(det)


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
        for e in range(1, 5):
            total = fiber_sum_with_trivial_bundle(pi1, e)
            assert _assert_matches_reference(total) == reference_direct_sum(base, FgAbelian(2 * e))


def test_dense_random_presentation_matches_sympy_in_bounded_time(tmp_path):
    # Few unit entries, so once they are used up the sparse stage works on
    # an almost full 40 x 40 lattice to the end; no dense core is handed
    # on.  The dense Smith form alone takes 0.10-0.15 s here, and the
    # sparse stage about 0.02 s, so the best of three runs must stay
    # within about three times the former.
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
    # Carrying U and V through a Smith elimination of this lattice took
    # 16.7 s here.  The cokernel carries no transforms and hands no dense
    # core on: its sparse stage runs to the end, about 0.33 s, and must
    # stay within 3 s.
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
