"""The Smith form whose U and V are replayed backward, against the
reference that carries them forward through every operation, and the
cokernel that carries no transforms, against the dense reference and
sympy.

Both references live in `tests/oracles.py`.  D, U and V must agree
entry for entry: the `snf` report prints them, and the pinned pivot rule
makes them part of its output.  The seeded sweep whose clearing runs
cancel lives in `tests/smith_differential.py`, which also runs without
pytest.
"""

import hashlib
import random

import pytest

from oracles import (
    reference_cokernel,
    reference_smith_normal_form,
    sparse_rows,
    sympy_cokernel,
)
from smith_differential import check_against_reference
from aspherical.zlinalg import IntMatrix, _eliminate, cokernel, smith_normal_form


def _random_rows(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _shapes(seed):
    """(name, matrix) pairs covering the shapes the loop and the replay
    must handle: empty sides, zero rows and columns, repeated rows, rank
    deficiency, both rectangular orientations, huge entries and dense
    squares up to 30 x 30."""
    rng = random.Random(seed)
    for n in range(5):
        yield f"0x{n}", IntMatrix.from_rows([], cols=n)
        yield f"{n}x0", IntMatrix.from_rows([[]] * n, cols=0)
    yield "zero 3x4", IntMatrix.from_rows([[0] * 4] * 3, cols=4)
    for _ in range(12):
        r, c = rng.randrange(1, 9), rng.randrange(1, 9)
        rows = _random_rows(rng, r, c)
        for i in rng.sample(range(r), rng.randrange(r)):
            rows[i] = [0] * c
        for j in rng.sample(range(c), rng.randrange(c)):
            for row in rows:
                row[j] = 0
        yield f"zero rows and columns {r}x{c}", IntMatrix.from_rows(rows, cols=c)
    for _ in range(8):
        r, c = rng.randrange(1, 7), rng.randrange(1, 9)
        rows = _random_rows(rng, r, c)
        rows += [list(rng.choice(rows)) for _ in range(rng.randrange(1, 5))]
        rng.shuffle(rows)
        yield f"repeated rows {len(rows)}x{c}", IntMatrix.from_rows(rows, cols=c)
    for _ in range(8):
        n, rank = rng.randrange(3, 12), rng.randrange(1, 3)
        basis = _random_rows(rng, rank, n)
        rows = [
            [sum(rng.randint(-3, 3) * b[j] for b in basis) for j in range(n)]
            for _ in range(n)
        ]
        yield f"rank <= {rank} {n}x{n}", IntMatrix.from_rows(rows, cols=n)
    for r, c in ((2, 9), (9, 2), (5, 17), (17, 5), (12, 30), (30, 12)):
        yield f"rectangle {r}x{c}", IntMatrix.from_rows(_random_rows(rng, r, c), cols=c)
    for n in (2, 3, 5, 7):
        big = 10**30
        yield f"entries up to 1e30 {n}x{n}", IntMatrix.from_rows(
            _random_rows(rng, n, n, -big, big), cols=n
        )
    for n in (1, 4, 8, 14, 20, 25, 30):
        yield f"dense {n}x{n}", IntMatrix.from_rows(_random_rows(rng, n, n), cols=n)


_CASES = list(_shapes(4501))


@pytest.mark.parametrize("a", [a for _, a in _CASES], ids=[name for name, _ in _CASES])
def test_smith_form_matches_the_forward_reference_exactly(a):
    got = smith_normal_form(a)
    expected = reference_smith_normal_form(a)
    assert got.d == expected.d
    assert got.u == expected.u
    assert got.v == expected.v


def test_replayed_transforms_match_the_reference_where_runs_cancel():
    # A run of clearing steps whose quotients sum to zero must leave no
    # operation in the log; 11 runs of the sweep cancel.
    assert check_against_reference() == 300


def test_dense_40x40_matches_the_forward_reference():
    a = IntMatrix.from_rows(_random_rows(random.Random(4510), 40, 40), cols=40)
    got, expected = smith_normal_form(a), reference_smith_normal_form(a)
    assert (got.d, got.u, got.v) == (expected.d, expected.u, expected.v)


def _hex_digest(m: IntMatrix) -> str:
    # Hex text has no int-to-str digit limit; U and V here reach about 17k bits.
    return hashlib.sha256(" ".join(format(x, "x") for x in m.entries).encode()).hexdigest()


def test_benchmark_top_matrix_is_pinned():
    """The `snf_dense` benchmark's fixed 60 x 60 matrix (built as in
    `perfbench/workloads.py`).  The digests of D, U and V were recorded
    from the loop that logged every clearing step on its own, 32,455
    operations in all; summed per line and run, the log holds 22,701."""
    a = IntMatrix.from_rows(_random_rows(random.Random("snf_dense:top"), 60, 60), cols=60)
    s = smith_normal_form(a)
    assert _hex_digest(s.d) == "10c3f0a027ec7b028c5b11b5b807b019d9133f73ee0659bae32f107bfd6d0689"
    assert _hex_digest(s.u) == "73265a8d8bebf4475aa81d4e1a3121430e236413c914f6f7042c559ec17977cc"
    assert _hex_digest(s.v) == "1e2d2099715e2e1b81bc7c2a7a0302f44b1fb421a07161329779ae7472643581"
    steps = _eliminate(a.to_rows(), 60, 60)
    assert sum(len(r) + len(c) for r, c in steps) // 3 == 22701


def test_transform_free_cokernel_matches_the_dense_reference():
    for name, a in _CASES:
        expected = reference_cokernel(a)
        assert cokernel(a) == expected, name
        assert cokernel(sparse_rows(a), a.cols) == expected, name


def test_transform_free_cokernel_matches_sympy():
    # sympy's time on a dense 40 x 40 matrix ranged from 0.5 to 5 s over
    # four seeds, so the full square is rank-deficient: 30 random rows
    # and 10 sums of two of them.
    rng = random.Random(4502)
    extra = [
        (f"dense {r}x{c}", IntMatrix.from_rows(_random_rows(rng, r, c), cols=c))
        for r, c in ((24, 40), (40, 24))
    ]
    rows = _random_rows(rng, 30, 40)
    rows += [[x + y for x, y in zip(*rng.sample(rows[:30], 2))] for _ in range(10)]
    extra.append(("rank 30 40x40", IntMatrix.from_rows(rows, cols=40)))
    for name, a in _CASES + extra:
        assert cokernel(a) == sympy_cokernel(a), name
