"""The cokernel that `zlinalg.cokernel` reads off its sparse Euclidean stage
alone, which hands no dense core on, against `oracles.reference_cokernel`,
which reads it off the Smith form of the whole matrix, on seeded sweeps.

The sweeps hold what the sparse stage must handle: rows with 1-3
nonzero entries, with and without +-1 among them, zero rows and rows
repeated or negated (no pass drops them first: each must reduce to zero
against its twin), wide and tall shapes, the relator lattices of
two-term fibration files, whose entries are all in 2..7, banded
lattices, whose entries grow to hundreds of bits in a dense elimination,
and dense lattices up to 24 x 24, which a dense loop once took over.
Both input forms of `cokernel`, a matrix and sparse rows, must give the
reference group.

Standard library only, so that it also runs on interpreters without
pytest:

    PYTHONPATH=src python tests/cokernel_differential.py
"""

import random
import sys

from oracles import banded_rows, reference_cokernel, sparse_rows, two_term_fibration
from aspherical.lefschetz import parse_factorization, total_space_pi1
from aspherical.zlinalg import IntMatrix, cokernel, relator_matrix

UNITS = (1, -1, 1, -1, 2, -2, 3, -4, 6)
NON_UNITS = tuple(s * x for x in range(2, 10) for s in (1, -1))


def sparse_matrix(rng, rows: int, cols: int, entries=NON_UNITS) -> IntMatrix:
    """`rows` rows of 1-3 nonzero entries drawn from `entries`, then up to
    a third as many zero, repeated and negated rows, shuffled."""
    out = []
    for _ in range(rows):
        row = [0] * cols
        for j in rng.sample(range(cols), rng.randint(1, min(cols, 3))):
            row[j] = rng.choice(entries)
        out.append(row)
    for _ in range(rng.randint(0, rows // 3 + 1)):
        kind = rng.randrange(3)
        if kind == 0 or not out:
            out.append([0] * cols)
        else:
            row = rng.choice(out)
            out.append(list(row) if kind == 1 else [-x for x in row])
    rng.shuffle(out)
    return IntMatrix.from_rows(out, cols=cols)


def sparse_sweep(seed: int, count: int, side: int, entries=NON_UNITS):
    """(name, matrix) pairs of random shapes up to side x side."""
    rng = random.Random(seed)
    for n in range(count):
        r, c = rng.randint(1, side), rng.randint(1, side)
        yield f"sparse {seed}/{n} {r}x{c}", sparse_matrix(rng, r, c, entries)


def shaped_sweep(seed: int = 4601):
    """Wide (few rows, many columns) and tall (many rows, few columns)
    sparse matrices, entries +-[2, 9]."""
    rng = random.Random(seed)
    for r, c in ((3, 30), (10, 40), (40, 10), (60, 8), (30, 30), (1, 50), (50, 1)):
        for k in range(3):
            yield f"shaped {r}x{c} #{k}", sparse_matrix(rng, r, c)


def two_term_lattices(genera=(8, 12, 16), seeds=(1, 2, 3)):
    """The relator matrices of two-term fibration files, fewer and more
    cycles than columns."""
    for g in genera:
        for cycles in (g, 3 * g):
            for seed in seeds:
                m, _ = parse_factorization(two_term_fibration(g, cycles, seed))
                p = total_space_pi1(m, False)
                yield f"two-term genus {g}, {cycles} cycles, seed {seed}", relator_matrix(p)


def banded_lattices(genera=range(2, 21)):
    """The 2g x 2g tridiagonal lattices of `oracles.banded_rows`."""
    for g in genera:
        yield f"banded genus {g}", IntMatrix.from_rows(
            [[row.get(j, 0) for j in range(2 * g)] for row in banded_rows(g)], cols=2 * g)


def dense_sweep(seed: int = 4608, sides=(4, 8, 12, 16, 20, 24), copies: int = 2):
    """n x n lattices with each cell drawn at density 0.2, 0.5 or 1,
    entries +-[2, 9] or [-9, 9] (where 0 and +-1 come up too)."""
    rng = random.Random(seed)
    for name, entries in (("+-[2, 9]", NON_UNITS), ("[-9, 9]", range(-9, 10))):
        for density in (0.2, 0.5, 1):
            for n in sides:
                for k in range(copies):
                    rows = [[rng.choice(entries) if rng.random() < density else 0
                             for _ in range(n)] for _ in range(n)]
                    yield (f"dense {n}x{n} #{k}, density {density}, {name}",
                           IntMatrix.from_rows(rows, cols=n))


def all_cases():
    yield from sparse_sweep(4602, 300, 12, UNITS)
    yield from sparse_sweep(4603, 300, 12)
    yield from shaped_sweep()
    yield from two_term_lattices()
    yield from banded_lattices()
    yield from dense_sweep()


def check(cases) -> int:
    """Compare `cokernel` on every case, both input forms, with the
    reference; return how many cases were checked."""
    checked = 0
    for name, a in cases:
        expected = reference_cokernel(a)
        assert cokernel(a) == expected, name
        assert cokernel(sparse_rows(a), a.cols) == expected, name
        checked += 1
    return checked


if __name__ == "__main__":
    checked = check(all_cases())
    print(f"Python {sys.version.split()[0]}: {checked} lattices, cokernel equal to "
          "the dense reference in both input forms")
