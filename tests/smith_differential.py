"""The Smith form whose U and V are replayed from `zlinalg._eliminate`'s
log, against `oracles.reference_smith_normal_form`, which carries them
forward through every operation, on a seeded sweep of small matrices.

The log holds one summed operation per line and run of clearing steps,
and a run whose quotients sum to zero is left out of it (logged, it
would read as a swap).  Small entries make such cancelled runs common:
the sweep holds 300 matrices of up to 12 x 12 with entries in [-3, 3],
and 11 runs in it cancel.  D, U and V must agree entry for entry.

Standard library only, so that it also runs on interpreters without
pytest:

    PYTHONPATH=src python tests/smith_differential.py
"""

import random
import sys

from oracles import reference_smith_normal_form
from aspherical.zlinalg import IntMatrix, smith_normal_form


def cancellation_sweep(seed: int = 4503, count: int = 300):
    """(name, matrix) pairs: random shapes up to 12 x 12, entries in [-3, 3]."""
    rng = random.Random(seed)
    for n in range(count):
        r, c = rng.randrange(1, 13), rng.randrange(1, 13)
        rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        yield f"sweep {n} {r}x{c}", IntMatrix.from_rows(rows, cols=c)


def check_against_reference() -> int:
    """Compare every matrix of the sweep; return how many were checked."""
    checked = 0
    for name, a in cancellation_sweep():
        got, expected = smith_normal_form(a), reference_smith_normal_form(a)
        assert (got.d, got.u, got.v) == (expected.d, expected.u, expected.v), name
        checked += 1
    return checked


if __name__ == "__main__":
    checked = check_against_reference()
    print(f"Python {sys.version.split()[0]}: {checked} matrices, D, U and V "
          "equal to the forward reference")
