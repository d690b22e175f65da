"""Integral homology of finitely generated abelian groups.

Write g = Z^m + Z/d_1 + ... + Z/d_t with d_1 | ... | d_t.  The free part
gives H_k(Z^m) = Z^C(m,k); each invariant factor is folded in by the
Kunneth formula.  H_*(Z/d) is Z in degree 0, Z/d in odd degrees and 0 in
positive even degrees, so

    H_n(A x Z/d) = H_n(A) + sum_{i = n-1, n-3, ...} H_i(A) (x) Z/d
                          + sum_{i = n-2, n-4, ...} Tor(H_i(A), Z/d).

Every order the fold makes is a member of g's divisor chain: d itself
(from a free summand of H_i(A)), or gcd(x, d) = x for an earlier member
x, which divides d.  So a torsion summand Z/x of H_i(A) passes into
degree n once for each i <= n, and the fresh copies of Z/d in degree n
number C(m, n-1) + C(m, n-3) + ...  Each fold is then a prefix sum over
the degrees, and each degree's summands, laid out in ascending order,
already are its invariant factors: nothing is normalised.

The number c_n of invariant factors of H_n(g) has a closed form.  Take a
prime p dividing d_1; it divides every order above.  Over F_p each Z/d
has F_p in every degree, so H_*(g; F_p) has Poincare series
(1 + x)^m / (1 - x)^t, and universal coefficients give its degree-n
coefficient as P_n = C(m, n) + c_n + c_{n-1}: one F_p for each summand
of H_n, and one for each torsion summand of H_{n-1} through Tor.  Real
cohomology only sees the free rank, which gives binomial coefficients.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate, chain, repeat

from .limits import _MAX_HOMOLOGY_SUMMANDS
from .zlinalg import FgAbelian

DEFAULT_DEGREE_CAP = 8


class InsufficientDegrees(ValueError):
    pass


def invariant_factor_counts(m: int, t: int, top: int) -> list[int]:
    """c_0..c_top, the number of invariant factors of H_n of Z^m plus t
    cyclic invariant factors: c_n = P_n - C(m, n) - c_{n-1}, with P_n the
    coefficient of x^n in (1 + x)^m / (1 - x)^t.

    >>> invariant_factor_counts(4, 1, 3)
    [0, 1, 4, 7]
    >>> sum(invariant_factor_counts(0, 11, 8))
    52833
    """
    inverse = [1]  # inverse[j] = C(t + j - 1, j), the x^j coefficient of 1/(1 - x)^t
    for j in range(1, top + 1):
        inverse.append(inverse[-1] * (t + j - 1) // j)
    counts = []
    c = 0
    for n in range(top + 1):
        p = sum(math.comb(m, i) * inverse[n - i] for i in range(n + 1))
        c = p - math.comb(m, n) - c
        counts.append(c)
    return counts


# A counted group: (free rank, {order: multiplicity}) with every order >= 2.
Counted = tuple[int, dict[int, int]]


def _counted(g: FgAbelian) -> Counted:
    return g.free_rank, dict(Counter(g.torsion))


def _add_tor(acc: dict[int, int], a: Counted, b: Counted) -> None:
    """Add Tor(a, b), which is also the torsion-by-torsion part of a (x) b,
    to the counts in acc: Z/m with Z/n gives Z/gcd(m,n)."""
    for x, m in a[1].items():
        for y, n in b[1].items():
            g = math.gcd(x, y)
            if g > 1:
                acc[g] = acc.get(g, 0) + m * n


def _add_tensor(acc: dict[int, int], a: Counted, b: Counted) -> int:
    """Add the torsion of a (x) b to acc and return its free rank:
    Z (x) Z = Z and Z (x) Z/n = Z/n, plus the torsion-by-torsion part."""
    (free_a, tors_a), (free_b, tors_b) = a, b
    if free_b:
        for x, m in tors_a.items():
            acc[x] = acc.get(x, 0) + free_b * m
    if free_a:
        for y, n in tors_b.items():
            acc[y] = acc.get(y, 0) + free_a * n
    _add_tor(acc, a, b)
    return free_a * free_b


def tensor(a: FgAbelian, b: FgAbelian) -> FgAbelian:
    """Z(x)Z = Z, Z(x)Z/n = Z/n, Z/m(x)Z/n = Z/gcd(m,n), extended additively.

    >>> print(tensor(FgAbelian(2), FgAbelian(0, (2,))).render())
    Z/2 + Z/2
    >>> print(tensor(FgAbelian(0, (4,)), FgAbelian(0, (6,))).render())
    Z/2
    """
    acc: dict[int, int] = {}
    free = _add_tensor(acc, _counted(a), _counted(b))
    return FgAbelian.from_counts(free, acc)


def tor(a: FgAbelian, b: FgAbelian) -> FgAbelian:
    """Tor(Z, anything) = 0 and Tor(Z/m, Z/n) = Z/gcd(m,n), extended additively."""
    acc: dict[int, int] = {}
    _add_tor(acc, _counted(a), _counted(b))
    return FgAbelian.from_counts(0, acc)


def kunneth(ha: tuple[FgAbelian, ...], hb: tuple[FgAbelian, ...], n: int) -> FgAbelian:
    """Degree-n homology of a product from the factors' graded homology,
    each a tuple of groups indexed by degree."""
    if len(ha) <= n or len(hb) <= n:
        raise InsufficientDegrees(
            f"need degrees through {n}, have {len(ha) - 1} and {len(hb) - 1}"
        )
    a = [_counted(g) for g in ha[: n + 1]]
    b = [_counted(g) for g in hb[: n + 1]]
    acc: dict[int, int] = {}
    free = 0
    for i in range(n + 1):
        free += _add_tensor(acc, a[i], b[n - i])
    for i in range(n):
        _add_tor(acc, a[i], b[n - 1 - i])
    return FgAbelian.from_counts(free, acc)


def group_homology_graded(
    g: FgAbelian, max_degree: int = DEFAULT_DEGREE_CAP
) -> tuple[FgAbelian, ...]:
    """H_0..H_max of g, indexed by degree: Z^C(m,k) for the free part,
    then one prefix sum over the degrees per invariant factor (see the
    module docstring).

    Rejected up front when the invariant factors through max_degree
    number more than _MAX_HOMOLOGY_SUMMANDS.
    """
    summands = sum(invariant_factor_counts(g.free_rank, len(g.torsion), max_degree))
    if summands > _MAX_HOMOLOGY_SUMMANDS:
        raise ValueError(
            f"homology through degree {max_degree} has {summands} torsion summands, "
            f"over the limit of {_MAX_HOMOLOGY_SUMMANDS}"
        )
    free = [math.comb(g.free_rank, k) for k in range(max_degree + 1)]
    # fresh[n] = C(m, n-1) + C(m, n-3) + ..., the new copies of Z/d in degree n
    fresh = [0] + [sum(free[n::-2]) for n in range(max_degree)]
    columns: dict[int, list[int]] = {}  # chain member -> its count in each degree
    for d in g.torsion:
        columns = {x: list(accumulate(col)) for x, col in columns.items()}
        columns[d] = [a + b for a, b in zip(columns.get(d, repeat(0)), fresh)]
    groups = []
    for n, rank in enumerate(free):
        torsion = chain.from_iterable(repeat(x, col[n]) for x, col in columns.items())
        groups.append(FgAbelian(rank, tuple(torsion)))
    return tuple(groups)


def group_homology(g: FgAbelian, k: int) -> FgAbelian:
    """
    >>> print(group_homology(FgAbelian(4), 3).render())
    Z^4
    >>> print(group_homology(FgAbelian(4, (2,)), 3).render())
    Z^4 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2
    """
    return group_homology_graded(g, max_degree=k)[k]


def factor_homology_sum(g: FgAbelian, k: int) -> FgAbelian:
    """H_k of the free part plus H_k of each invariant factor: Z^C(m,k),
    plus Z for each factor when k = 0, plus g's torsion when k is odd.

    Always a direct summand of the full H_k(g); the difference is the
    cross terms the Kunneth formula contributes.
    """
    free = math.comb(g.free_rank, k) + (len(g.torsion) if k == 0 else 0)
    return FgAbelian(free, g.torsion if k % 2 else ())


def real_cohomology_rank(g: FgAbelian, k: int) -> int:
    """dim H^k(g; R): torsion dies over the reals, the free part gives an
    exterior algebra, so the answer is binomial(rank, k)."""
    if k < 0:
        raise ValueError(f"degree {k}")
    return math.comb(g.free_rank, k)
