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
number C(m, n-1) + C(m, n-3) + ...  So d_j's counts are the fresh ones
summed over the degrees t - j times: walking the chain down from d_t,
one row carries them, one prefix sum per member, and equal members
share a column.  Each degree's summands, laid out in ascending order,
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
    if not t:  # then P_n = C(m, n), and every c_n is 0
        return [0] * (top + 1)
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


def _add_tor(acc: Counter[int], a: Counter[int], b: Counter[int]) -> None:
    """Add Tor(a, b) of two torsion counts, which is also the torsion-by-torsion
    part of their tensor product, to acc: Z/m with Z/n gives Z/gcd(m,n)."""
    for x, m in a.items():
        for y, n in b.items():
            if (g := math.gcd(x, y)) > 1:
                acc[g] += m * n


def tensor(a: FgAbelian, b: FgAbelian) -> FgAbelian:
    """Z(x)Z = Z, Z(x)Z/n = Z/n, Z/m(x)Z/n = Z/gcd(m,n), extended additively.

    >>> print(tensor(FgAbelian(2), FgAbelian(0, (2,))).render())
    Z/2 + Z/2
    >>> print(tensor(FgAbelian(0, (4,)), FgAbelian(0, (6,))).render())
    Z/2
    """
    return kunneth((a,), (b,), 0)


def tor(a: FgAbelian, b: FgAbelian) -> FgAbelian:
    """Tor(Z, anything) = 0 and Tor(Z/m, Z/n) = Z/gcd(m,n), extended additively:
    degree 1 of a product whose factors have H_0 = a and b and H_1 = 0."""
    return kunneth((a, FgAbelian(0)), (b, FgAbelian(0)), 1)


def kunneth(ha: tuple[FgAbelian, ...], hb: tuple[FgAbelian, ...], n: int) -> FgAbelian:
    """Degree-n homology of a product from the factors' graded homology,
    each a tuple of groups indexed by degree: the sum of H_i(a) (x) H_{n-i}(b)
    and of Tor(H_i(a), H_{n-1-i}(b))."""
    if len(ha) <= n or len(hb) <= n:
        raise InsufficientDegrees(
            f"need degrees through {n}, have {len(ha) - 1} and {len(hb) - 1}"
        )
    a = [Counter(g.torsion) for g in ha[: n + 1]]
    b = [Counter(g.torsion) for g in hb[: n + 1]]
    acc: Counter[int] = Counter()
    free = 0
    for i in range(n + 1):
        free_a, free_b = ha[i].free_rank, hb[n - i].free_rank
        free += free_a * free_b
        for tors, rank in ((a[i], free_b), (b[n - i], free_a)):
            if rank:  # Z^rank (x) Z/x = (Z/x)^rank
                acc.update({x: rank * count for x, count in tors.items()})
        _add_tor(acc, a[i], b[n - i])
    for i in range(n):
        _add_tor(acc, a[i], b[n - 1 - i])
    return FgAbelian.from_counts(free, acc)


def group_homology_graded(g: FgAbelian, max_degree: int) -> tuple[FgAbelian, ...]:
    """H_0..H_max of g, indexed by degree: Z^C(m,k) for the free part,
    then, unless g is free, one prefix sum over the degrees per chain
    member (see the module docstring).

    Rejected up front when its invariant factors, each weighed 1 + bits // 89,
    weigh over _MAX_HOMOLOGY_SUMMANDS.  Members from chain position i on make
    as many as a chain of t - i members, so a step up in weight at i is charged on that many.
    """
    m, t, weight, step = g.free_rank, len(g.torsion), 0, 0
    for i, d in enumerate(g.torsion):
        if (w := 1 + d.bit_length() // 89) > step:
            weight += (w - step) * sum(invariant_factor_counts(m, t - i, max_degree))
            step = w
    if weight > _MAX_HOMOLOGY_SUMMANDS:
        raise ValueError(f"homology through degree {max_degree} has torsion summands weighing "
                         f"{weight} by their bits, over the limit of {_MAX_HOMOLOGY_SUMMANDS}")
    free = [math.comb(m, k) for k in range(max_degree + 1)]
    if not g.torsion:
        return tuple(map(FgAbelian, free))
    # row[n] starts as C(m, n-1) + C(m, n-3) + ..., the fresh copies of Z/d in degree n
    row = [0] + [sum(free[n::-2]) for n in range(max_degree)]
    columns: dict[int, list[int]] = {}  # chain member -> its count in each degree, last first
    for d in reversed(g.torsion):
        columns[d] = [a + b for a, b in zip(columns.get(d, repeat(0)), row)]
        row = list(accumulate(row))
    groups = []
    for n, rank in enumerate(free):
        torsion = chain.from_iterable(repeat(x, col[n]) for x, col in reversed(columns.items()))
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

    For k >= 1 a direct summand of the full H_k(g); the difference is the
    cross terms the Kunneth formula contributes.  At k = 0 it is not once g
    has torsion: Z^{1 + t} for t invariant factors, while H_0(g) = Z.
    """
    free = math.comb(g.free_rank, k) + (len(g.torsion) if k == 0 else 0)
    return FgAbelian(free, g.torsion if k % 2 else ())


def real_cohomology_rank(g: FgAbelian, k: int) -> int:
    """dim H^k(g; R): torsion dies over the reals, the free part gives an
    exterior algebra, so the answer is binomial(rank, k)."""
    if k < 0:
        raise ValueError(f"degree {k}")
    return math.comb(g.free_rank, k)
