"""Integral homology of finitely generated abelian groups.

Homology is assembled structurally: the closed form H_k(Z^m) = Z^C(m,k)
for the free part, closed formulas for the cyclic invariant factors, then
the Kunneth formula

    H_n(G x H) = sum_{i+j=n} H_i(G) (x) H_j(H)  +  sum_{i+j=n-1} Tor(H_i(G), H_j(H))

iterated over the invariant factors.  The fold works on counted groups,
a free rank plus an {order: multiplicity} map, so no summand is spelled
out until each degree's group is normalised once at the end.  Real
cohomology only sees the free rank, which gives binomial coefficients.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .zlinalg import FgAbelian

DEFAULT_DEGREE_CAP = 8


class InvalidModulus(ValueError):
    pass


class InsufficientDegrees(ValueError):
    pass


@dataclass(frozen=True)
class GradedAbelian:
    """Homology groups indexed by degree 0..N."""

    groups: tuple[FgAbelian, ...]

    @property
    def top_degree(self) -> int:
        return len(self.groups) - 1


def homology_cyclic(n: int, k: int) -> FgAbelian:
    """H_k of the cyclic group of order n (n = 0 meaning Z, n = 1 trivial).

    Z has Z in degrees 0 and 1; Z/n has Z in degree 0, Z/n in odd degrees
    and nothing in positive even degrees.

    >>> print(homology_cyclic(2, 3).render())
    Z/2
    >>> print(homology_cyclic(0, 1).render())
    Z
    >>> print(homology_cyclic(2, 2).render())
    0
    """
    if n < 0:
        raise InvalidModulus(f"modulus {n}")
    if k < 0:
        raise ValueError(f"degree {k}")
    if k == 0:
        return FgAbelian(1)
    if n == 0:
        return FgAbelian(1) if k == 1 else FgAbelian(0)
    if n == 1:
        return FgAbelian(0)
    return FgAbelian(0, (n,)) if k % 2 else FgAbelian(0)


def graded_cyclic(n: int, max_degree: int) -> GradedAbelian:
    return GradedAbelian(tuple(homology_cyclic(n, k) for k in range(max_degree + 1)))


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


def _kunneth_counts(ha: Sequence[Counted], hb: Sequence[Counted], n: int) -> Counted:
    acc: dict[int, int] = {}
    free = 0
    for i in range(n + 1):
        free += _add_tensor(acc, ha[i], hb[n - i])
    for i in range(n):
        _add_tor(acc, ha[i], hb[n - 1 - i])
    return free, acc


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


def kunneth(ha: GradedAbelian, hb: GradedAbelian, n: int) -> FgAbelian:
    """Degree-n homology of a product from the factors' graded homology."""
    if ha.top_degree < n or hb.top_degree < n:
        raise InsufficientDegrees(
            f"need degrees through {n}, have {ha.top_degree} and {hb.top_degree}"
        )
    counted_a = [_counted(g) for g in ha.groups[: n + 1]]
    counted_b = [_counted(g) for g in hb.groups[: n + 1]]
    return FgAbelian.from_counts(*_kunneth_counts(counted_a, counted_b, n))


def group_homology_graded(g: FgAbelian, max_degree: int = DEFAULT_DEGREE_CAP) -> GradedAbelian:
    """H_0..H_max of g: Z^C(m,k) for the free part, then Kunneth folded
    over the invariant factors on counted groups."""
    degrees = range(max_degree + 1)
    acc = [(math.comb(g.free_rank, k), {}) for k in degrees]
    for d in g.torsion:
        block = [_counted(h) for h in graded_cyclic(d, max_degree).groups]
        acc = [_kunneth_counts(acc, block, k) for k in degrees]
    return GradedAbelian(tuple(FgAbelian.from_counts(*h) for h in acc))


def group_homology(g: FgAbelian, k: int) -> FgAbelian:
    """
    >>> print(group_homology(FgAbelian(4), 3).render())
    Z^4
    >>> print(group_homology(FgAbelian(4, (2,)), 3).render())
    Z^4 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2
    """
    return group_homology_graded(g, max_degree=k).groups[k]


def factor_homology_sum(g: FgAbelian, k: int) -> FgAbelian:
    """H_k of the free part plus H_k of each invariant factor.

    Always a direct summand of the full H_k(g); the difference is the
    cross terms the Kunneth formula contributes.
    """
    out = FgAbelian(math.comb(g.free_rank, k))
    for d in g.torsion:
        out = out.direct_sum(homology_cyclic(d, k))
    return out


def real_cohomology_rank(g: FgAbelian, k: int) -> int:
    """dim H^k(g; R): torsion dies over the reals, the free part gives an
    exterior algebra, so the answer is binomial(rank, k)."""
    if k < 0:
        raise ValueError(f"degree {k}")
    return math.comb(g.free_rank, k)
