"""Monodromy factorizations of Lefschetz fibrations over the sphere.

A vanishing cycle is its cyclically reduced word on the fiber surface
group; its homology class is the word's exponent sums, coordinates in
the standard symplectic basis a_1, b_1, ..., a_g, b_g.  The homological
monodromy of a Dehn twist is the transvection x -> x + sign * <x, c> * c.
Only this homological shadow is computed; whether a twist product is
isotopic to the identity is checked at the homology level alone, and
every report derived from it says so.  Fibration files are read by
`fpgroup._read_word_file`, the reader of presentation files.
"""

from __future__ import annotations

from itertools import chain

from .fpgroup import (
    InvalidGenus,
    Presentation,
    _read_word_file,
    quotient_by_normal_closure,
    surface_generators,
    surface_relator,
)
from .limits import _MAX_FIBER_GENUS, _MAX_TWIST_WORK
from .word import Word, _Value, _quote, exponent_sums
from .zlinalg import DimensionMismatch, IntMatrix


class MonodromyFactorization(_Value):
    """Ordered Dehn-twist data on a genus-h fiber; leftmost twist acts first.
    Each cycle is a word over the fiber surface generators."""

    __slots__ = ("fiber_genus", "cycles", "signs")

    def __init__(self, fiber_genus: int, cycles: tuple[Word, ...], signs: tuple[int, ...]):
        if len(cycles) != len(signs):
            raise ValueError("one sign per cycle required")
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        if fiber_genus < 0:
            raise InvalidGenus("negative genus")
        fiber = surface_generators(fiber_genus)
        for c in cycles:
            if c.alphabet is not fiber:
                if c.alphabet != fiber:
                    raise ValueError("cycle word is not over the fiber surface generators")
                fiber = c.alphabet
        object.__setattr__(self, "fiber_genus", fiber_genus)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "signs", signs)


def twist_matrix(c: tuple[int, ...], sign: int) -> IntMatrix:
    """Picard-Lefschetz transvection x -> x + sign * <x, c> * c for the
    class with coordinates c in a_1, b_1, ..., a_g, b_g."""
    if len(c) % 2:
        raise DimensionMismatch("odd coordinate length")
    if sign not in (1, -1):
        raise ValueError(f"sign {sign}")
    n = len(c)
    # x -> <x, c> is the row J c for the block diagonal pairing J = [[0, 1], [-1, 0]]
    jc = [x for i in range(0, n, 2) for x in (c[i + 1], -c[i])]
    entries = ((i == j) + sign * c[i] * jc[j] for i in range(n) for j in range(n))
    return IntMatrix(n, n, tuple(entries))


def monodromy_product(m: MonodromyFactorization) -> IntMatrix:
    """Composite action on H_1 of the fiber, first twist applied first.

    A cycle's class c is read off its syllables once, as the nonzero
    (index, exponent sum) pairs, and so is the row Jc of x -> <x, c>: the
    pair (i, x) of c gives (i ^ 1, x) of Jc, negated when i is even.  A
    twist matrix is the identity plus the rank-one sign * c (Jc)^T, so it
    multiplies the product P as P + sign * c ((Jc)^T P): one row update
    per nonzero entry of c and of Jc, O(n) each.  Before the first twist,
    the row-entry updates, 2 * nnz(c) * n a twist, are summed against
    _MAX_TWIST_WORK.  As the twists run, each is charged its updates times
    1 + bits // 1024 against the same limit, where bits bounds P's entry
    bit length: a twist by c multiplies P's largest entry by at most
    1 + |c|_max |c|_1, so adds at most (|c|_max |c|_1).bit_length() bits,
    and once the bound reaches 1024, every 1024th twist resets it to the
    bits P has, a scan charged n^2.
    """
    n = 2 * m.fiber_genus
    # by cycle object (repeated cycles are shared): the nonzero (index, entry)
    # pairs of c and of Jc, a twist's row-entry updates and its bit growth
    by_cycle: dict[int, tuple[list[tuple[int, int]], list[tuple[int, int]], int, int]] = {}
    work = 0
    for cycle in m.cycles:
        if id(cycle) not in by_cycle:
            c = [(i, x) for i, x in exponent_sums(cycle).items() if x]
            jc = [(i ^ 1, x if i & 1 else -x) for i, x in c]
            growth = max((abs(x) for _, x in c), default=0) * sum(abs(x) for _, x in c)
            by_cycle[id(cycle)] = c, jc, 2 * len(c) * n, growth.bit_length()
        work += by_cycle[id(cycle)][2]
    if work > _MAX_TWIST_WORK:
        raise ValueError(f"the twists take {work} row-entry updates, over the limit of {_MAX_TWIST_WORK}")
    product = [[0] * r + [1] + [0] * (n - 1 - r) for r in range(n)]
    work, bits = 0, 1
    for t, (cycle, sign) in enumerate(zip(m.cycles, m.signs), 1):
        c, jc, updates, growth = by_cycle[id(cycle)]
        # below 1024 bits a twist weighs 1; only nonzero classes (n > 0) add bits
        if t % 1024 == 0 and bits >= 1024:
            bits = max(max(map(int.bit_length, row)) for row in product)
            work += n * n
        bits += growth
        work += updates * (1 + bits // 1024)
        if work > _MAX_TWIST_WORK:
            raise ValueError(
                f"the twists through cycle {t} take {work} row-entry updates weighed by "
                f"entry bits, over the limit of {_MAX_TWIST_WORK}"
            )
        if not c:  # a null-homologous cycle: its twist is the identity
            continue
        pairing = [0] * n
        for k, x in jc:
            pairing = [p + x * v for p, v in zip(pairing, product[k])]
        for i, ci in c:
            scale = sign * ci
            product[i] = [v + scale * p for v, p in zip(product[i], pairing)]
    return IntMatrix(n, n, tuple(chain.from_iterable(product)))


def homology_trivial(m: MonodromyFactorization) -> bool:
    """Necessary condition for the twist product to be isotopic to the
    identity: its action on H_1 is trivial.  Homological check only."""
    return monodromy_product(m) == IntMatrix.identity(2 * m.fiber_genus)


def total_space_pi1(m: MonodromyFactorization, trivial: bool) -> Presentation:
    """Fundamental group of the total space: the fiber surface group modulo
    the normal closure of the vanishing cycles.

    Valid when the twist product is trivial in the pointed mapping class
    group; computed unconditionally, with a caveat in the label whenever
    even the homological check fails.  `trivial` is that check's result,
    `homology_trivial(m)`.
    """
    label = "total space pi1"
    if not trivial:
        label += " [caveat: monodromy product is not homologically trivial]"
    fiber = m.cycles[0].alphabet if m.cycles else surface_generators(m.fiber_genus)
    surface = Presentation(fiber, (surface_relator(fiber),) if fiber else (), label=label)
    return quotient_by_normal_closure(surface, m.cycles)


def euler_characteristic(m: MonodromyFactorization) -> int:
    """2 * (2 - 2h) + n for n critical points over the sphere."""
    return 2 * (2 - 2 * m.fiber_genus) + len(m.cycles)


# --- text format ------------------------------------------------------------


def parse_factorization(text: str) -> tuple[MonodromyFactorization, str | None]:
    """Parse fibration/fiber_genus/cycle text into a factorization and label."""
    label, fiber, cycles, signs = _read_word_file(
        text, "fibration", "fiber_genus", "cycle", _fiber_generators, _signed
    )
    return MonodromyFactorization(len(fiber) // 2, tuple(cycles), tuple(signs)), label


def _fiber_generators(text: str) -> tuple[str, ...]:
    """The surface generators of the genus a fiber_genus line gives."""
    try:
        genus = int(text)
    except ValueError:
        raise ValueError(f"bad genus {_quote(text)}") from None
    if genus < 0:
        raise ValueError("negative genus")
    if genus > _MAX_FIBER_GENUS:
        raise ValueError(f"fiber_genus {_quote(genus)} exceeds the limit of {_MAX_FIBER_GENUS}")
    return surface_generators(genus)


def _signed(text: str) -> tuple[int, str]:
    """A cycle line's twist sign, + or -, and the word text after it."""
    sign, _, word_text = text.partition(" ")
    if sign not in ("+", "-"):
        raise ValueError(f"expected + or -, found {_quote(sign)}")
    return 1 if sign == "+" else -1, word_text.strip()
