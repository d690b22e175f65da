"""Monodromy factorizations of Lefschetz fibrations over the sphere.

A vanishing cycle is its cyclically reduced word on the fiber surface
group; its homology class is the word's exponent sums, coordinates in
the standard symplectic basis a_1, b_1, ..., a_g, b_g.  The homological
monodromy of a Dehn twist is the transvection x -> x + sign * <x, c> * c.
Only this homological shadow is computed; whether a twist product is
isotopic to the identity is checked at the homology level alone, and
every report derived from it says so.
"""

from __future__ import annotations

from .fpgroup import (
    FormatError,
    InvalidGenus,
    Presentation,
    quotient_by_normal_closure,
    surface_generators,
    surface_relator,
)
from .word import (
    _MAX_FIBER_GENUS,
    _MAX_TWIST_WORK,
    Word,
    _Value,
    cyclic_reduce,
    exponent_vector,
    parse_word,
)
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


def _pairing_row(c: tuple[int, ...]) -> tuple[int, ...]:
    """The row vector of x -> <x, c>: J c for the block diagonal pairing
    J = [[0, 1], [-1, 0]] of the a_i, b_i basis."""
    return tuple(x for i in range(0, len(c), 2) for x in (c[i + 1], -c[i]))


def twist_matrix(c: tuple[int, ...], sign: int) -> IntMatrix:
    """Picard-Lefschetz transvection x -> x + sign * <x, c> * c for the
    class with coordinates c in a_1, b_1, ..., a_g, b_g."""
    if len(c) % 2:
        raise DimensionMismatch("odd coordinate length")
    if sign not in (1, -1):
        raise ValueError(f"sign {sign}")
    n = len(c)
    jc = _pairing_row(c)
    rows = [
        [
            (1 if i == j else 0) + sign * c[i] * jc[j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return IntMatrix.from_rows(rows, cols=n)


def monodromy_product(m: MonodromyFactorization) -> IntMatrix:
    """Composite action on H_1 of the fiber, first twist applied first.

    A twist matrix is the identity plus the rank-one sign * c (Jc)^T, so
    it multiplies the product P as P + sign * c ((Jc)^T P): O(n^2) work
    per twist, and O(n) per nonzero entry of c and Jc (one row update
    each) for the few-term classes of vanishing cycles.  Those row
    updates, 2 * nnz(c) * n entries a twist, are summed before any is
    made, and more than _MAX_TWIST_WORK in all are rejected.
    """
    n = 2 * m.fiber_genus
    # class, pairing row and row work by cycle object: repeated cycles are shared
    by_cycle: dict[int, tuple[tuple[int, ...], tuple[int, ...], int]] = {}
    work = 0
    for cycle in m.cycles:
        if id(cycle) not in by_cycle:
            c = exponent_vector(cycle)
            by_cycle[id(cycle)] = c, _pairing_row(c), 2 * (n - c.count(0)) * n
        work += by_cycle[id(cycle)][2]
    if work > _MAX_TWIST_WORK:
        raise ValueError(
            f"the twists take {work} row-entry updates, over the limit of {_MAX_TWIST_WORK}"
        )
    product = IntMatrix.identity(n).to_rows()
    for cycle, sign in zip(m.cycles, m.signs):
        c, jc, _ = by_cycle[id(cycle)]
        pairing = [0] * n
        for k, x in enumerate(jc):
            if x:
                pairing = [p + x * v for p, v in zip(pairing, product[k])]
        for i, ci in enumerate(c):
            if ci:
                scale = sign * ci
                product[i] = [v + scale * p for v, p in zip(product[i], pairing)]
    return IntMatrix.from_rows(product, cols=n)


def homology_trivial(m: MonodromyFactorization) -> bool:
    """Necessary condition for the twist product to be isotopic to the
    identity: its action on H_1 is trivial.  Homological check only."""
    return monodromy_product(m) == IntMatrix.identity(2 * m.fiber_genus)


def total_space_pi1(m: MonodromyFactorization, trivial: bool | None = None) -> Presentation:
    """Fundamental group of the total space: the fiber surface group modulo
    the normal closure of the vanishing cycles.

    Valid when the twist product is trivial in the pointed mapping class
    group; computed unconditionally, with a caveat in the label whenever
    even the homological check fails.  `trivial` is that check's result
    when the caller already has it (`homology_trivial(m)`).
    """
    label = "total space pi1"
    if not (homology_trivial(m) if trivial is None else trivial):
        label += " [caveat: monodromy product is not homologically trivial]"
    fiber = m.cycles[0].alphabet if m.cycles else surface_generators(m.fiber_genus)
    surface = Presentation(fiber, (surface_relator(fiber),) if fiber else (), label=label)
    return quotient_by_normal_closure(surface, m.cycles)


def euler_characteristic(m: MonodromyFactorization) -> int:
    """2 * (2 - 2h) + n for n critical points over the sphere."""
    return 2 * (2 - 2 * m.fiber_genus) + len(m.cycles)


# --- text format ------------------------------------------------------------


def parse_factorization(text: str) -> tuple[MonodromyFactorization, str | None]:
    """Parse the fibration/fiber_genus/cycle file format; returns the
    factorization and the label.  A repeated cycle text is parsed once."""
    label: str | None = None
    genus: int | None = None
    cycles: list[Word] = []
    parsed: dict[str, Word] = {}
    signs: list[int] = []
    fiber = None
    seen_fibration = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "fibration":
            if seen_fibration:
                raise FormatError(f"line {lineno}: repeated fibration line")
            seen_fibration = True
            label = rest or None
        elif key == "fiber_genus":
            if genus is not None:
                raise FormatError(f"line {lineno}: repeated fiber_genus line")
            try:
                genus = int(rest)
            except ValueError:
                raise FormatError(f"line {lineno}: bad genus {rest!r}") from None
            if genus < 0:
                raise FormatError(f"line {lineno}: negative genus")
            if genus > _MAX_FIBER_GENUS:
                raise FormatError(
                    f"line {lineno}: fiber_genus {genus} exceeds the limit of {_MAX_FIBER_GENUS}"
                )
            fiber = surface_generators(genus)
        elif key == "cycle":
            if fiber is None:
                raise FormatError(f"line {lineno}: cycle before fiber_genus")
            sign_tok, _, word_text = rest.partition(" ")
            if sign_tok not in ("+", "-"):
                raise FormatError(f"line {lineno}: expected + or -, found {sign_tok!r}")
            word_text = word_text.strip()
            if word_text not in parsed:
                try:
                    w = parse_word(word_text, fiber)
                except ValueError as e:
                    raise FormatError(f"line {lineno}: {e}") from e
                parsed[word_text] = cyclic_reduce(w)
            cycles.append(parsed[word_text])
            signs.append(1 if sign_tok == "+" else -1)
        else:
            raise FormatError(f"line {lineno}: unknown directive {key!r}")
    if not seen_fibration or genus is None:
        raise FormatError("missing fibration/fiber_genus lines")
    return MonodromyFactorization(genus, tuple(cycles), tuple(signs)), label
