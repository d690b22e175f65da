"""Independent oracles for the test suite.

Three deliberately separate computation paths live here:

* homology of explicit chain complexes (classifying-space cell
  structures for cyclic groups, tensored for products) so the structural
  Kunneth computations are checked against actual boundary matrices;

* exhaustive epimorphism search between finite abelian groups, as a
  dynamic program over the subgroups reachable as images of the
  generators.  This enumerates exactly the image subgroups of all
  homomorphisms, one source generator at a time, so agreement with it
  is agreement with brute-force enumeration;

* the factorising normalisation and tuple-spelled Kunneth fold that the
  counted code in `zlinalg` and `abhomology` replaced: every cyclic
  summand is a tuple entry, every order is factored by trial division
  and the divisor chain is rebuilt prime by prime.  The graded homology
  of one cyclic group (`homology_cyclic`, `graded_cyclic`), which the
  fold in `abhomology` no longer builds, sits beside it for the tests
  of `abhomology.kunneth`.

Three matrix certificates sit beside them: an exact determinant (the
Smith transforms must be unimodular), the symplectic gram matrix (twist
matrices must preserve it) and a surjectivity test for abelianized maps
(the construction chain must map onto its target).  The Smith form
that carries U and V forward through every operation, with its own copy
of the pinned pivot rule, is the reference for the one in `zlinalg`,
which replays them backward.  The dense cokernel, read off that Smith
form of the whole matrix, is the reference for the transform-free
one in `zlinalg`, which splits every cyclic summand off sparse rows,
and lattice membership read off the columns of the Smith transform V
is the reference for the cokernel comparison in
`zlinalg.in_row_lattice`.

The words that `word`, `fpgroup` and `fibersum` now lay out letter by
letter are also made here in their old folded form: every product goes
through `multiply`, so each intermediate word is reduced and validated,
and the witness is rebuilt from those folds.  The word, free group and
transpose constructors the tests build their inputs with live here too,
since no command needs them in `aspherical`.  The witness is also built
here in two stages, as `fibersum` once did: its fibered presentation
over the fiber alphabet, then the fiber sum of that with a genus-1
trivial bundle, which re-binds every relator to the larger alphabet.

The CLI's argparse grammar spelled out one subcommand at a time is the
reference for the parser `cli` builds from its command table.

Last, the two hand-written line loops that read presentation files
(group/gens/rel) and fibration files (fibration/fiber_genus/cycle) are
the references for the one reader, `fpgroup._read_word_file`, that
replaced them.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import cache

from aspherical.asphericity import Reason
from aspherical.fibersum import NotAspherical, fiber_sum_with_trivial_bundle
from aspherical.fpgroup import (
    FormatError,
    GroupHom,
    Presentation,
    surface_generators,
    surface_group,
    surface_relator,
)
from aspherical.lefschetz import MonodromyFactorization
from aspherical.limits import _MAX_FIBER_GENUS
from aspherical.word import Word, _quote, cyclic_reduce, parse_word
from aspherical.zlinalg import (
    DimensionMismatch,
    FgAbelian,
    IntMatrix,
    SmithDecomposition,
    cokernel,
    smith_normal_form,
)

# --- chain complex homology -------------------------------------------------


@dataclass
class ChainComplex:
    """ranks[k] is the rank of C_k; boundaries[k] is d_{k+1}: C_{k+1} -> C_k."""

    ranks: list[int]
    boundaries: list[IntMatrix]

    @property
    def top(self) -> int:
        return len(self.ranks) - 1


def circle_complex(top: int) -> ChainComplex:
    """Cell structure of the circle (one 0-cell, one 1-cell, zero boundary)."""
    ranks = [1, 1] + [0] * (top - 1)
    boundaries = [IntMatrix.zeros(ranks[k], ranks[k + 1]) for k in range(top)]
    return ChainComplex(ranks, boundaries)


def lens_complex(n: int, top: int) -> ChainComplex:
    """Infinite lens space for Z/n: one cell per degree, boundaries
    alternating 0 and multiplication by n."""
    ranks = [1] * (top + 1)
    boundaries = []
    for k in range(1, top + 1):
        entry = 0 if k % 2 else n
        boundaries.append(IntMatrix.from_rows([[entry]]))
    return ChainComplex(ranks, boundaries)


def point_complex(top: int) -> ChainComplex:
    ranks = [1] + [0] * top
    boundaries = [IntMatrix.zeros(ranks[k], ranks[k + 1]) for k in range(top)]
    return ChainComplex(ranks, boundaries)


def tensor_complex(x: ChainComplex, y: ChainComplex) -> ChainComplex:
    """Tensor product with the Koszul sign: d(a*b) = da*b + (-1)^|a| a*db."""
    top = min(x.top, y.top)
    offsets: list[dict[int, int]] = []
    ranks = []
    for k in range(top + 1):
        off: dict[int, int] = {}
        total = 0
        for i in range(k + 1):
            j = k - i
            if i <= x.top and j <= y.top:
                off[i] = total
                total += x.ranks[i] * y.ranks[j]
        offsets.append(off)
        ranks.append(total)
    boundaries = []
    for k in range(1, top + 1):
        rows = [[0] * ranks[k] for _ in range(ranks[k - 1])]
        for i, base in offsets[k].items():
            j = k - i
            for a in range(x.ranks[i]):
                for b in range(y.ranks[j]):
                    col = base + a * y.ranks[j] + b
                    if i >= 1 and (i - 1) in offsets[k - 1]:
                        d = x.boundaries[i - 1]
                        tgt = offsets[k - 1][i - 1]
                        for a2 in range(x.ranks[i - 1]):
                            coeff = d.at(a2, a)
                            if coeff:
                                rows[tgt + a2 * y.ranks[j] + b][col] += coeff
                    if j >= 1 and i in offsets[k - 1]:
                        d = y.boundaries[j - 1]
                        tgt = offsets[k - 1][i]
                        sign = -1 if i % 2 else 1
                        for b2 in range(y.ranks[j - 1]):
                            coeff = d.at(b2, b)
                            if coeff:
                                rows[tgt + a * y.ranks[j - 1] + b2][col] += sign * coeff
        boundaries.append(IntMatrix.from_rows(rows, cols=ranks[k]))
    return ChainComplex(ranks, boundaries)


def _kernel_columns(a: IntMatrix) -> IntMatrix:
    snf = smith_normal_form(a)
    diag = snf.diagonal
    cols = [j for j in range(a.cols) if j >= len(diag) or diag[j] == 0]
    rows = [[snf.v.at(i, j) for j in cols] for i in range(a.cols)]
    return IntMatrix.from_rows(rows, cols=len(cols))


def _coordinates_in_basis(basis: IntMatrix, vector: list[int]) -> list[int]:
    # Solve basis * x = vector exactly; the basis columns are a lattice
    # basis so the solution exists and is unique whenever vector lies in
    # the span (boundaries always do).
    snf = smith_normal_form(basis)
    diag = snf.diagonal
    uv = snf.u.apply(vector)
    y = []
    for i in range(basis.cols):
        assert diag[i] != 0 and uv[i] % diag[i] == 0, "vector outside the kernel lattice"
        y.append(uv[i] // diag[i])
    for i in range(basis.cols, basis.rows):
        assert uv[i] == 0, "vector outside the kernel lattice"
    return [sum(snf.v.at(i, j) * y[j] for j in range(basis.cols)) for i in range(basis.cols)]


def homology_of_complex(c: ChainComplex, k: int) -> FgAbelian:
    """ker d_k / im d_{k+1} via Smith normal form (needs degree k+1 data)."""
    assert k + 1 <= c.top, "complex too short"
    if k == 0:
        kernel = IntMatrix.identity(c.ranks[0])
    else:
        kernel = _kernel_columns(c.boundaries[k - 1])
    image = c.boundaries[k]
    relation_rows = []
    for col in range(image.cols):
        vec = [image.at(i, col) for i in range(image.rows)]
        relation_rows.append(_coordinates_in_basis(kernel, vec))
    return cokernel(IntMatrix.from_rows(relation_rows, cols=kernel.cols))


def oracle_group_homology(orders: list[int], k: int) -> FgAbelian:
    """H_k of the product of cyclic groups given by `orders` (0 meaning Z),
    from an explicit product cell structure."""
    top = k + 1
    total = point_complex(top)
    for n in orders:
        block = circle_complex(top) if n == 0 else lens_complex(n, top)
        total = tensor_complex(total, block)
    return homology_of_complex(total, k)


# --- matrix certificates -----------------------------------------------------


def symplectic_gram(g: int) -> IntMatrix:
    """Block diagonal [[0,1],[-1,0]] pairing for the a_i, b_i basis: every
    Dehn twist matrix t must satisfy t^T J t = J."""
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(g):
        rows[2 * i][2 * i + 1] = 1
        rows[2 * i + 1][2 * i] = -1
    return IntMatrix.from_rows(rows, cols=n)


def reference_smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """The Smith form under the pinned pivot rule, with U and V carried
    forward: every row operation is applied to the whole of D and U, and
    every column operation to the whole of D and V, as it happens."""
    rows, cols = a.rows, a.cols
    d = a.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    v = IntMatrix.identity(cols).to_rows()
    k = 0
    while k < rows and k < cols:
        piv = _pivot(d, k, rows, cols)
        if piv is None:
            break
        _swap_to(d, u, v, k, piv)
        while True:
            dirty = False
            for i in range(k + 1, rows):
                if d[i][k]:
                    q = d[i][k] // d[k][k]
                    if q:
                        _row_sub(d, i, k, q)
                        _row_sub(u, i, k, q)
                    if d[i][k]:
                        dirty = True
            for j in range(k + 1, cols):
                if d[k][j]:
                    q = d[k][j] // d[k][k]
                    if q:
                        _col_sub(d, j, k, q)
                        _col_sub(v, j, k, q)
                    if d[k][j]:
                        dirty = True
            if dirty:
                _swap_to(d, u, v, k, _pivot(d, k, rows, cols))
                continue
            bad = _nondivisible(d, k, rows, cols)
            if bad is None:
                break
            _row_add(d, k, bad[0])
            _row_add(u, k, bad[0])
        if d[k][k] < 0:
            _negate_row(d, k)
            _negate_row(u, k)
        k += 1
    return SmithDecomposition(
        IntMatrix.from_rows(d, cols=cols),
        IntMatrix.from_rows(u, cols=rows),
        IntMatrix.from_rows(v, cols=cols),
    )


def _swap_to(d, u, v, k, piv):
    i, j = piv
    if i != k:
        d[k], d[i] = d[i], d[k]
        u[k], u[i] = u[i], u[k]
    if j != k:
        for row in d:
            row[k], row[j] = row[j], row[k]
        for row in v:
            row[k], row[j] = row[j], row[k]


def _row_sub(m, i, k, q):
    mi, mk = m[i], m[k]
    for j in range(len(mi)):
        mi[j] -= q * mk[j]


def _row_add(m, k, i):
    mk, mi = m[k], m[i]
    for j in range(len(mk)):
        mk[j] += mi[j]


def _col_sub(m, j, k, q):
    for row in m:
        row[j] -= q * row[k]


def _negate_row(m, k):
    m[k] = [-x for x in m[k]]


def _pivot(m, k, rows, cols):
    # Smallest nonzero absolute value; ties broken by lowest (row, col).
    best = None
    best_abs = None
    for i in range(k, rows):
        for j in range(k, cols):
            x = m[i][j]
            if x and (best_abs is None or abs(x) < best_abs):
                best, best_abs = (i, j), abs(x)
    return best


def _nondivisible(m, k, rows, cols):
    p = m[k][k]
    for i in range(k + 1, rows):
        for j in range(k + 1, cols):
            if m[i][j] % p:
                return (i, j)
    return None


def reference_cokernel(a: IntMatrix) -> FgAbelian:
    """Z^cols modulo the row lattice of `a`, from the dense Smith form of
    the whole matrix, with no sparse stage first."""
    diag = reference_smith_normal_form(a).diagonal
    nonzero = [x for x in diag if x]
    return FgAbelian(a.cols - len(nonzero), tuple(x for x in nonzero if x > 1))


def sparse_rows(a: IntMatrix) -> list[dict[int, int]]:
    """The rows of `a` as {column: entry} maps, the other input form of
    `zlinalg.cokernel`."""
    return [{j: x for j, x in enumerate(a.row(i)) if x} for i in range(a.rows)]


def sympy_cokernel(a: IntMatrix) -> FgAbelian:
    """Z^cols modulo the row lattice of `a`, from sympy's invariant factors
    (the calling test is skipped where sympy is missing).  pytest is
    imported here, not at the top: `perfbench/checks.py` imports this
    module outside any test run."""
    import pytest

    ZZ = pytest.importorskip("sympy").ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    if not a.rows or not a.cols:
        return FgAbelian(a.cols)
    factors = [abs(int(f)) for f in invariant_factors(DomainMatrix(a.to_rows(), (a.rows, a.cols), ZZ)) if f]
    return FgAbelian.from_cyclic_orders([0] * (a.cols - len(factors)) + factors)


def chain_relation(g: int) -> str:
    """Fibration file of the chain relation (t_1 ... t_{2g+1})^{2g+2} on the
    genus-g fiber, over the chain b1, a1, b1^-1 b2, a2, ..., a_g, b_g."""
    words = ["b1"]
    for k in range(1, g + 1):
        words.append(f"a{k}")
        words.append(f"b{k}^-1 b{k + 1}" if k < g else f"b{g}")
    cycles = "".join(f"cycle + {w}\n" for w in words)
    return f"fibration chain relation genus {g}\nfiber_genus {g}\n" + cycles * (2 * g + 2)


def two_term_fibration(g: int, cycles: int, seed: int) -> str:
    """Fibration file of `cycles` lines `cycle + ai^e bj^f` on the genus-g
    fiber, with i and j uniform in 1..g and e and f uniform in 2..7: a
    sparse lattice with no entry +-1."""
    rng = random.Random(seed)
    lines = [f"fibration two-term genus {g}", f"fiber_genus {g}"]
    for _ in range(cycles):
        i, j, e, f = rng.randint(1, g), rng.randint(1, g), rng.randint(2, 7), rng.randint(2, 7)
        lines.append(f"cycle + a{i}^{e} b{j}^{f}")
    return "\n".join(lines) + "\n"


def _generator(j: int) -> str:
    """The j-th (0-based) generator of a1 b1 a2 b2 ...."""
    return f"{'ab'[j % 2]}{j // 2 + 1}"


def banded_rows(g: int) -> list[dict[int, int]]:
    """2g tridiagonal rows over a1 b1 ... ag bg with no entry +-1: row i
    holds s * m in columns i - 1, i, i + 1 (those in 0..2g-1), with
    s = choice([-1, 1]) and m = randint(2, 9) drawn in that order from
    random.Random(1).  The rows stay short while elimination grows their
    entries to hundreds of bits."""
    rng = random.Random(1)
    rows = []
    for i in range(2 * g):
        row = {}
        for j in range(max(i - 1, 0), min(i + 2, 2 * g)):
            s = rng.choice([-1, 1])
            row[j] = s * rng.randint(2, 9)
        rows.append(row)
    return rows


def _row_words(rows: list[dict[int, int]]) -> list[str]:
    return [" ".join(f"{_generator(j)}^{e}" for j, e in row.items()) for row in rows]


def banded_fibration(g: int) -> str:
    """Fibration file of one `cycle + word` per row of `banded_rows`."""
    cycles = "".join(f"cycle + {w}\n" for w in _row_words(banded_rows(g)))
    return f"fibration banded genus {g}\nfiber_genus {g}\n" + cycles


def banded_presentation(g: int) -> str:
    """Fibered presentation file: the genus-g surface generators and
    relator, then one `rel` per row of `banded_rows`."""
    return _fibered_file("banded", g, _row_words(banded_rows(g)))


def dense_presentation(n: int) -> str:
    """Fibered presentation file on n generators (n even): the
    genus-n/2 surface relator, then n relators, each the product of x^e
    over every generator x, e drawn from random.Random(4403) uniform in
    [-9, 9] (x left out at e = 0)."""
    rng = random.Random(4403)
    words = [
        " ".join(f"{_generator(j)}^{e}" for j in range(n) for e in [rng.randint(-9, 9)] if e)
        for _ in range(n)
    ]
    return _fibered_file("dense", n // 2, words)


def _fibered_file(label: str, g: int, words: list[str]) -> str:
    gens = " ".join(_generator(j) for j in range(2 * g))
    surface = " ".join(f"[a{i},b{i}]" for i in range(1, g + 1))
    return f"group {label}\ngens {gens}\nrel {surface}\n" + "".join(f"rel {w}\n" for w in words)


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_surjective_onto(
    f_matrix: IntMatrix, target: FgAbelian, target_relations: IntMatrix
) -> bool:
    """Whether the columns of f_matrix generate Z^n modulo target_relations."""
    if f_matrix.rows != target_relations.cols:
        raise DimensionMismatch(
            f"map into Z^{f_matrix.rows} but relations over Z^{target_relations.cols}"
        )
    if cokernel(target_relations) != target:
        raise ValueError("target group does not match its relation matrix")
    rows = [[f_matrix.at(i, j) for i in range(f_matrix.rows)] for j in range(f_matrix.cols)]
    rows.extend(target_relations.to_rows())
    return cokernel(IntMatrix.from_rows(rows, cols=f_matrix.rows)) == FgAbelian(0)


# --- exhaustive epimorphism search ------------------------------------------


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def epi_exists_oracle(a: FgAbelian, b: FgAbelian) -> bool:
    """Whether a surjection a -> b exists, by exhaustive search.

    The free rank is peeled off first (a surjection must hit the Z^rank(b)
    summand through a split, leaving Z^(difference) + torsion onto the
    target torsion), and leftover Z factors act through Z/exponent.
    """
    if a.free_rank < b.free_rank:
        return False
    if not b.torsion:
        return True
    exponent = b.torsion[-1]
    source_orders = list(a.torsion) + [exponent] * (a.free_rank - b.free_rank)
    target_primary: dict[int, list[int]] = {}
    for d in b.torsion:
        for p, e in _factor(d).items():
            target_primary.setdefault(p, []).append(e)
    for p, mu in target_primary.items():
        lam = []
        for n in source_orders:
            v = 0
            while n % p == 0:
                v += 1
                n //= p
            if v:
                lam.append(v)
        mu_sorted = tuple(sorted(mu, reverse=True))
        lam_sorted = tuple(sorted((min(v, mu_sorted[0]) for v in lam), reverse=True))
        if not _p_group_epi(p, lam_sorted, mu_sorted):
            return False
    return True


@cache
def _p_group_epi(p: int, lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """Search all homomorphisms (+)Z/p^lam_i -> (+)Z/p^mu_j for a surjection.

    States are the subgroups reachable as the image of the first i
    generators; generator images range over the full p^lam_i torsion
    subgroup, deduplicated by coset (adding s in S to an image does not
    change the generated subgroup).
    """
    if not mu:
        return True
    if sum(lam) < sum(mu):
        return False  # image order divides the product of generator orders
    moduli = [p**m for m in mu]
    size = 1
    for m in moduli:
        size *= m
    assert size <= 1 << 16, "oracle target too large"

    def decode(idx: int) -> tuple[int, ...]:
        out = []
        for m in moduli:
            idx, r = divmod(idx, m)
            out.append(r)
        return tuple(out)

    def encode(t: tuple[int, ...]) -> int:
        idx = 0
        for x, m in zip(reversed(t), reversed(moduli)):
            idx = idx * m + x
        return idx

    elements = [decode(i) for i in range(size)]
    add = [
        [encode(tuple((x + y) % m for x, y, m in zip(ex, ey, moduli))) for ey in elements]
        for ex in elements
    ]
    torsion_subgroup = {}
    for level in set(lam):
        q = p**level
        torsion_subgroup[level] = tuple(
            i for i, el in enumerate(elements)
            if all(x * q % m == 0 for x, m in zip(el, moduli))
        )

    closure_memo: dict[tuple[frozenset[int], int], frozenset[int]] = {}

    def closure(s: frozenset[int], b: int) -> frozenset[int]:
        if b in s:
            return s
        key = (s, b)
        got = closure_memo.get(key)
        if got is not None:
            return got
        members = set(s)
        kb = b
        while kb not in s:
            row = add[kb]
            members.update(row[x] for x in s)
            kb = row[b]
        result = frozenset(members)
        closure_memo[key] = result
        return result

    states = {frozenset({0})}
    for level in lam:
        candidates = torsion_subgroup[level]
        next_states = set()
        for s in states:
            seen = set()
            for b in candidates:
                if b in seen:
                    continue
                t = closure(s, b)
                if len(t) == size:
                    return True
                next_states.add(t)
                row = add[b]
                seen.update(row[x] for x in s)
        states = next_states
    return False


# --- reference normalisation and homology -----------------------------------


def torsion_chains(bound: int) -> list[tuple[int, ...]]:
    """Every divisor chain (d_1 | d_2 | ..., each d_i >= 2) whose product is
    at most `bound`: one per finite abelian group of order <= bound."""
    chains = [()]

    def grow(chain, product):
        step = chain[-1] if chain else 1
        d = step if chain else 2
        while product * d <= bound:
            grown = chain + (d,)
            chains.append(grown)
            grow(grown, product * d)
            d += step if chain else 1

    grow((), 1)
    return chains


def _chain_from_primary(primary: dict[int, list[int]]) -> tuple[int, ...]:
    work = {p: sorted(es, reverse=True) for p, es in primary.items() if es}
    chain: list[int] = []
    while work:
        d = 1
        for p in sorted(work):
            d *= p ** work[p][0]
        for p in list(work):
            work[p] = work[p][1:]
            if not work[p]:
                del work[p]
        chain.append(d)
    chain.reverse()
    return tuple(chain)


def reference_from_cyclic_orders(orders) -> FgAbelian:
    """Normalise cyclic orders (0 meaning Z, 1 dropped) by factoring each."""
    rank = 0
    primary: dict[int, list[int]] = {}
    for n in orders:
        n = abs(int(n))
        if n == 0:
            rank += 1
        elif n > 1:
            for p, e in _factor(n).items():
                primary.setdefault(p, []).append(e)
    return FgAbelian(rank, _chain_from_primary(primary))


def _reference_primary(g: FgAbelian) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for d in g.torsion:
        for p, e in _factor(d).items():
            out.setdefault(p, []).append(e)
    return {p: sorted(es, reverse=True) for p, es in out.items()}


def reference_contains_summand(g: FgAbelian, other: FgAbelian) -> bool:
    """Prime by prime: other's exponents are a sub-multiset of g's."""
    if other.free_rank > g.free_rank:
        return False
    mine = _reference_primary(g)
    for p, exps in _reference_primary(other).items():
        pool = list(mine.get(p, ()))
        for e in exps:
            if e not in pool:
                return False
            pool.remove(e)
    return True


def reference_exists_epimorphism(a: FgAbelian, b: FgAbelian) -> bool:
    """The per-prime counting criterion, prime by prime."""
    if a.free_rank < b.free_rank:
        return False
    pa = _reference_primary(a)
    for p, exps_b in _reference_primary(b).items():
        exps_a = pa.get(p, ())
        for k in range(1, exps_b[0] + 1):
            count_a = sum(1 for e in exps_a if e >= k)
            count_b = sum(1 for e in exps_b if e >= k)
            if a.free_rank + count_a < b.free_rank + count_b:
                return False
    return True


def _orders(g: FgAbelian) -> tuple[int, ...]:
    return (0,) * g.free_rank + g.torsion


def reference_direct_sum(a: FgAbelian, b: FgAbelian) -> FgAbelian:
    return reference_from_cyclic_orders(_orders(a) + _orders(b))


def _reference_tensor(a: FgAbelian, b: FgAbelian) -> FgAbelian:
    orders = []
    for x in _orders(a):
        for y in _orders(b):
            orders.append(y if x == 0 else x if y == 0 else math.gcd(x, y))
    return reference_from_cyclic_orders(orders)


def _reference_tor(a: FgAbelian, b: FgAbelian) -> FgAbelian:
    return reference_from_cyclic_orders([math.gcd(x, y) for x in a.torsion for y in b.torsion])


def reference_kunneth(ha, hb, n: int) -> FgAbelian:
    """Degree n of the product, summand by summand, renormalising after
    every direct sum."""
    out = FgAbelian(0)
    for i in range(n + 1):
        out = reference_direct_sum(out, _reference_tensor(ha[i], hb[n - i]))
    for i in range(n):
        out = reference_direct_sum(out, _reference_tor(ha[i], hb[n - 1 - i]))
    return out


def _reference_cyclic(n: int, top: int) -> list[FgAbelian]:
    """H_0..H_top of Z (n = 0) or Z/n: Z in degree 0, then Z in degree 1
    for Z and Z/n in every odd degree for Z/n."""
    if n == 0:
        return [FgAbelian(1), FgAbelian(1)] + [FgAbelian(0)] * (top - 1)
    return [FgAbelian(1)] + [FgAbelian(0, (n,)) if k % 2 else FgAbelian(0) for k in range(1, top + 1)]


def reference_times_cyclic(graded: list[FgAbelian], n: int) -> list[FgAbelian]:
    """Graded homology of (the group of `graded`) x (Z if n = 0, else Z/n)."""
    top = len(graded) - 1
    block = _reference_cyclic(n, top)
    return [reference_kunneth(graded, block, k) for k in range(top + 1)]


def reference_group_homology_graded(orders, top: int) -> list[FgAbelian]:
    """H_0..H_top of the product of the cyclic groups `orders` (0 meaning
    Z), folding the Kunneth formula over one cyclic factor at a time."""
    acc = [FgAbelian(1)] + [FgAbelian(0)] * top
    for n in orders:
        acc = reference_times_cyclic(acc, n)
    return acc


class InvalidModulus(ValueError):
    pass


def homology_cyclic(n: int, k: int) -> FgAbelian:
    """H_k of the cyclic group of order n (n = 0 meaning Z, n = 1 trivial),
    as `FgAbelian`s for the Kunneth fold in `abhomology.kunneth`.

    Z has Z in degrees 0 and 1; Z/n has Z in degree 0, Z/n in odd degrees
    and nothing in positive even degrees.
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


def graded_cyclic(n: int, max_degree: int) -> tuple[FgAbelian, ...]:
    return tuple(homology_cyclic(n, k) for k in range(max_degree + 1))


# --- folded word construction ------------------------------------------------


def _reduce(letters) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for i, s in letters:
        if out and out[-1] == (i, -s):
            out.pop()
        else:
            out.append((i, s))
    return tuple(out)


def word_from_letters(alphabet, letters) -> Word:
    """The freely reduced word on `letters`."""
    return Word(tuple(alphabet), _reduce(letters))


def empty_word(alphabet) -> Word:
    return Word(tuple(alphabet), ())


def generator_word(alphabet, index: int, sign: int = 1) -> Word:
    return Word(tuple(alphabet), ((index, sign),))


def multiply(u: Word, v: Word) -> Word:
    """Freely reduced concatenation of two words over one alphabet."""
    if u.alphabet != v.alphabet:
        raise ValueError("cannot multiply words over different alphabets")
    return Word(u.alphabet, _reduce(u.letters + v.letters))


def invert(w: Word) -> Word:
    return Word(w.alphabet, tuple((i, -s) for i, s in reversed(w.letters)))


def free_group(r: int) -> Presentation:
    """<g1, ..., gr | >."""
    return Presentation(tuple(f"g{i + 1}" for i in range(r)), (), label=f"F_{r}")


def transpose(a: IntMatrix) -> IntMatrix:
    entries = tuple(a.at(i, j) for j in range(a.cols) for i in range(a.rows))
    return IntMatrix(a.cols, a.rows, entries)


def reference_commutator(u: Word, v: Word) -> Word:
    """u v u^-1 v^-1 as three products of validated words."""
    return multiply(multiply(u, v), multiply(invert(u), invert(v)))


def reference_surface_relator(gens: tuple[str, ...]) -> Word:
    """[a_1,b_1]...[a_g,b_g], one product per commutator (quadratic in g)."""
    w = empty_word(gens)
    for i in range(0, len(gens), 2):
        w = multiply(w, reference_commutator(generator_word(gens, i), generator_word(gens, i + 1)))
    return w


def reference_apply_hom(f: GroupHom, w: Word) -> Word:
    """Substitute images one letter at a time, one product per letter."""
    if w.alphabet != f.source.generators:
        raise ValueError("word over a different alphabet than the source")
    out = empty_word(f.target.generators)
    for i, s in w.letters:
        out = multiply(out, f.images[i] if s > 0 else invert(f.images[i]))
    return out


def reference_cyclic_reduce(w: Word) -> Word:
    """Strip one cancelling end pair per step, copying the letters each time."""
    letters = list(w.letters)
    while len(letters) >= 2 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = letters[1:-1]
    return Word(w.alphabet, tuple(letters))


def reference_in_row_lattice(vector, rows_matrix: IntMatrix) -> bool:
    """Membership from the Smith form D = U A V: v = x A has an integer
    solution exactly when each coordinate of v V is divisible by the
    matching diagonal entry (and is zero past the rank)."""
    snf = smith_normal_form(rows_matrix)
    diag = snf.diagonal
    for j in range(rows_matrix.cols):
        wj = sum(vector[i] * snf.v.at(i, j) for i in range(rows_matrix.cols))
        dj = diag[j] if j < len(diag) else 0
        if dj == 0:
            if wj:
                return False
        elif wj % dj:
            return False
    return True


def reference_witness(gamma: FgAbelian) -> Presentation:
    """The witness of a group of free rank >= 4, relator for relator as
    `fibersum.witness_presentation` builds it (genus-(2r+1) fibered
    presentation summed with a genus-1 trivial bundle), made from the
    folds above."""
    m_prime = gamma.free_rank - 2
    r = m_prime + len(gamma.torsion)
    h = 2 * r
    g = h + 1
    fiber = tuple(f"{x}{i + 1}" for i in range(g) for x in ("a", "b"))
    gens = fiber + ("x1", "y1")

    def gen(i: int, sign: int = 1) -> Word:
        return generator_word(gens, i, sign)

    relators = [Word(gens, reference_surface_relator(fiber).letters)]
    relators.append(multiply(empty_word(gens), reference_commutator(gen(2 * g), gen(2 * g + 1))))
    for i in range(g):
        for u in (2 * g, 2 * g + 1):
            for k in (2 * i, 2 * i + 1):
                relators.append(reference_commutator(gen(u), gen(k)))
    relators += [gen(2 * i + 1) for i in range(h)]
    relators += [gen(2 * j) for j in range(r, h)]
    relators.append(multiply(gen(2 * h), gen(2 * (m_prime - 2), -1)))
    relators.append(multiply(gen(2 * h + 1), gen(2 * (m_prime - 1), -1)))
    for i in range(r):
        for j in range(i + 1, r):
            relators.append(reference_commutator(gen(2 * i), gen(2 * j)))
    for t, d in enumerate(gamma.torsion):
        relators.append(Word(gens, ((2 * (m_prime + t), 1),) * d))
    return Presentation(gens, tuple(relators), label=f"witness {gamma.render()}")


def reference_witness_presentation(gamma: FgAbelian) -> Presentation:
    """The witness in two stages: the fibered `Presentation` on the
    genus-g fiber alphabet, then `fiber_sum_with_trivial_bundle(..., 1)`,
    which checks that it is surface-fibered; the sum gets the witness label."""
    m = gamma.free_rank
    label = f"witness {gamma.render()}"
    if gamma == FgAbelian(2):
        gens = surface_group(1).generators
        return Presentation(gens, (surface_relator(gens),), label=label)
    if m < 4:
        ranks = {3: Reason.RANK_THREE, 2: Reason.RANK_TWO_WITH_TORSION}
        raise NotAspherical(ranks.get(m, Reason.RANK_ZERO_OR_ONE))
    a = FgAbelian(m - 2, gamma.torsion)
    m_prime = a.free_rank
    r = m_prime + len(a.torsion)
    h = 2 * r
    g = h + 1
    gens = surface_group(g).generators
    relators: list[Word] = []
    for i in range(h):
        relators.append(Word(gens, ((2 * i + 1, 1),)))
    for j in range(r, h):
        relators.append(Word(gens, ((2 * j, 1),)))
    relators.append(Word(gens, ((2 * h, 1), (2 * (m_prime - 2), -1))))
    relators.append(Word(gens, ((2 * h + 1, 1), (2 * (m_prime - 1), -1))))
    for i in range(r):
        for j in range(i + 1, r):
            relators.append(Word(gens, ((2 * i, 1), (2 * j, 1), (2 * i, -1), (2 * j, -1))))
    for t, dt in enumerate(a.torsion):
        relators.append(Word(gens, ((2 * (m_prime + t), 1),) * dt))
    fibered = Presentation(gens, (surface_relator(gens),) + tuple(relators))
    total = fiber_sum_with_trivial_bundle(fibered, 1)
    return Presentation(total.generators, total.relators, label=label)


# --- reference argv grammar --------------------------------------------------


def reference_parser():
    """The CLI's argparse grammar spelled out one subcommand at a time, as
    `cli._build_parser` wrote it before it was built from the command
    table: the reference for its help text and its namespaces."""
    import argparse

    from aspherical import cli

    parser = argparse.ArgumentParser(
        prog="aspherical",
        description="Symplectically aspherical abelian groups: classification, "
        "homology, Lefschetz fibration presentations and witnesses.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("classify", help="decide symplectic asphericity of an abelian group")
    p.add_argument("group", help="group spec, e.g. Z^4+Z/2")
    p.set_defaults(func=cli.cmd_classify)

    p = sub.add_parser("homology", help="integral homology and real cohomology ranks")
    p.add_argument("group")
    p.add_argument("degree", nargs="?", type=int, default=None)
    p.set_defaults(func=cli.cmd_homology)

    p = sub.add_parser("fibration", help="report on a monodromy factorization file")
    p.add_argument("file")
    p.set_defaults(func=cli.cmd_fibration)

    p = sub.add_parser("witness", help="emit a witness presentation for an aspherical group")
    p.add_argument("group")
    p.set_defaults(func=cli.cmd_witness)

    p = sub.add_parser("snf", help="Smith normal form of a matrix file")
    p.add_argument("file")
    p.set_defaults(func=cli.cmd_snf)

    p = sub.add_parser("fibersum", help="fiber sum of a fibered presentation with a trivial bundle")
    p.add_argument("file", help="presentation file in surface-fibered form")
    p.add_argument("-e", "--base-genus", type=int, default=1)
    p.set_defaults(func=cli.cmd_fibersum)

    return parser


# --- reference file readers --------------------------------------------------
# The two line loops that `fpgroup._read_word_file` replaced, each copied as
# it was, for tests/format_differential.py.


def reference_parse_presentation(text: str) -> Presentation:
    """Parse group/gens/rel text; a repeated relator text is parsed once."""
    label: str | None = None
    gens: tuple[str, ...] | None = None
    relators: list[Word] = []
    parsed: dict[str, Word] = {}
    seen_group = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "group":
            if seen_group:
                raise FormatError(f"line {lineno}: repeated group line")
            seen_group = True
            label = rest or None
        elif key == "gens":
            if not seen_group:
                raise FormatError(f"line {lineno}: gens before group")
            if gens is not None:
                raise FormatError(f"line {lineno}: repeated gens line")
            gens = tuple(rest.split())
            for name in gens:
                if not re.fullmatch(r"[a-z][a-z0-9_]*", name):
                    raise FormatError(f"line {lineno}: invalid generator name {_quote(name)}")
        elif key == "rel":
            if gens is None:
                raise FormatError(f"line {lineno}: rel before gens")
            if rest not in parsed:
                try:
                    parsed[rest] = cyclic_reduce(parse_word(rest, gens))
                except ValueError as e:
                    raise FormatError(f"line {lineno}: {e}") from e
            relators.append(parsed[rest])
        else:
            raise FormatError(f"line {lineno}: unknown directive {key!r}")
    if not seen_group or gens is None:
        raise FormatError("missing group/gens lines")
    try:
        return Presentation(gens, tuple(relators), label=label)
    except ValueError as e:
        raise FormatError(str(e)) from e


def reference_parse_factorization(text: str) -> tuple[MonodromyFactorization, str | None]:
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
