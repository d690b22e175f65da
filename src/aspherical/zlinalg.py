"""Exact integer linear algebra over arbitrary-precision integers.

Everything abelian funnels through here: Smith normal form with
unimodular transforms, cokernels in invariant-factor form, and the
epimorphism test between finitely generated abelian groups.  All
arithmetic is exact Python int arithmetic (intermediate Smith entries
can grow well past machine words).

`IntMatrix` is immutable and dense.  `smith_normal_form` runs one loop
under a pinned pivot rule and multiplies its logged operations out from
the last step back (as LAPACK forms Q from Householder reflectors): the
forward product exactly, but each step stays in its trailing block.  The
log holds one summed operation per line and run of commuting clearing
steps, so a line cleared over several passes costs one operation.  Above
a measured size, where `os.fork` exists, two CPUs are allowed and the
process has one thread, V is replayed in a child forked and pinned off
the caller's CPU while the caller, its affinity untouched, replays U:
the same integers, and a threaded caller stays serial.  That loop serves
`smith_normal_form` alone.  A cokernel carries no transforms and hands
no dense core on: its rows are kept sparse, and Euclidean steps split
every cyclic summand off them.  Relator lattices are abelianized that
way straight from the relator words.
"""

from __future__ import annotations

import heapq
import marshal
import math
import os
import sys
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .word import _Value, _quote, exponent_vector

if TYPE_CHECKING:
    from .fpgroup import GroupHom, Presentation


class DimensionMismatch(ValueError):
    pass


class IntMatrix(_Value):
    """A rows x cols integer matrix, entries stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        if rows:
            width = len(rows[0])
            if cols is not None and cols != width:
                raise DimensionMismatch(f"rows of width {width}, expected {cols}")
        else:
            width = cols if cols is not None else 0
        flat: list[int] = []
        for r in rows:
            if len(r) != width:
                raise DimensionMismatch("ragged rows")
            flat.extend(map(int, r))
        return cls(len(rows), width, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, (((1,) + (0,) * n) * n)[: n * n])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        flat = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                flat.append(sum(ri[k] * other.at(k, j) for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(flat))

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vector) != self.cols:
            raise DimensionMismatch(f"vector of length {len(vector)}, expected {self.cols}")
        return tuple(sum(self.row(i)[k] * vector[k] for k in range(self.cols)) for i in range(self.rows))

    def render(self) -> str:
        return "\n".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))


def parse_matrix(text: str) -> IntMatrix:
    """Rows of space-separated integers, one row per line."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError:
            raise ValueError(f"bad matrix row {_quote(line)}") from None
    return IntMatrix.from_rows(rows)


class SmithDecomposition(_Value):
    """u * a * v = d with u, v unimodular and d diagonal in divisor-chain form."""

    __slots__ = ("d", "u", "v")

    def __init__(self, d: IntMatrix, u: IntMatrix, v: IntMatrix):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d.at(i, i) for i in range(min(self.d.rows, self.d.cols)))

    @property
    def cokernel(self) -> "FgAbelian":
        """Z^cols modulo the row lattice of the decomposed matrix."""
        nonzero = [x for x in self.diagonal if x]
        return FgAbelian(self.d.cols - len(nonzero), tuple(x for x in nonzero if x > 1))


def _pivot(m: list[list[int]], k: int, rows: int, cols: int) -> tuple[int, int] | None:
    # Smallest nonzero absolute value; ties broken by lowest (row, col).
    best = None
    best_abs = None
    for i in range(k, rows):
        mi = m[i]
        for j in range(k, cols):
            x = mi[j]
            if x and (best_abs is None or abs(x) < best_abs):
                best, best_abs = (i, j), abs(x)
                if best_abs == 1:
                    return best
    return best


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Diagonalize by unimodular row/column operations.

    The pivot rule (smallest absolute value, lowest position on ties) makes
    the operations, and hence u and v, deterministic.  `_replay` multiplies
    `_eliminate`'s log of them out from the last back: the same product as
    carrying u and v forward through every operation, entry for entry.
    Above a measured size, V's replay runs in a forked child
    (`_replay_both`); the schedule changes no entry.
    """
    d = a.to_rows()
    steps = _eliminate(d, a.rows, a.cols)
    u, v = _replay_both(a.rows, a.cols, steps)
    return SmithDecomposition(
        IntMatrix.from_rows(d, cols=a.cols),
        IntMatrix.from_rows(list(zip(*u)), cols=a.rows),
        IntMatrix.from_rows(v, cols=a.cols),
    )


def _eliminate(d: list[list[int]], rows: int, cols: int) -> list[tuple[list[int], list[int]]]:
    """Bring d to Smith form in place; return each step's row and column
    operations, triples (a, b, q) for line a -= q * line b (a swap if
    q == 0; row i folded into row k is (k, i, -1), row k negated (k, k, 2)).
    Step k touches only rows and columns >= k: the rest of them is zero.
    Its clearing steps, line i -= q * line k for i > k, commute until line
    k changes (a row swap or fold for rows, a column swap for columns), so
    each such run is logged as one operation per line, q summed."""
    steps = []
    row_run, col_run = [0] * rows, [0] * cols
    for k in range(min(rows, cols)):
        piv = _pivot(d, k, rows, cols)
        if piv is None:
            break
        row_ops, col_ops = [], []
        while True:
            i, j = piv
            if i != k:
                _flush(row_ops, row_run, k)
                d[k], d[i] = d[i], d[k]
                row_ops += (k, i, 0)
            if j != k:
                _flush(col_ops, col_run, k)
                for dr in d[k:]:
                    dr[k], dr[j] = dr[j], dr[k]
                col_ops += (k, j, 0)
            dk, dirty = d[k], False
            for i in range(k + 1, rows):
                di = d[i]
                q = di[k] // dk[k]
                if q:
                    for c in range(k, cols):
                        di[c] -= q * dk[c]
                    row_run[i] += q
                dirty = dirty or di[k] != 0
            for j in range(k + 1, cols):
                q = dk[j] // dk[k]
                if q:
                    for dr in d[k:]:
                        dr[j] -= q * dr[k]
                    col_run[j] += q
                dirty = dirty or dk[j] != 0
            if dirty:
                piv = _pivot(d, k, rows, cols)
            elif (bad := _nondivisible(d, k, rows, cols)) is None:
                break
            else:  # fold the offending row into row k: the pivot shrinks to the gcd
                _flush(row_ops, row_run, k)
                for c in range(k, cols):
                    dk[c] += d[bad[0]][c]
                row_ops += (k, bad[0], -1)
                piv = (k, k)
        _flush(row_ops, row_run, k)
        _flush(col_ops, col_run, k)
        if dk[k] < 0:
            dk[k] = -dk[k]
            row_ops += (k, k, 2)
        steps.append((row_ops, col_ops))
    return steps


def _flush(ops: list[int], run: list[int], k: int) -> None:
    """Log the run's summed quotients, line i -= run[i] * line k, in
    ascending i, and clear the run.  A sum of zero is the identity and is
    left out: logged, q == 0 would read as a swap."""
    for i in range(k + 1, len(run)):
        if q := run[i]:
            ops += (i, k, q)
            run[i] = 0


def _replay(n: int, logs: list[list[int]]) -> list[list[int]]:
    """Multiply logged operations out from the last step back, as u^T =
    E_1^T (... (E_N^T I)) for row operations E_i or v = F_1 (... (F_N I))
    for column operations F_i; both act as row b -= q * row a.  Steps after
    k touch lines > k only: step k meets the identity outside lines >= k."""
    t = [[0] * r + [1] + [0] * (n - 1 - r) for r in range(n)]
    for k in range(len(logs) - 1, -1, -1):
        for q, b, a in zip(*[reversed(logs[k])] * 3):  # the triples, last first
            if q:
                ta, tb = t[a], t[b]
                for c in range(k, n):
                    tb[c] -= q * ta[c]
            else:
                t[a], t[b] = t[b], t[a]
    return t


# V's replay forks only when both replays' work, the sum over their
# operations of the trailing width n - k, is above this crossover.  Dense
# n x n in [-9, 9], 41 MB process, 2 vCPUs, Python 3.11.7, median ms of
# 15-21 pairs serial / forked (the fork, pinning and join cost 3-6 ms):
# n = 20, work 5.2k: 6.2 / 11.2; n = 24, 9.2k: 12.3 / 18.1; n = 28, 16k:
# 21.3 / 31.3; n = 32, 25k: 35.6 / 37.4; n = 34, 35k: 44.5 / 43.1;
# n = 36, 44k: 59.3 / 55.1; n = 38, 48k: 67.2 / 60.3; n = 40, 57k: 85.0 / 71.6.
_FORK_WORK = 40_000


def _replay_both(rows: int, cols: int, steps) -> tuple[list[list[int]], list[list[int]]]:
    """U^T's and V's replays; V's in a forked child, sent back with `marshal`,
    when both are above `_FORK_WORK`, `os.fork` exists, two CPUs are allowed
    and the process has one thread (a forked threaded one can deadlock).  Only
    the child is pinned, off its caller's CPU, which without load balancing it
    may share throughout.  Unless that CPU is read and V comes back whole, V is replayed here."""
    row_logs, col_logs = [ops for ops, _ in steps], [ops for _, ops in steps]
    work = min(sum(len(ops) // 3 * (n - k) for k, ops in enumerate(logs))
               for n, logs in ((rows, row_logs), (cols, col_logs)))
    threading = sys.modules.get("threading")
    u = v = pid = None
    if (work > _FORK_WORK and hasattr(os, "fork") and hasattr(os, "sched_setaffinity")
            and len(cpus := os.sched_getaffinity(0)) > 1
            and (threading is None or threading.active_count() == 1)):
        try:
            with open("/proc/self/stat", "rb") as stat:  # field 39, counted past the name
                cpu = int(stat.read().rpartition(b")")[2].split()[36])
            r, w = os.pipe()
            with open(r, "rb") as pipe, open(w, "wb") as out:
                if (pid := os.fork()) == 0:  # the child ends here on every path, flushing nothing
                    code = 1
                    try:
                        pipe.close()
                        os.sched_setaffinity(0, cpus - {cpu})
                        marshal.dump(_replay(cols, col_logs), out)
                        out.close()
                        code = 0
                    finally:
                        os._exit(code)
                out.close()
                u = _replay(rows, row_logs)
                v = marshal.loads(pipe.read())
        except (OSError, IndexError, ValueError, EOFError, TypeError):  # no CPU, pipe, fork or V
            pass
        finally:
            if pid:
                if v is None:
                    os.kill(pid, 9)  # SIGKILL; a child that has exited is still there to reap
                try:
                    if os.waitpid(pid, 0)[1]:
                        v = None
                except ChildProcessError:  # reaped by the kernel: SIGCHLD is ignored
                    pass
    return (u if u is not None else _replay(rows, row_logs),
            v if v is not None else _replay(cols, col_logs))


def _nondivisible(m, k, rows, cols) -> tuple[int, int] | None:
    p = m[k][k]
    for i in range(k + 1, rows):
        mi = m[i]
        for j in range(k + 1, cols):
            if mi[j] % p:
                return (i, j)
    return None


# --- finitely generated abelian groups -------------------------------------


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _coprime_base(numbers: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1 of which every given positive number
    is a product of powers.

    Factor refinement (Bach, Driscoll, Shallit, J. Algorithms 15, 1993):
    a pending number x with g = gcd(x, b) > 1 for a base member b goes on
    as x/g, and unless g = b, b is replaced by b/g and g.  Each step
    divides the product of everything held by g, so the number of steps
    is bounded by its bit length; no number is ever factored.

    >>> _coprime_base([12, 18])
    [2, 3]
    >>> _coprime_base([6, 35, 10])
    [2, 3, 5, 7]
    """
    base: list[int] = []
    # Smallest first, so that in a divisor chain each member meets the
    # members it is a multiple of.
    pending = sorted((n for n in numbers if n > 1), reverse=True)
    while pending:
        x = pending.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g == 1:
                continue
            if g != b:
                base[i] = base[-1]
                base.pop()
                pending += (b // g, g)
            if x != g:
                pending.append(x // g)
            break
        else:
            base.append(x)
    return sorted(base)


def _base_exponents(b: int, counts: Mapping[int, int]) -> dict[int, int]:
    """Exponent of the base element b in each counted order, as
    exponent -> multiplicity (orders that b does not divide left out)."""
    out: dict[int, int] = {}
    for d, m in counts.items():
        e = 0
        while d % b == 0:
            d //= b
            e += 1
        if e:
            out[e] = out.get(e, 0) + m
    return out


def _shared_base_exponents(a: "FgAbelian", b: "FgAbelian"):
    """For each element q of a coprime base of both groups' invariant
    factors, the exponents of q in a's factors and in b's.

    A prime p dividing q divides every factor to v_p(q) times q's
    exponent, so a per-prime criterion on exponents can be applied to
    each q in place of each prime without factoring anything.
    """
    mine, theirs = Counter(a.torsion), Counter(b.torsion)
    for q in _coprime_base(mine.keys() | theirs.keys()):
        yield _base_exponents(q, mine), _base_exponents(q, theirs)


def _chain_from_counts(counts: Mapping[int, int]) -> tuple[int, ...]:
    """Invariant factors of the sum of counts[d] copies of Z/d.

    Over a coprime base of the distinct orders, every prime dividing a
    base element b divides each order to b's exponent times a fixed
    multiple, so b plays the part of a prime: the largest factor takes
    each b to its largest exponent, the next to its second largest, and
    so on.  Runs of equal factors are laid out as one block.  Orders that
    already form a divisor chain are their own invariant factors.
    """
    chain: list[int] = []
    orders = sorted(d for d, m in counts.items() if m and d > 1)
    if all(b % a == 0 for a, b in zip(orders, orders[1:])):
        for d in orders:
            chain += [d] * counts[d]
        return tuple(chain)
    columns = []
    cuts = set()
    for b in _coprime_base(counts):
        exps = _base_exponents(b, counts)
        bounds = []  # (end of the run, counted from the top; exponent)
        end = 0
        for e in sorted(exps, reverse=True):
            end += exps[e]
            bounds.append((end, e))
        cuts.update(stop for stop, _ in bounds)
        columns.append((b, bounds))
    top = 0
    for stop in sorted(cuts):
        d = 1
        for b, bounds in columns:
            for end, e in bounds:
                if top < end:
                    d *= b**e
                    break
        chain += [d] * (stop - top)
        top = stop
    chain.reverse()
    return tuple(chain)


class FgAbelian(_Value):
    """Z^free_rank plus torsion in invariant-factor (divisor chain) form.

    Equality of values is isomorphism of groups.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for d in torsion:
            if d == prev:  # an equal neighbour passed both checks already
                continue
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
            if prev is not None and d % prev:
                raise ValueError(f"broken divisor chain {torsion}")
            prev = d
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    @classmethod
    def from_counts(cls, free_rank: int, counts: Mapping[int, int]) -> "FgAbelian":
        """Normalize Z^free_rank plus counts[d] copies of Z/d (each d >= 1).

        >>> print(FgAbelian.from_counts(3, {2: 2, 3: 1}).render())
        Z^3 + Z/2 + Z/6
        """
        if any(d < 1 or m < 0 for d, m in counts.items()):
            raise ValueError(f"orders must be positive and counts non-negative: {dict(counts)}")
        return cls(free_rank, _chain_from_counts(counts))

    @classmethod
    def from_cyclic_orders(cls, orders: Iterable[int]) -> "FgAbelian":
        """Normalize a list of cyclic orders (0 meaning Z, 1 dropped).

        >>> FgAbelian.from_cyclic_orders([2, 3])
        FgAbelian(free_rank=0, torsion=(6,))
        >>> print(FgAbelian.from_cyclic_orders([0, 4, 6]).render())
        Z + Z/2 + Z/12
        """
        free_rank = 0
        counts: dict[int, int] = {}
        for n in orders:
            n = abs(int(n))
            if n == 0:
                free_rank += 1
            elif n > 1:
                counts[n] = counts.get(n, 0) + 1
        return cls.from_counts(free_rank, counts)

    def contains_summand(self, other: "FgAbelian") -> bool:
        """True when self is isomorphic to other plus a complement.

        Criterion: other's free rank is at most self's and, at every prime
        (here: every element of a shared coprime base), other's exponents
        form a sub-multiset of self's.
        """
        if other.free_rank > self.free_rank:
            return False
        if not other.torsion:
            return True
        for have, need in _shared_base_exponents(self, other):
            if any(have.get(e, 0) < m for e, m in need.items()):
                return False
        return True

    def render(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        last = None
        for d in self.torsion:  # equal orders sit side by side: convert each run once
            if d != last:
                last, text = d, f"Z/{d}"
            parts.append(text)
        return " + ".join(parts) if parts else "0"


def cokernel(a: IntMatrix | Iterable[Mapping[int, int]], cols: int | None = None) -> FgAbelian:
    """Z^cols modulo the row lattice of `a`, in invariant-factor form.

    `a` is a matrix, or its rows as sparse {column: entry} maps over
    `cols` columns.  `_split_sparse` splits every cyclic summand off the
    rows: no U, V or dense core, and `_eliminate` serves `snf` alone.

    >>> print(cokernel([{0: 2}, {0: -2}, {}, {1: 1, 2: 3}], cols=3).render())
    Z + Z/2
    """
    if isinstance(a, IntMatrix):
        cols, a = a.cols, [dict(enumerate(a.row(i))) for i in range(a.rows)]
    elif cols is None:
        raise TypeError("sparse rows need a column count")
    orders = _split_sparse(a)
    return FgAbelian.from_counts(cols - len(orders), Counter(orders))


def _split_sparse(rows: Iterable[Mapping[int, int]]) -> list[int]:
    """Sparse Euclidean elimination (after Havas, Holt, Rees, Linear Algebra
    Appl. 192, 1993) to the last row: the orders of the cyclic summands
    split off, one per column.  The row whose smallest |entry| has the
    fewest bits (the shorter on ties) pivots on an entry of that size, in
    the column the fewest rows hold (the smaller entry on ties).  Row
    operations reduce that column to nearest remainders; once no other row
    holds it, column operations, touching the pivot row alone, reduce the
    row.  A row left as the pivot alone splits off Z/|pivot| with its
    column, so a +-1 pivot does at once; otherwise a remainder, a bit
    shorter at least, pivots next.  A repeated or negated row reduces to
    zero against its twin.  No dense core is handed on."""
    table = [{j: x for j, x in r.items() if x} for r in rows]
    keys = {i: _pivot_key(row, i) for i, row in enumerate(table) if row}  # of the live rows
    holders: dict[int, set[int]] = {}  # column not split off -> live rows with an entry there
    for i in keys:
        for j in table[i]:
            holders.setdefault(j, set()).add(i)
    heap = list(keys.values())  # later also stale keys, skipped when popped
    heapq.heapify(heap)
    orders = []
    while heap:
        key = heapq.heappop(heap)
        b, _, p = key
        if keys.get(p) != key:
            continue
        prow = table[p]
        j = min((k for k, x in prow.items() if abs(x).bit_length() == b),
                key=lambda k: (len(holders[k]), abs(prow[k]), k))
        x = prow[j]
        for i in [i for i in holders[j] if i != p]:
            row = table[i]
            q = (2 * row[j] + x) // (2 * x)  # nonzero: row[j] has b bits at least
            for k, y in prow.items():
                if (z := row.get(k)) is None:
                    row[k] = -q * y
                    holders[k].add(i)
                elif z := z - q * y:
                    row[k] = z
                else:
                    del row[k]
                    holders[k].discard(i)
            if row:
                keys[i] = _pivot_key(row, i)
                heapq.heappush(heap, keys[i])
            else:
                del keys[i]
        if len(holders[j]) == 1:
            for k in [k for k in prow if k != j]:
                if z := prow[k] - (2 * prow[k] + x) // (2 * x) * x:
                    prow[k] = z
                else:
                    del prow[k]
                    holders[k].discard(p)
            if len(prow) == 1:
                orders.append(abs(x))
                del keys[p], holders[j]
                continue
        keys[p] = _pivot_key(prow, p)
        heapq.heappush(heap, keys[p])
    return orders


def _pivot_key(row: Mapping[int, int], i: int) -> tuple[int, int, int]:
    return min(map(abs, row.values())).bit_length(), len(row), i


def abelianization(p: "Presentation") -> FgAbelian:
    """Cokernel of the relator exponent matrix, its rows from `relator_rows`."""
    return cokernel(relator_rows(p), len(p.generators))


def relator_rows(p: "Presentation") -> list[dict[int, int]]:
    """The relator words' exponent sums as sparse rows, in relator order.
    A relator object that repeats gives one row: a repeated generator
    leaves a lattice unchanged.  Zero rows, such as those of commutators,
    are dropped as they are built: `_split_sparse` drops them too, but
    more slowly, and they are 681 of the 775 rows of `witness
    Z^30+Z/2+Z/4`."""
    rows = []
    for r in {id(r): r for r in p.relators}.values():
        row: dict[int, int] = {}
        for i, s in r.letters:
            row[i] = row.get(i, 0) + s
        if any(row.values()):
            rows.append(row)
    return rows


def relator_matrix(p: "Presentation") -> IntMatrix:
    """Rows are relator exponent vectors, columns follow generator order."""
    return IntMatrix.from_rows(
        [list(exponent_vector(r)) for r in p.relators], cols=len(p.generators)
    )


def primary_decomposition(g: FgAbelian) -> dict[int, tuple[int, ...]]:
    """Torsion as prime -> descending prime-power exponents.

    The one function that factors integers (by trial division); no
    normalisation, homology or epimorphism test goes through it.
    """
    out: dict[int, list[int]] = {}
    for d in g.torsion:
        for p, e in _factorize(d).items():
            out.setdefault(p, []).append(e)
    return {p: tuple(sorted(es, reverse=True)) for p, es in sorted(out.items())}


def exists_epimorphism(a: FgAbelian, b: FgAbelian) -> bool:
    """Whether some surjective homomorphism a -> b exists.

    Criterion: rank(a) >= rank(b), and for every prime p and every k >= 1
    the count rank(a) + #{exponents of a at p that are >= k} dominates the
    same count for b; it is applied to each element of a shared coprime
    base in place of each prime.  Validated against exhaustive
    homomorphism enumeration in the acceptance suite.
    """
    if a.free_rank < b.free_rank:
        return False
    if not b.torsion:
        return True
    if not a.torsion:
        # Z^n maps onto b exactly when b needs at most n generators.
        return a.free_rank >= b.free_rank + len(b.torsion)
    for exps_a, exps_b in _shared_base_exponents(a, b):
        if not exps_b:
            continue
        top = max(exps_b)
        # rank(a) - rank(b) + #{a >= k} - #{b >= k}, for k = top down to 1
        balance = a.free_rank - b.free_rank + sum(m for e, m in exps_a.items() if e > top)
        for k in range(top, 0, -1):
            balance += exps_a.get(k, 0) - exps_b.get(k, 0)
            if balance < 0:
                return False
    return True


def induced_matrix(f: "GroupHom") -> IntMatrix:
    """Abelianized homomorphism: entry (i, j) counts target generator i in
    the image of source generator j."""
    columns = [exponent_vector(w) for w in f.images]
    rows = len(f.target.generators)
    return IntMatrix(rows, len(columns), tuple(c[i] for i in range(rows) for c in columns))


def in_row_lattice(vector: Sequence[int], rows_matrix: IntMatrix) -> bool:
    """Whether `vector` is an integer combination of the matrix rows.

    Adding `vector` as a row maps the cokernel onto a quotient of itself.
    Finitely generated abelian groups are Hopfian (a surjective
    endomorphism is an isomorphism), so the two cokernels are equal
    exactly when the map is injective, that is when `vector` already lies
    in the row lattice.
    """
    if len(vector) != rows_matrix.cols:
        raise DimensionMismatch(
            f"vector of length {len(vector)} against width {rows_matrix.cols}"
        )
    extended = IntMatrix.from_rows(rows_matrix.to_rows() + [list(vector)], cols=rows_matrix.cols)
    return cokernel(extended) == cokernel(rows_matrix)
