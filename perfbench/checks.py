"""Independent checks of each op's output, run outside the timed loop.

None of these call into `aspherical` except `tests/oracles.py`, whose
chain-complex homology is a separate path from the Kunneth code it
checks.  Text output is parsed here with its own small parser.

* classify: the rank rule (aspherical iff Z^2 or free rank >= 4) and
  the realizable dimensions.
* homology: H_k(Z^m) = Z^C(m,k); with torsion, a counted Kunneth fold
  over prime-power multiplicities, and `tests/oracles.py` on the small
  cases.
* witness, fibration, fibersum: invariant factors of the printed
  presentation's relator matrix, computed with sympy.
* snf: U * A * V = D exactly, D diagonal in divisor-chain form, and the
  diagonal confirmed independently: |det A| = prod(D) for square input
  (which with U * A * V = D makes U and V unimodular), sympy's invariant
  factors otherwise.

`check(op, argv, stdout)` returns None when the output passes, or a
one-line reason.
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter
from functools import cache
from operator import mul
from pathlib import Path

from workloads import is_prime

ROOT = Path(__file__).resolve().parent.parent

_KEY_LINE = re.compile(r"([A-Za-z_][A-Za-z0-9_^]*):(?: (.*))?")
_GRADED_LINE = re.compile(r"H_(\d+) = (.*)")


def parse_report(text: str) -> dict[str, str]:
    """Key/value text output.  A bare `key:` line opens a block (matrix
    rows or presentation lines, neither of which looks like a key line)
    that runs until the next key line."""
    out: dict[str, str] = {}
    block: list[str] | None = None
    for line in text.splitlines():
        graded = _GRADED_LINE.fullmatch(line)
        keyed = _KEY_LINE.fullmatch(line)
        if graded:
            out[f"H_{graded.group(1)}"] = graded.group(2)
            block = None
        elif keyed:
            key, value = keyed.groups()
            block = None if value else []
            out[key] = value if value else block  # type: ignore[assignment]
        elif block is not None:
            block.append(line)
        else:
            raise ValueError(f"unparsed line {line[:60]!r}")
    return {k: "\n".join(v) if isinstance(v, list) else v for k, v in out.items()}


# --- abelian groups ------------------------------------------------------------


def render_group(free_rank: int, torsion: list[int]) -> str:
    parts = []
    if free_rank == 1:
        parts.append("Z")
    elif free_rank:
        parts.append(f"Z^{free_rank}")
    parts.extend(f"Z/{d}" for d in torsion)
    return " + ".join(parts) if parts else "0"


def factor_with(n: int, known: set[int]) -> dict[int, int]:
    """Factor n over the known primes; a leftover cofactor must be prime."""
    out: dict[int, int] = {}
    for p in sorted(known):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        if not is_prime(n):
            raise ValueError(f"unexpected composite cofactor {n}")
        out[n] = out.get(n, 0) + 1
    return out


def invariant_render(free_rank: int, torsion_counts: Counter, known: set[int]) -> str:
    """Render Z^free plus the multiset of cyclic orders in invariant-factor
    form, working on multiplicities so millions of summands stay cheap."""
    per_prime: dict[int, Counter] = {}
    for order, count in torsion_counts.items():
        for p, e in factor_with(order, known).items():
            per_prime.setdefault(p, Counter())[e] += count
    length = max((sum(c.values()) for c in per_prime.values()), default=0)
    # runs[p] = exponents in descending order, run-length encoded
    runs = {p: sorted(c.items(), reverse=True) for p, c in per_prime.items()}
    chain: list[tuple[int, int]] = []  # (invariant factor, multiplicity), largest first
    pos = {p: (0, 0) for p in runs}  # (run index, used within run)
    done = 0
    while done < length:
        step = length - done
        for p, r in runs.items():
            i, used = pos[p]
            if i < len(r):
                step = min(step, r[i][1] - used)
        d = 1
        for p, r in runs.items():
            i, used = pos[p]
            if i < len(r):
                d *= p ** r[i][0]
                used += step
                pos[p] = (i + 1, 0) if used == r[i][1] else (i, used)
        chain.append((d, step))
        done += step
    torsion = [d for d, c in reversed(chain) for _ in range(c)]
    return render_group(free_rank, torsion)


def counted_homology(free_rank: int, chain: tuple[int, ...], k: int) -> list[tuple[int, Counter]]:
    """H_0..H_k of Z^free + sum Z/d as (free rank, Counter of cyclic orders),
    by the Kunneth formula folded over the cyclic factors."""
    acc: list[Counter] = [Counter({0: 1})] + [Counter() for _ in range(k)]
    for n in (0,) * free_rank + tuple(chain):
        block = [Counter({0: 1})] + [
            Counter({n: 1}) if (n == 0 and j == 1) or (n and j % 2) else Counter()
            for j in range(1, k + 1)
        ]
        new: list[Counter] = [Counter() for _ in range(k + 1)]
        for i in range(k + 1):
            for j in range(k + 1 - i):
                for x, cx in acc[i].items():
                    for y, cy in block[j].items():
                        new[i + j][x if y == 0 else y if x == 0 else math.gcd(x, y)] += cx * cy
                        if x and y and i + j + 1 <= k:
                            new[i + j + 1][math.gcd(x, y)] += cx * cy
        for c in new:
            c.pop(1, None)
        acc = new
    out = []
    for c in acc:
        free = c.pop(0, 0)
        out.append((free, c))
    return out


def _known_primes(chain: tuple[int, ...], semis: tuple[tuple[int, int], ...]) -> set[int]:
    known = {p for pair in semis for p in pair} | {2, 3, 5}
    return {p for p in known if any(d % p == 0 for d in chain)}


@cache
def _oracle():
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    return oracles.oracle_group_homology


def _check_classify(report, free_rank, chain, semis):
    known = _known_primes(chain, semis)
    group = invariant_render(free_rank, Counter(chain), known)
    if report.get("group") != group:
        return f"group {report.get('group')!r}, expected {group!r}"
    aspherical = (free_rank == 2 and not chain) or free_rank >= 4
    if report.get("aspherical") != ("true" if aspherical else "false"):
        return f"aspherical {report.get('aspherical')!r} breaks the rank rule"
    dims = [2] if free_rank == 2 and not chain else list(range(4, free_rank + 1, 2))
    expected_dims = "; ".join(map(str, dims)) if dims else "-"
    if report.get("realizable_dims") != expected_dims:
        return f"realizable_dims {report.get('realizable_dims')!r}, expected {expected_dims!r}"
    return None


def _check_homology(report, free_rank, chain, semis, k):
    known = _known_primes(chain, semis)
    if not chain:
        expected = [render_group(math.comb(free_rank, j), []) for j in range(k + 1)]
    else:
        expected = [invariant_render(f, t, known) for f, t in counted_homology(free_rank, chain, k)]
    for j in range(k + 1):
        if report.get(f"H_{j}") != expected[j]:
            return f"H_{j} differs from the counted Kunneth fold"
        if report.get(f"dim_R_H^{j}") != str(math.comb(free_rank, j)):
            return f"dim_R_H^{j} is not C({free_rank},{j})"
    if chain and free_rank + len(chain) <= 4 and k <= 4 and max(chain) <= 10_000:
        oracle = _oracle()(list((0,) * free_rank + chain), k).render()
        if oracle != expected[k]:
            return f"H_{k} differs from the chain-complex oracle ({oracle[:40]!r})"
    if report.get("contains_factor_homology_sum") != "true":
        return "factor homology sum is not reported as a summand"
    return None


# --- presentations -------------------------------------------------------------


def presentation_abelianization(block: str) -> str:
    """Parse `group/gens/rel` text (rendered words: `x` or `x^n` tokens)
    and return the cokernel of its relator exponent matrix via sympy."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    gens: list[str] = []
    rows: set[tuple[int, ...]] = set()
    for line in block.splitlines():
        key, _, rest = line.partition(" ")
        if key == "gens":
            gens = rest.split()
            index = {g: i for i, g in enumerate(gens)}
        elif key == "rel":
            vec = [0] * len(gens)
            if rest != "1":
                for tok in rest.split():
                    name, _, power = tok.partition("^")
                    vec[index[name]] += int(power) if power else 1
            if any(vec):
                rows.add(tuple(vec))
    if not rows:
        return render_group(len(gens), [])
    matrix = DomainMatrix([list(r) for r in sorted(rows)], (len(rows), len(gens)), ZZ)
    factors = [abs(int(f)) for f in invariant_factors(matrix) if f]
    return render_group(len(gens) - len(factors), sorted(f for f in factors if f > 1))


def _check_witness(report, free_rank, chain):
    if not ((free_rank == 2 and not chain) or free_rank >= 4):
        return None if report.get("aspherical") == "false" else "non-aspherical group got a witness"
    group = render_group(free_rank, list(chain))
    if report.get("abelianization") != group or report.get("abelianization_check") != "PASS":
        return f"reported abelianization {report.get('abelianization')!r}, expected {group!r}"
    actual = presentation_abelianization(report["presentation"])
    if actual != group:
        return f"presentation abelianizes to {actual!r} (sympy), expected {group!r}"
    return None


def _check_fibration(report, genus, twists):
    expected = {
        "fiber_genus": str(genus),
        "cycles": str(twists),
        "euler_characteristic": str(4 - 4 * genus + twists),
        # the chain relation is trivial in the mapping class group
        "homology_trivial": "true",
        # the chain classes span H_1 of the fiber
        "abelianization": "0",
    }
    for key, value in expected.items():
        if report.get(key) != value:
            return f"{key} {report.get(key)!r}, expected {value!r}"
    actual = presentation_abelianization(report["pi1_presentation"])
    return None if actual == "0" else f"pi1 presentation abelianizes to {actual!r} (sympy)"


def _check_fibersum(report, genus, base_genus):
    group = render_group(2 * base_genus, [])
    for key, value in (
        ("fiber_genus", str(genus)),
        ("base_genus", str(base_genus)),
        ("abelianization", group),
        ("expected_abelianization", group),
        ("abelianization_check", "PASS"),
    ):
        if report.get(key) != value:
            return f"{key} {report.get(key)!r}, expected {value!r}"
    actual = presentation_abelianization(report["presentation"])
    return None if actual == group else f"presentation abelianizes to {actual!r} (sympy)"


# --- Smith normal form ---------------------------------------------------------


def _matrix(text: str) -> list[list[int]]:
    return [[int(x) for x in line.split()] for line in text.splitlines() if line.strip()]


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _bareiss_det(a: list[list[int]]) -> int:
    m = [row[:] for row in a]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _check_snf(report, path):
    a = _matrix(Path(path).read_text())
    rows, cols = len(a), len(a[0])
    d, u, v = (_matrix(report[key]) for key in ("D", "U", "V"))
    if (report.get("rows"), report.get("cols")) != (str(rows), str(cols)):
        return "rows/cols do not match the input"
    if _matmul(_matmul(u, a), v) != d:
        return "U * A * V != D"
    diag = [d[i][i] for i in range(min(rows, cols))]
    off = any(d[i][j] for i in range(rows) for j in range(cols) if i != j)
    nonzero = [x for x in diag if x]
    if off or any(x < 0 for x in diag) or diag[: len(nonzero)] != nonzero:
        return "D is not diagonal with nonnegative entries and trailing zeros"
    if any(b % a for a, b in zip(nonzero, nonzero[1:])):
        return "D is not a divisor chain"
    if rows == cols:
        if abs(_bareiss_det(a)) != math.prod(diag):
            return "|det A| != prod(D): U or V is not unimodular"
    else:
        from sympy import ZZ
        from sympy.polys.matrices import DomainMatrix
        from sympy.polys.matrices.normalforms import invariant_factors

        expected = sorted(abs(int(f)) for f in invariant_factors(DomainMatrix(a, (rows, cols), ZZ)) if f)
        if nonzero != expected:
            return "diagonal of D differs from sympy's invariant factors"
    cokernel = render_group(cols - len(nonzero), [x for x in nonzero if x > 1])
    if report.get("cokernel") != cokernel:
        return f"cokernel {report.get('cokernel')!r}, expected {cokernel!r}"
    return None


_CHECKS = {
    "classify": _check_classify,
    "homology": _check_homology,
    "witness": _check_witness,
    "fibration": _check_fibration,
    "fibersum": _check_fibersum,
}


def check(op, argv: tuple[str, ...], stdout: str) -> str | None:
    try:
        report = parse_report(stdout)
        kind, *params = op.check
        if kind == "snf":
            return _check_snf(report, argv[-1])
        return _CHECKS[kind](report, *params)
    except (KeyError, ValueError, IndexError) as e:
        return f"unreadable output ({type(e).__name__}: {e})"
