"""Seeded op lists for the three benchmark workloads.

Each workload is a fixed ladder of rungs, run in ladder order.  The
seed picks the concrete numbers inside each rung (torsion orders, matrix
entries, word orientations) but never the rung's shape or place: free
ranks, the number of torsion factors, degrees, matrix sizes and genera
are fixed.  (A seeded op order moved peak RSS by 7% through allocation
patterns alone, so the order is fixed too.)
Torsion orders are drawn as divisor chains, so normalisation keeps every
factor and the Kunneth term counts do not depend on the seed.  That
keeps the cost of a batch nearly seed-independent, which is what lets
runs on different seeds be compared.

An op is a CLI argv plus the files it reads, plus the data its
independent check needs.  Files are named, not placed: `materialize`
writes them into a work directory before timing starts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("abelian_mix", "presentation_mix", "snf_dense")
# The machine-speed reference each workload's times are scaled by (pace.py).
REFERENCE = {"abelian_mix": "interpreted", "presentation_mix": "interpreted", "snf_dense": "mixed"}

EXIT_OK = 0
EXIT_VERDICT = 3


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  `argv` may name files as `@name`; `files`
    holds their text, and `derived` names files whose text is the
    `pi1_presentation` block printed by an earlier op (op index)."""

    label: str
    argv: tuple[str, ...]
    expect_exit: int
    check: tuple
    files: tuple[tuple[str, str], ...] = ()
    derived: tuple[tuple[str, int], ...] = ()


def build(workload: str, seed: int) -> list[Op]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return {
        "abelian_mix": _abelian_mix,
        "presentation_mix": _presentation_mix,
        "snf_dense": _snf_dense,
    }[workload](rng)


# --- abelian_mix -------------------------------------------------------------


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def _prime_in(rng: random.Random, lo: int, hi: int, avoid: int = 0) -> int:
    """A prime in [lo, hi) other than `avoid`.  For a semiprime factor,
    the program's trial division costs about p / 2 steps, so a range of
    [tier, 1.1 * tier) fixes that cost to within 10%."""
    while True:
        n = rng.randrange(lo, hi)
        if n != avoid and is_prime(n):
            return n


def _torsion_chain(rng: random.Random, kinds: str) -> tuple[list[int], list[tuple[int, int]]]:
    """A divisor chain d1 | d2 | ... with one entry per kind letter.

    `s` entries are powers of one seeded prime p in {2, 3, 5}, each
    exponent equal to or one above the last (so at most 5^4).  `m`
    multiplies the last entry by a prime that lands it in [1e3, 1e4].
    `3`/`4`/`5` multiply it by a semiprime whose two prime factors are
    near 1e3/1e4/1e5.  The set of primes per rung is fixed, so the
    program's primary decomposition does the same work on every seed.

    Returns the chain and, for each semiprime, its two prime factors.
    """
    chain: list[int] = []
    semiprimes: list[tuple[int, int]] = []
    p = rng.choice((2, 3, 5))
    prev = 1
    for kind in kinds:
        if kind == "s":
            d = p if prev == 1 else prev * rng.choice((1, p))
        elif kind == "m":
            d = prev * _prime_in(rng, -(-1000 // prev), 10_000 // prev)
        else:
            tier = 10 ** int(kind)
            a = _prime_in(rng, tier, tier + tier // 10)
            b = _prime_in(rng, tier, tier + tier // 10, avoid=a)
            semiprimes.append((a, b))
            d = prev * a * b
        chain.append(d)
        prev = d
    return chain, semiprimes


def _spec(rng: random.Random, free_rank: int, chain: list[int]) -> str:
    terms = [f"Z/{d}" for d in chain]
    if free_rank:
        terms.append("Z" if free_rank == 1 and rng.random() < 0.5 else f"Z^{free_rank}")
    rng.shuffle(terms)
    return "+".join(terms) if terms else "0"


# (free rank, torsion kinds); classify on every row.
_CLASSIFY_RUNGS = [
    (m, kinds)
    for m in (0, 1, 2, 3)
    for kinds in ("", "s", "ss", "sm", "ssss", "3", "s4", "5")
] + [
    (m, kinds)
    for m in (4, 5, 6, 7, 8, 10, 12, 14, 16, 18)
    for kinds in ("", "s", "ss", "sm", "ssss")
] + [(4, "3"), (5, "s3"), (4, "4"), (6, "3")]

# (free rank, torsion kinds, degree)
_HOMOLOGY_RUNGS = (
    [(m, "", k) for m in range(0, 19, 2) for k in (2, 5, 8)]
    + [(m, "", 8) for m in (15, 17)]
    + [(m, kinds, k) for m in (0, 1, 2, 3) for kinds in ("s", "ss", "sm") for k in (2, 4, 6, 8)]
    + [(m, "ssss", k) for m in (0, 1, 2, 3) for k in (2, 4)]
    + [(m, "ss", k) for m in (4, 6, 8) for k in (3, 6)]
    + [(3, "ssss", 8), (0, "ssss", 8), (6, "s", 8)]
    + [(m, kinds, k) for m in (0, 2, 4) for kinds in ("3", "s4") for k in (2, 3)]
    + [(0, "5", 3), (1, "5", 2)]
)


def _abelian_mix(rng: random.Random) -> list[Op]:
    ops = []
    for m, kinds in _CLASSIFY_RUNGS:
        chain, semis = _torsion_chain(rng, kinds)
        spec = _spec(rng, m, chain)
        aspherical = (m == 2 and not chain) or m >= 4
        ops.append(
            Op(
                f"classify Z^{m}+[{kinds}]",
                ("classify", spec),
                EXIT_OK if aspherical else EXIT_VERDICT,
                ("classify", m, tuple(chain), tuple(semis)),
            )
        )
    for m, kinds, k in _HOMOLOGY_RUNGS:
        chain, semis = _torsion_chain(rng, kinds)
        spec = _spec(rng, m, chain)
        ops.append(
            Op(
                f"homology Z^{m}+[{kinds}] {k}",
                ("homology", spec, str(k)),
                EXIT_OK,
                ("homology", m, tuple(chain), tuple(semis), k),
            )
        )
    return ops


# --- presentation_mix --------------------------------------------------------

# (free rank, number of small torsion factors); ranks 2 and 3 with
# torsion exit 3.  Five rungs at rank 20 cost about what the genus-6
# fibration does, so the 90th latency percentile (rank 6 of 56) falls
# inside that cluster rather than between two different ops.  Likewise
# seven rungs at rank 8 with one factor hold the median (ranks 27-33 of
# 56 by cost; the genus-3 fibration, 4% cheaper, sits just below them).
_WITNESS_RUNGS = [
    (2, 0), (2, 1), (3, 2), (4, 0), (5, 1), (6, 2), (7, 0), *[(8, 1)] * 7, (10, 2),
    (12, 0), (14, 1), (16, 2), (18, 0),
    (20, 0), (20, 1), (20, 2), (20, 1), (20, 0),
    (24, 1), (30, 2),
]
_FIBRATION_GENERA = (1, 2, 3, 4, 5, 6)
_BASE_GENERA = (1, 2, 3, 4)


def _chain_cycles(rng: random.Random, g: int) -> list[str]:
    """Words for the chain c_1, ..., c_{2g+1} on the genus-g fiber with
    classes b1, a1, b2 - b1, a2, ..., a_g, b_g: consecutive classes pair
    to +-1, all others to 0, and together they span H_1.  The seed picks
    each word's orientation, which leaves its Dehn twist unchanged."""
    words = ["b1"]
    for k in range(1, g + 1):
        words.append(f"a{k}")
        words.append(f"b{k}^-1 b{k + 1}" if k < g else f"b{g}")
    out = []
    for w in words:
        if rng.random() < 0.5:
            letters = w.split()
            w = " ".join(_invert_letter(x) for x in reversed(letters))
        out.append(w)
    return out


def _invert_letter(x: str) -> str:
    return x[: -len("^-1")] if x.endswith("^-1") else f"{x}^-1"


def _fibration_file(rng: random.Random, g: int) -> tuple[str, int]:
    """The chain relation (t_{c1} ... t_{c_{2g+1}})^{2g+2}, rotated by a
    seeded offset (a conjugate of the same relation)."""
    cycles = _chain_cycles(rng, g)
    shift = rng.randrange(len(cycles))
    cycles = cycles[shift:] + cycles[:shift]
    lines = [f"fibration chain relation genus {g}", f"fiber_genus {g}"]
    for _ in range(2 * g + 2):
        lines.extend(f"cycle + {w}" for w in cycles)
    return "\n".join(lines) + "\n", len(cycles) * (2 * g + 2)


def _presentation_mix(rng: random.Random) -> list[Op]:
    # Fibrations come first: each prints the presentation its fibersum
    # ops read.
    fibrations: list[Op] = []
    rest: list[Op] = []
    for g in _FIBRATION_GENERA:
        text, twists = _fibration_file(rng, g)
        fibrations.append(
            Op(
                f"fibration genus {g}",
                ("fibration", f"@fib{g}.txt"),
                EXIT_OK,
                ("fibration", g, twists),
                files=((f"fib{g}.txt", text),),
            )
        )
        for e in _BASE_GENERA:
            rest.append(
                Op(
                    f"fibersum genus {g} -e {e}",
                    ("fibersum", f"@pi1_{g}.txt", "-e", str(e)),
                    EXIT_OK,
                    ("fibersum", g, e),
                    derived=((f"pi1_{g}.txt", len(fibrations) - 1),),
                )
            )
    for m, count in _WITNESS_RUNGS:
        chain, _ = _torsion_chain(rng, "s" * count)
        ok = (m == 2 and not chain) or m >= 4
        rest.append(
            Op(
                f"witness Z^{m}+[{'s' * count}]",
                ("witness", _spec(rng, m, chain)),
                EXIT_OK if ok else EXIT_VERDICT,
                ("witness", m, tuple(chain)),
            )
        )
    return fibrations + rest


# --- snf_dense ---------------------------------------------------------------

# A percentile of the pooled latencies that falls between two different
# matrices is an extreme of one matrix's samples and swings with load,
# so the ladder puts the median and the 90th percentile inside clusters
# of equal-size matrices: 10 of 14x14 around rank 30 of 60, and 6 of
# 40x40 around rank 6.  The rest is a ladder from 4x4 to 45x45.
_SNF_SQUARE = (
    [4, 5, 6, 7, 8, 9] * 3 + [4, 5, 10, 11, 12]
    + [14] * 10
    + [16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38]
    + [40] * 6
    + [42, 45]
)
_SNF_RECT = [(6, 40), (40, 6), (12, 30), (30, 12), (20, 45), (45, 20)]
_SNF_TOP = (60, 60)


def _matrix_text(rng: random.Random, rows: int, cols: int) -> str:
    return "".join(
        " ".join(str(rng.randint(-9, 9)) for _ in range(cols)) + "\n" for _ in range(rows)
    )


def _snf_dense(rng: random.Random) -> list[Op]:
    # The 60x60 top rung goes last: at the seed commit it exits 2 once
    # its U/V entries pass Python's 4300-digit string limit, and it is
    # kept and counted as a failure rather than dropped.  Its matrix is
    # the same for every seed: it alone is about a third of a batch, and
    # its cost ranged from 1.4 to 1.9 s over the random matrices of six
    # seeds (on a 2-vCPU sandbox).
    shapes = [(n, n) for n in _SNF_SQUARE] + _SNF_RECT + [_SNF_TOP]
    top_rng = random.Random("snf_dense:top")
    ops = []
    for k, (r, c) in enumerate(shapes):
        name = f"m{k}_{r}x{c}.txt"
        text = _matrix_text(top_rng if (r, c) == _SNF_TOP else rng, r, c)
        ops.append(
            Op(
                f"snf {r}x{c}",
                ("snf", f"@{name}"),
                EXIT_OK,
                ("snf", name),
                files=((name, text),),
            )
        )
    return ops
