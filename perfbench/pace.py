"""Timings scaled by an interleaved machine-speed reference.

On a small shared host the machine's speed drifts: on the 2-vCPU sandbox
this benchmark was tuned on, a fixed pure-Python loop took anywhere
from 15 to 22 ms within one minute, in CPU time as much as in wall time,
and the speed states last from seconds to minutes.  Raw timings of runs
made minutes apart then differ by more than any useful regression bound.

So the benchmark times a fixed reference computation, which uses none of
the program's code, right after every op and around every set-up launch,
and reports each timing scaled to the reference's nominal speed:

    scaled time = measured time * nominal chunk time / local chunk time

A change to the program moves the measured time and not the reference,
so it shows in full; a change in machine speed moves both and cancels.

A busy host slows interpreter-bound work and arithmetic on integers of
thousands of bits by different amounts, so there are two references.
`interpreted` (small-integer loops over list rows, dict inserts, string
building) is for workloads whose time goes to the interpreter:
`abelian_mix`, `presentation_mix` and set-up.  `mixed` adds products and
remainders of 4000-bit integers, for `snf_dense`, whose time goes to
big-integer arithmetic as much.  On that sandbox, over five seeds each,
`snf_dense`'s `batch_s` spread 0.077 of its median scaled by
`interpreted` and 0.026 by `mixed`; the other two workloads' timings
spread up to 0.03 by `interpreted` and up to 0.095 by `mixed`.
Nominal chunk times are about the chunks' median times on that sandbox,
so scaled times read as seconds on it at its usual speed.
"""

from __future__ import annotations

import random
import statistics
import time

# Calls per chunk, and seconds per chunk at nominal speed, by reference kind.
CHUNK_CALLS = {"interpreted": 10, "mixed": 5}
NOMINAL_CHUNK_S = {"interpreted": 0.0016, "mixed": 0.003}
# Each op's speed is the median of the reference chunks of this many ops
# on either side of it, in run order.
WINDOW = 8

_N = 10
_rng = random.Random("pace")
_MATRIX = [[_rng.randint(-9, 9) for _ in range(_N)] for _ in range(_N)]
_BIG_A = 7**1500  # 4212 bits
_BIG_B = 11**1300  # 4498 bits
_BIG_M = _BIG_A - 12345


def _interpreted() -> int:
    """Fraction-free elimination of a fixed 10x10 matrix, then a dict and
    a joined string; about 0.16 ms."""
    a = [row[:] for row in _MATRIX]
    prev = 1
    for k in range(_N - 1):
        if a[k][k] == 0:
            for r in range(k + 1, _N):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    break
            else:
                continue
        for i in range(k + 1, _N):
            for j in range(k + 1, _N):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k] or 1
    d = {}
    for i in range(300):
        d[(i, i % 7)] = str(i * 31)
    return len(" ".join(d.values())) + a[_N - 1][_N - 1] % 5


def _big_integers() -> int:
    """Products and remainders of 4000-bit integers; about 0.4 ms."""
    r = 0
    for _ in range(3):
        q, r = divmod(_BIG_A * _BIG_B, _BIG_M)
        r = (q * r) % _BIG_M
    return r


def chunk(kind: str) -> float:
    """Seconds taken by one reference chunk of `kind`."""
    big = kind == "mixed"
    t0 = time.perf_counter()
    for _ in range(CHUNK_CALLS[kind]):
        _interpreted()
        if big:
            _big_integers()
    return time.perf_counter() - t0


def speed(kind: str, chunks: list[float]) -> float:
    """Machine speed from reference chunks: 1.0 at nominal, 0.8 when a
    chunk takes 25% longer."""
    return NOMINAL_CHUNK_S[kind] / statistics.median(chunks)


def scale(kind: str, times: list[float], chunks: list[float]) -> list[float]:
    """Scale `times[i]` by the speed of the chunks around `chunks[i]`,
    where `chunks[i]` was timed right after `times[i]`."""
    out = []
    for i, t in enumerate(times):
        out.append(t * speed(kind, chunks[max(0, i - WINDOW) : i + WINDOW + 1]))
    return out
