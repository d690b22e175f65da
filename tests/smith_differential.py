"""The Smith form whose U and V are replayed from `zlinalg._eliminate`'s
log, against `oracles.reference_smith_normal_form`, which carries them
forward through every operation, on a seeded sweep of small matrices.

The log holds one summed operation per line and run of clearing steps,
and a run whose quotients sum to zero is left out of it (logged, it
would read as a swap).  Small entries make such cancelled runs common:
the sweep holds 300 matrices of up to 12 x 12 with entries in [-3, 3],
and 11 runs in it cancel.  D, U and V must agree entry for entry.

The sweep runs under both schedules of the two replays: first at the
package's cutoff, where every sweep matrix is too small to fork, then
with the cutoff forced to 0, where V is replayed in a forked child for
every matrix whose two replays both do some work.  Each pass also checks
that the process never calls `os.sched_setaffinity` and that its CPU
affinity mask is the same afterwards: only the child pins itself, off
its caller's CPU.  A third pass forces
the cutoff to 0 while a second thread is alive: the one-thread guard
must keep every replay serial, and warnings are recorded there, since
Python 3.12+ warns (DeprecationWarning) when a threaded process forks
but drops that warning silently under `-W error`.

Standard library only, so that it also runs on interpreters without
pytest:

    PYTHONPATH=src python tests/smith_differential.py
"""

import os
import random
import sys
import threading
import warnings

from oracles import reference_smith_normal_form
from aspherical import zlinalg
from aspherical.zlinalg import IntMatrix, smith_normal_form


def cancellation_sweep(seed: int = 4503, count: int = 300):
    """(name, matrix) pairs: random shapes up to 12 x 12, entries in [-3, 3]."""
    rng = random.Random(seed)
    for n in range(count):
        r, c = rng.randrange(1, 13), rng.randrange(1, 13)
        rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        yield f"sweep {n} {r}x{c}", IntMatrix.from_rows(rows, cols=c)


def check_against_reference(fork_work: int | None = None) -> tuple[int, int]:
    """Compare every matrix of the sweep, with V's replay forked above
    `fork_work` (the package's `_FORK_WORK` if None); return how many
    matrices were checked and how many of them forked.  Where the
    platform has CPU affinity, the process must never set its own, and
    its mask must come out unchanged: only a forked child pins itself
    (its calls land in its own copy of `pinned`)."""
    saved, fork = zlinalg._FORK_WORK, os.fork
    set_affinity = getattr(os, "sched_setaffinity", None)
    mask = os.sched_getaffinity(0) if set_affinity else None
    checked = forks = 0
    pinned = []

    def counted_fork():
        nonlocal forks
        forks += 1
        return fork()

    def recorded_affinity(pid, cpus):
        pinned.append(cpus)
        set_affinity(pid, cpus)

    if fork_work is not None:
        zlinalg._FORK_WORK = fork_work
    os.fork = counted_fork
    if set_affinity:
        os.sched_setaffinity = recorded_affinity
    try:
        for name, a in cancellation_sweep():
            got, expected = smith_normal_form(a), reference_smith_normal_form(a)
            assert (got.d, got.u, got.v) == (expected.d, expected.u, expected.v), name
            checked += 1
    finally:
        zlinalg._FORK_WORK, os.fork = saved, fork
        if set_affinity:
            os.sched_setaffinity = set_affinity
    assert not pinned, f"the process set its own CPU affinity {len(pinned)} times"
    assert mask is None or os.sched_getaffinity(0) == mask, "the process's CPU affinity changed"
    return checked, forks


def check_with_a_second_thread() -> tuple[int, int, list]:
    """The sweep at cutoff 0 while another thread waits: the counts of
    `check_against_reference` and the warnings raised meanwhile."""
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            checked, forks = check_against_reference(0)
    finally:
        release.set()
        other.join()
    return checked, forks, caught


if __name__ == "__main__":
    version = sys.version.split()[0]
    for label, fork_work in (("serial", None), ("cutoff forced to 0", 0)):
        checked, forks = check_against_reference(fork_work)
        print(f"Python {version}, {label}: {checked} matrices, "
              f"{forks} forked, D, U and V equal to the forward reference, "
              "the process's CPU affinity never set")
    checked, forks, caught = check_with_a_second_thread()
    assert forks == 0 and not caught, f"{forks} forked, first warning: {caught[:1]}"
    print(f"Python {version}, cutoff forced to 0 with a second thread: {checked} "
          "matrices, 0 forked, no warning")
