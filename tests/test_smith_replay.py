"""The Smith form whose U and V are replayed backward, against the
reference that carries them forward through every operation, and the
cokernel that carries no transforms, against the dense reference and
sympy.

Both references live in `tests/oracles.py`.  D, U and V must agree
entry for entry: the `snf` report prints them, and the pinned pivot rule
makes them part of its output.  The seeded sweep whose clearing runs
cancel lives in `tests/smith_differential.py`, which also runs without
pytest.

Above `zlinalg._FORK_WORK`, V is replayed in a forked child while the
parent replays U; only the child is pinned, off the CPU its caller
runs on.  The cases below run both schedules, with the cutoff forced to
0 for the forked one, and check the fallbacks: a failing child, no
`os.fork`, a caller's CPU that cannot be read, and a parent that raises
after the fork.  No case may leave a child behind or change the
caller's CPU affinity.
"""

import hashlib
import io
import marshal
import os
import random
import signal
import threading
import time

import pytest

from oracles import (
    reference_cokernel,
    reference_smith_normal_form,
    sparse_rows,
    sympy_cokernel,
)
from smith_differential import check_against_reference
from aspherical import zlinalg
from aspherical.zlinalg import IntMatrix, _eliminate, cokernel, smith_normal_form


def _random_rows(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _shapes(seed):
    """(name, matrix) pairs covering the shapes the loop and the replay
    must handle: empty sides, zero rows and columns, repeated rows, rank
    deficiency, both rectangular orientations, huge entries and dense
    squares up to 30 x 30."""
    rng = random.Random(seed)
    for n in range(5):
        yield f"0x{n}", IntMatrix.from_rows([], cols=n)
        yield f"{n}x0", IntMatrix.from_rows([[]] * n, cols=0)
    yield "zero 3x4", IntMatrix.from_rows([[0] * 4] * 3, cols=4)
    for _ in range(12):
        r, c = rng.randrange(1, 9), rng.randrange(1, 9)
        rows = _random_rows(rng, r, c)
        for i in rng.sample(range(r), rng.randrange(r)):
            rows[i] = [0] * c
        for j in rng.sample(range(c), rng.randrange(c)):
            for row in rows:
                row[j] = 0
        yield f"zero rows and columns {r}x{c}", IntMatrix.from_rows(rows, cols=c)
    for _ in range(8):
        r, c = rng.randrange(1, 7), rng.randrange(1, 9)
        rows = _random_rows(rng, r, c)
        rows += [list(rng.choice(rows)) for _ in range(rng.randrange(1, 5))]
        rng.shuffle(rows)
        yield f"repeated rows {len(rows)}x{c}", IntMatrix.from_rows(rows, cols=c)
    for _ in range(8):
        n, rank = rng.randrange(3, 12), rng.randrange(1, 3)
        basis = _random_rows(rng, rank, n)
        rows = [
            [sum(rng.randint(-3, 3) * b[j] for b in basis) for j in range(n)]
            for _ in range(n)
        ]
        yield f"rank <= {rank} {n}x{n}", IntMatrix.from_rows(rows, cols=n)
    for r, c in ((2, 9), (9, 2), (5, 17), (17, 5), (12, 30), (30, 12)):
        yield f"rectangle {r}x{c}", IntMatrix.from_rows(_random_rows(rng, r, c), cols=c)
    for n in (2, 3, 5, 7):
        big = 10**30
        yield f"entries up to 1e30 {n}x{n}", IntMatrix.from_rows(
            _random_rows(rng, n, n, -big, big), cols=n
        )
    for n in (1, 4, 8, 14, 20, 25, 30):
        yield f"dense {n}x{n}", IntMatrix.from_rows(_random_rows(rng, n, n), cols=n)


_CASES = list(_shapes(4501))
_DENSE_40 = IntMatrix.from_rows(_random_rows(random.Random(4510), 40, 40), cols=40)
# Where this fails, every replay is serial and the fork cases below skip.
_CAN_FORK = (
    hasattr(os, "fork")
    and hasattr(os, "sched_setaffinity")
    and len(os.sched_getaffinity(0)) > 1
)
needs_fork = pytest.mark.skipif(not _CAN_FORK, reason="no fork, or one CPU allowed")


@pytest.fixture(autouse=True)
def no_child_left():
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if cpus is not None:  # only the forked child pins itself
        assert os.sched_getaffinity(0) == cpus


@pytest.fixture
def forks(monkeypatch):
    """Count the calls of `os.fork`."""
    calls, fork = [], os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.mark.parametrize("a", [a for _, a in _CASES], ids=[name for name, _ in _CASES])
def test_smith_form_matches_the_forward_reference_exactly(a):
    got = smith_normal_form(a)
    expected = reference_smith_normal_form(a)
    assert got.d == expected.d
    assert got.u == expected.u
    assert got.v == expected.v


@pytest.mark.parametrize("a", [a for _, a in _CASES], ids=[name for name, _ in _CASES])
def test_forked_replay_matches_the_forward_reference_exactly(a, monkeypatch):
    monkeypatch.setattr(zlinalg, "_FORK_WORK", 0)
    got, expected = smith_normal_form(a), reference_smith_normal_form(a)
    assert (got.d, got.u, got.v) == (expected.d, expected.u, expected.v)


def test_replayed_transforms_match_the_reference_where_runs_cancel():
    # A run of clearing steps whose quotients sum to zero must leave no
    # operation in the log; 11 runs of the sweep cancel.  No sweep matrix
    # forks at the package's cutoff; at 0, the 268 whose two replays both
    # do work do.
    assert check_against_reference() == (300, 0)
    assert check_against_reference(0) == (300, 268 if _CAN_FORK else 0)


def test_dense_40x40_matches_the_forward_reference():
    got, expected = smith_normal_form(_DENSE_40), reference_smith_normal_form(_DENSE_40)
    assert (got.d, got.u, got.v) == (expected.d, expected.u, expected.v)


@needs_fork
def test_only_large_replays_fork(forks):
    # The benchmark's op_p50 rung, 14 x 14, stays serial; dense 40 x 40 forks.
    smith_normal_form(IntMatrix.from_rows(_random_rows(random.Random(4511), 14, 14), cols=14))
    assert len(forks) == 0
    smith_normal_form(_DENSE_40)
    assert len(forks) == 1


@needs_fork
def test_the_caller_never_sets_its_cpu_affinity(forks, monkeypatch):
    # The child pins itself off its caller's CPU; a call it makes lands in
    # its own copy of `calls`, so every recorded call is the caller's.
    calls, set_affinity = [], os.sched_setaffinity

    def recorded(pid, mask):
        calls.append(mask)
        set_affinity(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", recorded)
    got, expected = smith_normal_form(_DENSE_40), reference_smith_normal_form(_DENSE_40)
    assert (got.d, got.u, got.v) == (expected.d, expected.u, expected.v)
    assert len(forks) == 1
    monkeypatch.setattr(zlinalg, "_FORK_WORK", 0)
    for _, a in _CASES:  # 36 of the 56 do work in both replays, so fork
        smith_normal_form(a)
    assert len(forks) == 1 + 36 and calls == []


def _proc_stat(content):
    """An `open` for `zlinalg` under which /proc/self/stat raises, or reads
    as `content`; other files open as usual."""
    def fake_open(path, *args, **kwargs):
        if path != "/proc/self/stat":
            return open(path, *args, **kwargs)
        if content is None:
            raise PermissionError(path)
        return io.BytesIO(content)

    return fake_open


@needs_fork
@pytest.mark.parametrize(
    "content",
    [None, b"", b"12 (a) b) R 1 2", b"12 (a) b) " + b"x " * 40],
    ids=["unreadable", "empty", "too few fields", "not a number"],
)
def test_without_the_callers_cpu_the_replay_is_serial(content, forks, monkeypatch):
    monkeypatch.setattr(zlinalg, "open", _proc_stat(content), raising=False)
    got, expected = smith_normal_form(_DENSE_40), reference_smith_normal_form(_DENSE_40)
    assert (got.d, got.u, got.v) == (expected.d, expected.u, expected.v)
    assert len(forks) == 0


@needs_fork
def test_the_callers_cpu_is_read_past_the_process_name(forks, monkeypatch):
    # A process name may hold spaces and ")", so field 39 is counted from
    # the last ")".  No other field here is a number: a miscount would
    # leave the replay serial.
    cpu = str(min(os.sched_getaffinity(0))).encode()
    fields = [b"R"] + [b"x"] * 35 + [cpu] + [b"x"] * 13
    content = b"12 (a b) c) " + b" ".join(fields) + b"\n"
    monkeypatch.setattr(zlinalg, "open", _proc_stat(content), raising=False)
    got, expected = smith_normal_form(_DENSE_40), reference_smith_normal_form(_DENSE_40)
    assert (got.d, got.u, got.v) == (expected.d, expected.u, expected.v)
    assert len(forks) == 1


@needs_fork
def test_failing_child_falls_back_to_the_serial_replay(forks, monkeypatch):
    # The child writes V with `marshal.dump`; the parent only reads.
    expected = smith_normal_form(_DENSE_40)

    def fail(*args):
        raise OSError("no room")

    monkeypatch.setattr(marshal, "dump", fail)
    assert smith_normal_form(_DENSE_40) == expected
    assert len(forks) == 2


@needs_fork
def test_a_second_thread_keeps_the_replay_serial(forks):
    # Forking a threaded process can deadlock the child (and warns on 3.12+).
    expected, release = smith_normal_form(_DENSE_40), threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert smith_normal_form(_DENSE_40) == expected
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert len(forks) == 1


@needs_fork
def test_a_caller_that_ignores_sigchld_gets_the_forked_result(forks):
    # The kernel then reaps the child itself, and waitpid finds none.
    expected = smith_normal_form(_DENSE_40)
    saved = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert smith_normal_form(_DENSE_40) == expected
    finally:
        signal.signal(signal.SIGCHLD, saved)
    assert len(forks) == 2


def test_without_fork_the_replay_is_serial(monkeypatch):
    expected = smith_normal_form(_DENSE_40)
    monkeypatch.delattr(os, "fork")
    assert smith_normal_form(_DENSE_40) == expected


@needs_fork
def test_parent_that_raises_kills_and_reaps_the_child(forks, monkeypatch):
    # The child's replay sleeps far past the test, so a child that was not
    # killed would be reaped only after it, with exit status 0.
    parent, replay, statuses = os.getpid(), zlinalg._replay, []

    def replay_or_fail(n, logs):
        if os.getpid() == parent:
            raise MemoryError("parent fails")
        time.sleep(60)
        return replay(n, logs)

    def recorded_waitpid(pid, options):
        statuses.append(waitpid(pid, options)[1])
        return pid, statuses[-1]

    waitpid = os.waitpid
    monkeypatch.setattr(zlinalg, "_replay", replay_or_fail)
    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    started = time.monotonic()
    with pytest.raises(MemoryError):
        smith_normal_form(_DENSE_40)
    assert len(forks) == 1 and len(statuses) == 1
    assert os.WIFSIGNALED(statuses[0]) and time.monotonic() - started < 30


def _hex_digest(m: IntMatrix) -> str:
    # Hex text has no int-to-str digit limit; U and V here reach about 17k bits.
    return hashlib.sha256(" ".join(format(x, "x") for x in m.entries).encode()).hexdigest()


def test_benchmark_top_matrix_is_pinned():
    """The `snf_dense` benchmark's fixed 60 x 60 matrix (built as in
    `perfbench/workloads.py`).  The digests of D, U and V were recorded
    from the loop that logged every clearing step on its own, 32,455
    operations in all; summed per line and run, the log holds 22,701."""
    a = IntMatrix.from_rows(_random_rows(random.Random("snf_dense:top"), 60, 60), cols=60)
    s = smith_normal_form(a)
    assert _hex_digest(s.d) == "10c3f0a027ec7b028c5b11b5b807b019d9133f73ee0659bae32f107bfd6d0689"
    assert _hex_digest(s.u) == "73265a8d8bebf4475aa81d4e1a3121430e236413c914f6f7042c559ec17977cc"
    assert _hex_digest(s.v) == "1e2d2099715e2e1b81bc7c2a7a0302f44b1fb421a07161329779ae7472643581"
    steps = _eliminate(a.to_rows(), 60, 60)
    assert sum(len(r) + len(c) for r, c in steps) // 3 == 22701


def test_transform_free_cokernel_matches_the_dense_reference():
    for name, a in _CASES:
        expected = reference_cokernel(a)
        assert cokernel(a) == expected, name
        assert cokernel(sparse_rows(a), a.cols) == expected, name


def test_transform_free_cokernel_matches_sympy():
    # sympy's time on a dense 40 x 40 matrix ranged from 0.5 to 5 s over
    # four seeds, so the full square is rank-deficient: 30 random rows
    # and 10 sums of two of them.
    rng = random.Random(4502)
    extra = [
        (f"dense {r}x{c}", IntMatrix.from_rows(_random_rows(rng, r, c), cols=c))
        for r, c in ((24, 40), (40, 24))
    ]
    rows = _random_rows(rng, 30, 40)
    rows += [[x + y for x, y in zip(*rng.sample(rows[:30], 2))] for _ in range(10)]
    extra.append(("rank 30 40x40", IntMatrix.from_rows(rows, cols=40)))
    for name, a in _CASES + extra:
        assert cokernel(a) == sympy_cokernel(a), name
