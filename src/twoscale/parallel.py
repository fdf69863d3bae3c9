"""Forked shards: one process per usable CPU over shared memory.

A run that splits its work into shards steps shard 0 in this process and
each other shard in a forked child. Results go into arrays of one shared
anonymous mapping (``shared_zeros``), of which every shard writes only its
own rows, so the shard count changes no bit. A shard is a generator that
yields a failure rank before each piece of work; ``run_shards`` drives the
generators, waits for every child and raises the failure a one-shard run
meets first. With ``lockstep`` the shards also meet at a pipe barrier at
every yield, so a shard may read rows that the others wrote before it.
"""
from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import select
import signal
import time

import numpy as np

from .errors import InternalError

__all__ = [
    "BLOCK_VALUES",
    "usable_cpus",
    "split",
    "shared_zeros",
    "run_shards",
]

#: Size of one stack of paths, in float64 values. 16,384 values (128 kB)
#: keep a ladder block's stacks and temporaries in a 2 MiB L2 cache; the 1D
#: reference ladder (8 members, 1023 dof) gets 2 replicas per block. An
#: ensemble is split into shards only when each gets at least this many.
BLOCK_VALUES = 16_384

#: How long a pinned lockstep shard polls at a barrier before it sleeps.
SPIN_SECONDS = 0.002


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split(items, count: int) -> list[list]:
    """``count`` contiguous runs of ``items``, as even as they split."""
    return [[items[i] for i in part]
            for part in np.array_split(np.arange(len(items)), count)]


def shared_zeros(shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Zeroed float64 arrays in one anonymous shared mapping.

    A forked child's writes to these arrays are seen by the parent and by
    its siblings, so a shard hands back its results without pipes or
    pickles.
    """
    sizes = [int(np.prod(shape)) for shape in shapes]
    flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=np.float64)
    ends = np.cumsum(sizes)
    return [flat[end - size:end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, ends)]


def run_shards(run_shard, shards: list, name,
               lockstep: bool = False) -> None:
    """Run ``run_shard`` on every shard, shards 1 and up in forked children.

    ``run_shard(shard)`` is a generator that yields the rank of each piece
    of work before it does it (a tuple, step first), and writes its results
    into shared memory. Shard 0 runs here. Every child is waited for, also
    when shard 0 fails. Of all failures, the one of the lowest rank is
    raised: the one a one-shard run meets first (the lowest shard on ties).
    A failure before the first yield ranks as step 0, and a child that
    ended without a report raises :class:`InternalError`, naming the shard
    by ``name(shard)``, before any of them.

    With ``lockstep`` every yield is also a barrier: no shard goes on
    before all have reached it. Each child writes a byte to its parent and
    waits for one back; the parent reads one from every child and answers
    them all. Once a shard has failed or died, the others stop at their
    next barrier instead of waiting there: a child's pipe to the parent
    reads empty, and the parent closes its pipes to the children. When
    there are CPUs enough, each lockstep shard is pinned to its own for the
    run (this process gets its CPU set back after it) and polls its pipe
    for up to ``SPIN_SECONDS`` before it sleeps at a barrier. Unpinned, the
    scheduler tends to wake a shard on the CPU of the shard that woke it,
    and the two take turns there while another CPU idles; and a shard that
    sleeps at every barrier waits for a wake-up that costs up to a
    millisecond on a virtual machine.

    Python 3.12 and later warn that ``fork`` is called with threads
    running once OpenBLAS has started its thread pool, which OpenBLAS shuts
    down before a fork; the warning is left as it is.
    """
    children = {}  # shard index -> [pid, report fd, barrier fds...]
    cpus = _home_cpus(len(shards)) if lockstep else None
    affinity = os.sched_getaffinity(0) if cpus else None
    try:
        for index in range(1, len(shards)):
            inherited = [fd for _, *fds in children.values() for fd in fds]
            children[index] = _fork_shard(
                run_shard, shards[index], inherited, lockstep,
                cpus[index] if cpus else None)
        if cpus:
            _pin(cpus[0])
        failures = []
        failure = _drive(run_shard(shards[0]),
                         _parent_barrier(children, bool(cpus))
                         if lockstep and children else None)
        if failure is not None:
            if not isinstance(failure[1], Exception):
                raise failure[1]  # an interrupt: stop the children
            failures.append((failure[0], 0, failure[1]))
        if lockstep:  # a child waiting at a barrier stops there
            for child in children.values():
                os.close(child.pop())
        for index in list(children):
            pid, report, *up = children[index]
            failure = _reap(pid, report, name(shards[index]))
            for fd in up:
                os.close(fd)
            del children[index]
            if failure is not None:
                failures.append((failure[0], index, failure[1]))
    finally:
        if affinity is not None:
            os.sched_setaffinity(0, affinity)
        for pid, *fds in children.values():
            for fd in fds:
                with contextlib.suppress(OSError):
                    os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failures:
        raise min(failures, key=lambda f: f[:2])[2]


def _home_cpus(count: int) -> list[int] | None:
    """A CPU of its own for each of ``count`` shards, or None when this
    process may run on fewer CPUs or cannot be pinned."""
    if count < 2 or not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[:count] if len(cpus) >= count else None


def _pin(cpu: int) -> None:
    """Run this process on ``cpu`` alone; where that is refused, the run
    goes on unpinned."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {cpu})


def _parent_barrier(children: dict, spin: bool):
    """The parent's side of the barrier: wait for every child, then let
    them all go on. False, with none let go, once a child has ended."""
    def barrier() -> bool:
        # a child's pipe reads empty once it has ended
        if not all([_read_byte(up, spin)
                    for _, _, up, _ in children.values()]):
            return False
        for *_, down in children.values():
            os.write(down, b".")
        return True
    return barrier


def _read_byte(fd: int, spin: bool) -> bytes:
    """One byte from a non-blocking pipe, b"" once its writer has ended;
    with ``spin``, polled for up to ``SPIN_SECONDS`` before sleeping."""
    deadline = time.perf_counter() + (SPIN_SECONDS if spin else 0.0)
    while True:
        try:
            return os.read(fd, 1)
        except BlockingIOError:
            if time.perf_counter() > deadline:
                poller = select.poll()
                poller.register(fd, select.POLLIN)
                poller.poll()


def _drive(shard, barrier=None):
    """Exhaust a shard's generator: None, or (rank, exception) on failure,
    the rank being the last one the generator yielded. ``barrier()`` runs
    at every yield; when it returns False the shard stops, with None."""
    rank = (0,)
    try:
        for rank in shard:
            if barrier is not None and not barrier():
                return None
    except BaseException as exc:  # noqa: B036 - reported, not swallowed
        return rank, exc
    return None


def _fork_shard(run_shard, shard, inherited: list[int], lockstep: bool,
                cpu: int | None = None) -> list[int]:
    """Fork a child that runs one shard, pinned to ``cpu`` when given:
    [pid, report fd], and with ``lockstep`` the parent's ends of the
    barrier pipes (from the child, to the child).

    The child writes nothing to the report pipe on success and a pickled
    (rank, exception) on failure, then leaves through ``os._exit``, so no
    cleanup of the parent's runs twice.
    """
    pipes = [os.pipe() for _ in range(3 if lockstep else 1)]
    pid = os.fork()
    if pid:
        # keep the read ends of the report and barrier-up pipes and the
        # write end of the barrier-down pipe; each reads empty once the
        # child has ended
        keep = [pipes[0][0]]
        if lockstep:
            keep += [pipes[1][0], pipes[2][1]]
            os.set_blocking(pipes[1][0], False)
        for fd in {fd for pair in pipes for fd in pair} - set(keep):
            os.close(fd)
        return [pid, *keep]
    code = 1
    try:
        for fd in [pipes[0][0], *inherited]:
            os.close(fd)
        if cpu is not None:
            _pin(cpu)
        barrier = None
        if lockstep:
            (up_read, up), (down, down_write) = pipes[1:]
            os.close(up_read)
            os.close(down_write)
            os.set_blocking(down, False)

            def barrier():
                os.write(up, b".")
                return _read_byte(down, cpu is not None) == b"."

        failure = _drive(run_shard(shard), barrier)
        with os.fdopen(pipes[0][1], "wb") as pipe:
            if failure is not None:
                pipe.write(_pickled_failure(*failure))
        code = 0
    finally:
        os._exit(code)


def _pickled_failure(rank: tuple, exc: BaseException) -> bytes:
    """(rank, exc) pickled; an exception that does not survive the round
    trip travels as an InternalError with its class name and message."""
    try:
        blob = pickle.dumps((rank, exc))
        pickle.loads(blob)
        return blob
    except Exception:
        return pickle.dumps((rank, InternalError(
            f"{type(exc).__name__}: {exc}")))


def _reap(pid: int, fd: int, name: str):
    """Wait for one shard's child: None, or (rank, exception) of its
    failure. A child that ended without a report ranks before any step."""
    with os.fdopen(fd, "rb") as pipe:
        report = pipe.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status == 0:
        return pickle.loads(report) if report else None
    how = f"signal {-status}" if status < 0 else f"exit status {status}"
    return (-1,), InternalError(f"{name} ended with {how} and no report")
