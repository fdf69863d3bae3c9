"""Checks for tests of runs stepped by forked shards: that every child was
reaped, and that a shard blocked at a barrier fails the test instead of
hanging it."""
import contextlib
import os
import signal

import pytest


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds):
    """Fail, instead of hanging, when a shard blocks at a barrier."""
    def expire(signum, frame):
        raise AssertionError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
