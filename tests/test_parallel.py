"""The fork runner: a run whose shards never wait for each other still
stops every shard at the step after a failure, and still raises the
failure a one-shard run meets first."""
import os
import time

import pytest

from twoscale import parallel
from twoscale.errors import InternalError

from forks import assert_no_child_left, deadline

STEPS = 400


def stepping_shards(fail):
    """Three shards of STEPS steps of about 1 ms each; ``fail(shard, n)``
    runs at the start of step n, and the last step each shard began is
    kept in shared memory."""
    progress = parallel.shared_zeros([(3,)])[0]

    def run_shard(shard):
        for n in range(1, STEPS + 1):
            yield n, shard
            fail(shard, n)
            progress[shard] = n
            time.sleep(1e-3)

    return run_shard, progress


def run(run_shard):
    with deadline(60):
        parallel.run_shards(run_shard, [0, 1, 2], lambda s: f"shard {s}")


def test_a_dead_child_stops_every_other_shard():
    def fail(shard, n):
        if shard == 2 and n == 3:
            os._exit(3)

    run_shard, progress = stepping_shards(fail)
    with pytest.raises(InternalError,
                       match="shard 2 ended with exit status 3 and no report"):
        run(run_shard)
    assert_no_child_left()
    assert max(progress[:2]) < STEPS // 2


def test_a_lagging_shard_still_meets_its_earlier_failure():
    # shard 0 fails at step 5 while shard 1, which fails at step 3, has
    # not started; a one-shard run meets step 3 first, so shard 1 goes on
    # to it, and shard 2 stops at a step after the failures
    def fail(shard, n):
        if shard == 1 and n == 1:
            time.sleep(0.2)
        if (shard, n) in ((0, 5), (1, 3)):
            raise ValueError(f"shard {shard} fails at step {n}")

    run_shard, progress = stepping_shards(fail)
    with pytest.raises(ValueError, match="shard 1 fails at step 3"):
        run(run_shard)
    assert_no_child_left()
    assert list(progress[:2]) == [4, 2]
    assert progress[2] < STEPS // 2
