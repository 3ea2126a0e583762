"""The process-wide thread pool in a forked child."""

import multiprocessing
import time

import pytest

from diracdg import pool


def _map_in_child():
    assert list(pool.map(abs, [-1, -2])) == [1, 2]


@pytest.mark.skipif(pool._cpus() < 2, reason="the pool has one thread")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
def test_forked_child_makes_its_own_pool():
    # two tasks that overlap start both pool threads, which a child lacks
    list(pool.map(time.sleep, [0.2, 0.2]))
    child = multiprocessing.get_context("fork").Process(target=_map_in_child)
    child.start()
    child.join(30)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the child's pool.map did not finish in 30 s")
    assert child.exitcode == 0
