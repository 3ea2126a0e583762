"""One process-wide thread pool for the large 2D layers.

A 2D step at full scale spends most of its time in two layers whose work
splits into independent parts: the pointwise cascade of `cascade.time_jet`
(its blocks of points) and the basis contractions of `mesh.table_dot`
(the rows of one matmul).  A third layer is the wave-profile sum of
`waves._clenshaw` (its blocks of points), which the projection of the
initial state and the exact-error evaluation pay on a full-scale wave mesh.
numpy releases the interpreter lock inside all three, so two threads run
them on two cores.  The pool has two worker
threads, or one where the process may run on only one CPU; nothing else
selects it.

A call goes through the pool when its operand (for the profile sum, its
result) holds at least `MIN_ELEMENTS` elements (`large`); every smaller
call runs on the calling thread as before.  All three layers split only
pointwise work or whole rows, so a pooled result equals the serial one bit
for bit.

Creating the pool applies the policy of `diracdg.heap` first, so the
worker threads allocate from the one heap arena that policy keeps mapped
and BLAS starts no threads of its own.  A forked child has none of
its parent's threads; it drops the parent's pool and makes its own on
first use.
"""

from __future__ import annotations

import os
import threading

from .heap import keep_freed_heap_mapped

# Operand elements from which a call goes through the pool: six cascade
# blocks of 16384 points, or 65536 rows of P2 coefficients.  It puts every
# call of a 200^2 P2 step on the pool (the smallest, an edge jet, holds
# 4 x 40000 x 3 = 480 000 elements) and keeps every call of an 80^2 P2 step
# (at most 4 x 6400 x 9 = 230 400) and every 1D call serial.  On a 2-core
# Xeon, pooling every call made 80^2 P2 steps 13-20 % slower, broke even at
# 120^2 and paid from 160^2 on (CHANGES.md has the ladder).
MIN_ELEMENTS = 393_216

_pool = None
_lock = threading.Lock()


def large(a) -> bool:
    """Whether a call on the array `a` goes through the pool."""
    return a.size >= MIN_ELEMENTS


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _executor():
    global _pool
    with _lock:
        if _pool is None:
            # imported here: concurrent.futures adds 0.6 MB to the peak RSS
            # of a run that never uses the pool, a 1D run's 2 %
            from concurrent.futures import ThreadPoolExecutor

            keep_freed_heap_mapped()  # before the first worker thread exists
            _pool = ThreadPoolExecutor(min(2, _cpus()), "diracdg")
        return _pool


def map(fn, items):
    """fn over items on the pool: the results in the order of `items`, as
    an iterator like the builtin's; the first exception is raised there."""
    return _executor().map(fn, items)


def _forget():
    global _pool, _lock
    _pool, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)
