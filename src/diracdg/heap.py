"""Process-wide glibc heap policy for runs with large per-step temporaries.

A 2D step allocates and frees tens of MB of full-mesh temporaries.  Under
glibc's default policy the freed heap top is trimmed back to the system
and the next step faults the same pages in again: thousands of minor page
faults per step, a third of the forced 80^2 P2 rkdg step.  Two fixed
thresholds keep the pages mapped for the whole run:

* ``M_MMAP_THRESHOLD`` at 32 MiB, glibc's own 64-bit ceiling for its
  dynamic threshold, so arrays larger than that still go to ``mmap`` and
  are returned to the system when freed;
* ``M_TRIM_THRESHOLD`` at 1 GiB, so the heap top is not handed back
  between steps.

Both are set together: a fixed trim threshold alone switches glibc's
dynamic mmap threshold off and leaves it at 128 KiB, so every temporary
above that size is mapped and unmapped on each use (the forced 80^2 P2
rkdg step ran 2.2x slower that way).

Two more settings serve the threads of `diracdg.pool`:

* ``M_ARENA_MAX`` at 1, so every thread allocates from the main arena,
  the one whose freed top the thresholds above keep mapped.  glibc would
  otherwise give each worker thread an arena of its own, with its own
  trimming and its own high-water mark.  Three 200^2 P2 lwdg steps on the
  pool peaked at 399 MB RSS that way against 353 MB with the cap, the
  same as serial steps (2-core Xeon).
* One thread for every OpenBLAS loaded into the process (the one numpy
  wheels carry exports ``scipy_openblas_set_num_threads64_``).  Its own
  threads would contend with the pool's for the same cores, and they buy
  nothing on these contractions of a few columns: the 80^2 P2 steps of
  ``ex46`` timed alike with one BLAS thread and with two, and a 250-step
  run burned twice the CPU time for the same wall time.

The heap settings change where memory comes from, never a computed value.
The BLAS thread count can change one: the dense LU solves of a 2D wave
profile's Newton iteration round differently on two OpenBLAS threads than
on one, so `waves.solve_standing_wave` applies the policy before it solves,
as `runner.run_simulation` and the pool do.  A 1D profile is a closed form
and needs no solve; only its stored residual, a product with the dense
differentiation matrix, can round by the thread count.
"""

from __future__ import annotations

import ctypes

import numpy  # noqa: F401  (loads the BLAS whose threads the policy sets)

M_TRIM_THRESHOLD = -1  # option numbers from glibc's <malloc.h>
M_MMAP_THRESHOLD = -3
M_ARENA_MAX = -8
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 1 << 30
ARENA_MAX = 1

_applied = None  # None until the first call, then whether mallopt took all three


def _libc():
    """The C library of this process if it is glibc, else None."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no handle to the running process here
        return None
    return libc if hasattr(libc, "gnu_get_libc_version") else None


# (set, get) thread-count entry points: numpy wheels' OpenBLAS, then the
# 64-bit-index and plain builds of a system OpenBLAS
_OPENBLAS_CALLS = [(f"{p}_set_num_threads{s}", f"{p}_get_num_threads{s}")
                   for p, s in (("scipy_openblas", "64_"), ("openblas", "64_"),
                                ("openblas", ""))]


def openblas_threads():
    """(set, get) of the thread count of every OpenBLAS loaded into this
    process, found by path in ``/proc/self/maps``; empty where there is no
    such file or library."""
    try:
        with open("/proc/self/maps") as fh:
            fields = (line.split(None, 5) for line in fh)
            paths = sorted({f[5].strip() for f in fields
                            if len(f) == 6 and "openblas" in f[5]})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_CALLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_, get = getattr(lib, set_name), getattr(lib, get_name)
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                get.argtypes, get.restype = (), ctypes.c_int
                found.append((set_, get))
                break
    return found


def keep_freed_heap_mapped() -> bool:
    """Apply the policy once per process; later calls do nothing.  Returns
    whether glibc accepted the three ``mallopt`` settings (False where
    there is no glibc or it has no ``mallopt``)."""
    global _applied
    if _applied is None:
        mallopt = getattr(_libc(), "mallopt", None)
        if mallopt is None:
            _applied = False
        else:
            mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            mallopt.restype = ctypes.c_int
            # no trim threshold without the mmap threshold (see above)
            thresholds = bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(
                mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
            )
            _applied = bool(mallopt(M_ARENA_MAX, ARENA_MAX)) and thresholds
        for set_threads, _ in openblas_threads():
            set_threads(1)
    return _applied
