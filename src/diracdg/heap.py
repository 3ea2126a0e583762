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
rkdg step ran 2.2x slower that way).  The policy changes where memory
comes from, never a computed value.
"""

from __future__ import annotations

import ctypes

M_TRIM_THRESHOLD = -1  # option numbers from glibc's <malloc.h>
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 1 << 30

_applied = None  # None until the first call, then whether mallopt took both


def _libc():
    """The C library of this process if it is glibc, else None."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no handle to the running process here
        return None
    return libc if hasattr(libc, "gnu_get_libc_version") else None


def keep_freed_heap_mapped() -> bool:
    """Apply the policy once per process; later calls do nothing.  Returns
    whether glibc accepted both thresholds (False where there is no glibc
    or it has no ``mallopt``)."""
    global _applied
    if _applied is None:
        mallopt = getattr(_libc(), "mallopt", None)
        if mallopt is None:
            _applied = False
        else:
            mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            mallopt.restype = ctypes.c_int
            # no trim threshold without the mmap threshold (see above)
            _applied = bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(
                mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
            )
    return _applied
