"""A fixed amount of work that does not touch ifsdim, to gauge the
machine's speed while a run lasts.

The machine this benchmark was written on changes speed by up to 1.8x
in phases of seconds to minutes, the same for every process on it, so
raw times of one run say as much about the phase it fell in as about
the program.  Every interpreter of a run times ``kernel`` after its
operations and their checks, and run.py scales the run's times by how
long the kernel took (see ``speed_factor``).  The kernel faults in
fresh pages and churns small objects: of the kernels tried (a
pure-Python loop over numpy calls, large fresh arrays, fresh pages,
small-object churn), fresh pages and churn tracked the operations'
times best across runs.  It runs after the operations' peak memory has
been read.
"""

from __future__ import annotations

import mmap
import statistics
import time

import numpy as np

#: median kernel time at the speed the scaled times refer to, in seconds
REFERENCE_S = 0.15

_PAGE = 4096
_MAP = 1 << 20


def kernel() -> int:
    """Map 1 MiB, touch each page and unmap, 150 times; then build and
    drop 100 lists of 6000 small tuples."""
    total = 0
    for _ in range(150):
        with mmap.mmap(-1, _MAP) as m:
            view = np.frombuffer(m, dtype=np.uint8)
            view[::_PAGE] = 1
            total += int(view[_PAGE])
            del view
    for _ in range(100):
        rows = [(i, float(i)) for i in range(6000)]
        total += len(rows)
    return total


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed_factor(kernel_times) -> float:
    """REFERENCE_S over the median kernel time of a run: multiply a time
    measured in the run by this to get it at the reference speed."""
    return REFERENCE_S / statistics.median(kernel_times)
