"""A fixed pure-Python kernel that measures how fast the machine runs now.

On a shared machine the speed of one core drifts: on a 2-core machine
shared with other jobs, the same repetition of loop-filt took anywhere
from 1.9 s to 2.9 s within one minute, with process time equal to wall
time, so the drift is in the core's speed, not in waiting. The worker runs this kernel between chunks of items and scales
each item's time by REFERENCE_S / (kernel time around it), which turns
times into seconds at a reference speed. The kernel does the same kind of
work as approxcat's inner loops (exact arithmetic mod a small prime over
lists of ints, calls, allocation, dict and tuple traffic) and nothing of
approxcat, so a change to approxcat does not change it.
"""

import gc
import time

# the kernel's time at the reference speed, about its median on the machine
# the baseline was recorded on (Python 3.11.7, 2 cores)
REFERENCE_S = 0.003

_P = 7
_N = 8
_BASE = [[(i * 7 + j * 3 + 1) % _P for j in range(_N)] for i in range(_N)]
_POOL = [tuple((i * 31 + j) % 97 for j in range(6)) for i in range(8000)]


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a = a
        self.b = b
        self.c = c


def _mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(_N)) % _P for j in range(_N)]
        for i in range(_N)
    ]


def _rank(m):
    m = [row[:] for row in m]
    r = 0
    for c in range(_N):
        pivot = next((i for i in range(r, _N) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, _P)
        m[r] = [x * inv % _P for x in m[r]]
        for i in range(_N):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % _P for x, y in zip(m[i], m[r])]
        r += 1
    return r


def kernel():
    """Elimination mod 7 on small dense matrices, then many small objects
    built, hashed and dropped over a working set of a few megabytes: the
    second part follows the machine's memory system, which the first does
    not load."""
    m = _BASE
    total = 0
    for _ in range(12):
        m = _mul(m, _BASE)
        total += _rank(m)
    table = {}
    for i, t in enumerate(_POOL[::4]):
        cell = _Cell(t[0], t[1:], i)
        key = (cell.a, cell.b[0] % _P)
        table[key] = table.get(key, 0) + 1
        total += sum(x * cell.a for x in cell.b) % _P
    return total + len(table)


def measure():
    """Seconds the kernel takes right now. The garbage collector is off
    meanwhile, or the kernel's allocations would trigger collections whose
    cost grows with the calling process's heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def scale(times, marks):
    """Times at the reference speed. marks are (index, kernel seconds)
    pairs in index order, the first at index 0 and the last at len(times);
    the items between two marks are scaled by the mean of the two."""
    out = []
    for (start, before), (end, after) in zip(marks, marks[1:]):
        factor = REFERENCE_S / ((before + after) / 2)
        out.extend(t * factor for t in times[start:end])
    return out
