"""Host-speed calibration for timings taken on a shared machine.

On a host shared with other tenants the same pass of pressurelab can take
anywhere from 1x to 1.5x its time, in phases that last from a fraction of
a second to minutes; a median over the passes of one run cannot remove a
phase that covers the whole run. ``kernel_s`` times a fixed piece of
Python work with the same mix as pressurelab's hot loops (calls, dict
memo lookups, tuple slices, math.exp/log, small numpy calls). A timing
taken next to it is reported as ``scaled(t, k) = t * REFERENCE_S / k``:
seconds on a host where the kernel takes REFERENCE_S. Work the program
adds or removes moves the scaled time as it moves the raw one; the host's
phase moves both the timing and the kernel, and cancels.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Kernel time that defines the reference host speed (about its median on
#: a 2.1 GHz Xeon vCPU of a shared host, so scaled times stay near raw ones).
REFERENCE_S = 0.006

_TABLE = {(a, b): 0.1 * a - 0.05 * b for a in range(3) for b in range(3)}
_WORD = tuple((i * 7 + i // 3) % 3 for i in range(4000))
_ROW = np.arange(16.0)


def _window(word, i):
    return _TABLE.get(word[i:i + 2], 0.0)


def _work() -> float:
    memo = {}
    acc = 0.0
    for r in range(3):
        for i in range(len(_WORD) - 1):
            key = (r, i & 255, _WORD[i])
            got = memo.get(key)
            if got is None:
                memo[key] = got = math.log1p(math.exp(_window(_WORD, i)))
            acc += got
    for i in range(300):
        acc += float(np.max(_ROW + i))
    return acc


def kernel_s() -> float:
    """Seconds one run of the calibration kernel takes now."""
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started


def scaled(seconds: float, kernel: float) -> float:
    """``seconds`` at the reference host speed, given the kernel time next to it."""
    return seconds * REFERENCE_S / kernel
