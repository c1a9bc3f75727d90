"""The reference task that measures the machine's current speed.

Fixed pure-Python work of the kind the library does (dicts keyed by exponent
pairs, integer products) that no change to the library can alter. It imports
nothing from the library, so setup probes can time it before importing it.
"""

from __future__ import annotations

import gc
import time


def reference_task() -> None:
    a = {(i, j): (7 * i + 3 * j) % 11 - 5 for i in range(8) for j in range(6)}
    b = {(i, j): (5 * i + j) % 7 - 3 for i in range(6) for j in range(5)}
    for _ in range(2):
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2


def time_reference() -> float:
    """Seconds one reference_task takes now, with the garbage collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_task()
        return time.perf_counter() - t0
    finally:
        gc.enable()
