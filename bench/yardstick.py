"""A fixed reference kernel that reads how fast the host runs at the moment.

On a shared host the same code runs up to about 1.5 times slower for
stretches of seconds to minutes, and such a stretch can cover a whole run.
The kernel is timed just before and just after each timed pair; the
benchmark reports a pair's time divided by the kernel's time around it, so
a slow stretch that slows both cancels out. The kernel is numpy and Python
work of the kinds the pipeline does (a small matmul, an elementwise pass
over a vector, a sort, an interpreted loop) on fixed inputs, and calls no
rigidflow code: a change to the library cannot move it.

Import only after `bootstrap.prepare()`, so the matmul runs on one thread.
"""

from __future__ import annotations

import time

import numpy as np

# Best of this many back-to-back runs; the fastest reads the host's current speed.
REPEATS = 3

_rng = np.random.default_rng(20210216)
_MATRIX = _rng.random((160, 160))
_VECTOR = _rng.random(60_000)
_KEYS = _rng.random(20_000)


def _kernel() -> float:
    total = float((_MATRIX @ _MATRIX)[0, 0])
    total += float(np.exp(_VECTOR).sum())
    total += float(_KEYS[np.argsort(_KEYS)[0]])
    acc = 0
    for i in range(3000):
        acc += i * i
    return total + acc


def seconds() -> float:
    """Time of one kernel run, the fastest of `REPEATS`, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best
