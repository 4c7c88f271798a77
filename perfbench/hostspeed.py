"""Host-speed reference for the end-to-end times.

On a shared 2-vCPU VM (Intel Xeon, Python 3.11) the same pure-Python work
ran up to 2x slower for tens of seconds at a time, with CPU time tracking
wall time, so the cores themselves slowed down. Medians of raw pass time
over 28 s runs then spread by 0.11 to 0.24 of their value from run to run
(quartile distance over ten runs). So every job is timed between two calls
of ``reference``, a fixed pure-Python routine that never touches qipsim,
and its time is scaled by ``REFERENCE_S`` over the mean of those two calls.
On the same runs the scaled medians spread by 0.02 to 0.05.

A scaled time reads as seconds on a host that runs ``reference`` in
``REFERENCE_S``, about that VM's typical speed. It moves with qipsim's own
work exactly as wall time does, because ``reference`` does not depend on
qipsim.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.018

_TABLE = [[(a * b) % 251 for b in range(64)] for a in range(64)]


def _walk(depth: int, v: int, memo: dict) -> int:
    if depth == 0:
        return v
    key = (depth, v)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out = 0
    for r in range(4):
        out ^= _walk(depth - 1, _TABLE[v & 63][r * 7 & 63] ^ r, memo)
    memo[key] = out
    return out


def reference() -> float:
    """Seconds taken by a fixed mix of the interpreter work qipsim does:
    integer arithmetic, a memoized recursive walk over a lookup table, and
    short-lived tuples."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(80000):
        acc = (acc * 31 + i) & 0xFFFF
    for s in range(20):
        _walk(6, s, {})
    tuples = [tuple(range(i % 5)) for i in range(10000)]
    del tuples
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """A time measured between two ``reference`` calls, at reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
