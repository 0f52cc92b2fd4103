"""Seconds at reference speed: timings that do not drift with the host.

The benchmark runs on shared machines whose speed changes by up to 1.9x
within a minute, in stretches of tens of seconds, as other tenants come and
go.  CPU time drifts with it.  So every timed interval is bracketed by
probes: a fixed pure-Python reference loop, timed.  An interval's seconds
are scaled by ``REF_S / r``, where ``r`` is the median of the probes around
it, so they read as seconds on a host that runs the loop in ``REF_S``.
A change to the program cannot change the probes; a change to the loop or
to ``REF_S`` redefines every timing metric.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.004       # the loop's usual time on a shared 2-core Xeon VM
REF_ITERS = 12000
WINDOW = 3          # probes used on each side of an interval


def reference_loop(n: int = REF_ITERS) -> int:
    """The mix specalt's hot paths are made of: dict and set lookups, list
    appends, integer arithmetic and calls.  It allocates only its three
    containers, so it never sets off the garbage collector: a probe's time
    does not depend on how much the program keeps alive."""
    table: dict = {}
    seen = set()
    out = []
    acc = 0
    for i in range(n):
        key = (i & 63) << 5 | (i * 7) & 31
        acc += table.get(key, i) * 3 % 11
        table[key] = acc
        if key not in seen:
            seen.add(key)
            out.append(key)
        acc = _step(acc, i)
    return acc + len(out)


def _step(acc: int, i: int) -> int:
    return (acc ^ i) & 0xFFFF


class Clock:
    """Probes taken in order.  ``probe()`` returns the index of the probe it
    took; an interval timed right after probe ``k`` is scaled with the
    probes from ``k - WINDOW + 1`` to ``k + WINDOW``, so the caller must
    probe again after the interval."""

    def __init__(self):
        self.refs: list[float] = []

    def probe(self) -> int:
        t0 = time.perf_counter()
        reference_loop()
        self.refs.append(time.perf_counter() - t0)
        return len(self.refs) - 1

    def scale(self, k: int) -> float:
        near = self.refs[max(0, k - WINDOW + 1):k + WINDOW + 1]
        return REF_S / statistics.median(near)

    def scaled(self, seconds: float, k: int) -> float:
        return seconds * self.scale(k)
