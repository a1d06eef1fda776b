"""Timing scaled to a nominal host speed.

On the 2-core VM where the README's figures were measured, the host's speed
changes by up to 2x within seconds with load from outside the VM: the same
10-trajectory batch took from 0.43 s to 0.97 s within 90 s. A fixed
pure-Python loop, run just before and just after each timed call (the median
of a burst of them, for long calls), measures the host's speed then; each
call's time is scaled by REF_NOMINAL_S over the mean of those two loops, so
times read as on a host where the loop takes REF_NOMINAL_S. The loop calls no
package code, so no change to the package can move it. README.md ("Noise")
gives the spreads with and without the scaling.
"""
import math
import statistics
import time

REF_ITERATIONS = 50_000
REF_NOMINAL_S = 0.005


def reference_s():
    """Seconds the reference loop takes right now."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(REF_ITERATIONS):
        s += math.cos(i * 1e-3)
    return time.perf_counter() - t0


class Clock:
    """Times calls; keeps their raw and scaled sums.

    Each mark between calls runs the reference loop `burst` times and keeps
    the median, which steadies the mark when calls are long.
    """

    def __init__(self, burst=1):
        self.burst = burst
        self._ref = self._mark()
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def _mark(self):
        return statistics.median(reference_s() for _ in range(self.burst))

    def __call__(self, fn, *args):
        """Run fn(*args); return (its result, its scaled seconds)."""
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        ref = self._mark()
        scaled = raw * 2.0 * REF_NOMINAL_S / (self._ref + ref)
        self._ref = ref
        self.raw_s += raw
        self.scaled_s += scaled
        return out, scaled
