"""Machine speed, measured with fixed standard-library work.

The benchmark machine is a shared VM whose speed drifts by tens of percent
over seconds to minutes, which moves every timing of a run together.  So
the benchmark times a fixed piece of reference work, which uses no
``hamgraphs`` code, between the ops it measures.  The garbage collector is
off while the reference runs, so the program's heap does not change it.

A measured time divided by the speed factor (reference time measured /
``NOMINAL_S``) is in reference seconds: the time the same work takes while
the machine runs the reference work in ``NOMINAL_S``.
"""

import gc
import hashlib
import statistics
import time
from fractions import Fraction

# the reference work's median time on the machine the bounds were set on
# (a shared 2-core x86-64 VM, Python 3.11)
NOMINAL_S = 0.003
INTERVAL_S = 0.2
BURST = 3


def _reference_work():
    """Fraction arithmetic and comparisons, string formatting, dict and
    tuple traffic, sorting and hashing: the mix the workloads spend on."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        f = Fraction(i, i % 7 + 2)
        acc += f
        if f > acc / 2:
            acc -= 1
        table["%d/%d" % (f.numerator, f.denominator)] = (f, i)
    ordered = sorted(table.values())
    digest = hashlib.sha256("".join(table).encode()).hexdigest()
    return acc, ordered[0], digest


def sample():
    """Seconds the reference work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor_now(n=5):
    """Speed factor from n samples taken now."""
    return statistics.median(sample() for _ in range(n)) / NOMINAL_S


class Meter:
    """Speed samples between ops: BURST samples at most every INTERVAL_S,
    and once more when the pass ends."""

    def __init__(self):
        self.samples = []
        self._last = None

    def tick(self, force=False):
        now = time.perf_counter()
        if force or self._last is None or now - self._last >= INTERVAL_S:
            self.samples += [sample() for _ in range(BURST)]
            self._last = time.perf_counter()

    def factor(self):
        return statistics.median(self.samples) / NOMINAL_S
