"""Fixed reference tasks that measure how fast the host runs right now.

The host this benchmark was built on slows down by up to 2x for seconds
at a time, with CPU time equal to wall time, so the slowdown comes from
outside the process (see README.md).  Timing a reference task just before
and after each operation and scaling the operation's time by
(reference time on an idle core) / (reference time now) removes most of
that drift.

There are two references, for the two kinds of work timed:

* COMPUTE, for calls inside this process: pure Python in the style of the
  package's solvers (a golden-section search over a sum of log-sinh
  terms, plus dict work), so it slows down the way the package does;
* STARTUP, for new processes: a bare ``python -c pass``, which slows down
  the way interpreter start and imports do.

Neither calls the package, so a change to the package moves the scaled
times by the full amount.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

# times on an idle core of the machine the benchmark was built on; scaled
# times are wall times at that speed
REFERENCE_MS = 0.45
STARTUP_MS = 50.0
REPEATS = 5

_W = (5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _exponent(lam: float) -> float:
    return math.fsum(math.log(math.sinh(lam * w) / (lam * w)) for w in _W) - lam * 12.0


def reference() -> float:
    lo, hi = 1e-3, 5.0
    for _ in range(60):
        a = hi - _INVPHI * (hi - lo)
        b = lo + _INVPHI * (hi - lo)
        if _exponent(a) < _exponent(b):
            hi = b
        else:
            lo = a
    for _ in range(3):
        d: dict[int, int] = {}
        for i in range(400):
            d[i % 37] = d.get(i % 37, 0) + i
    return lo


def reference_ms() -> float:
    """Median wall time of REPEATS reference() calls, in ms.

    One call jitters by about 10%; the median of five keeps the scale
    factor's own noise well below the host's drift.
    """
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        reference()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def startup_ms() -> float:
    """Wall time of a bare interpreter start, in ms."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return (perf_counter() - t0) * 1e3


COMPUTE = (reference_ms, REFERENCE_MS)
STARTUP = (startup_ms, STARTUP_MS)


def timed(fn, reference=COMPUTE):
    """Run fn(); return (its result, wall seconds, seconds scaled to the idle speed)."""
    measure, idle_ms = reference
    before = measure()
    t0 = perf_counter()
    out = fn()
    dt = perf_counter() - t0
    after = measure()
    return out, dt, dt * idle_ms / (0.5 * (before + after))
