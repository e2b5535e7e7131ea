"""Machine-speed calibration of the benchmark's times.

The benchmark runs on a few cores of a shared host whose speed changes in
phases of seconds to minutes: the same `basis_constant` call takes 0.6 s in
one phase and 1.2 s in the next.  Medians and minima over a run do not
remove a phase that outlasts the run.  So the runner times a fixed
reference computation before the first job of each pass and after every
job, and rescales each job's time to what it would have taken at the
reference's nominal speed:

    calibrated = measured * REFERENCE_S / mean(reference times within
                 WINDOW_S seconds of the job)

Averaging the probes near a job, rather than taking only the two at its
edges, keeps one probe that meets a momentary stall from skewing the job.

The reference uses only the standard library (small `Fraction` arithmetic,
the same kind of work as csw's exact pivots and pairings), so no change to
csw can alter it; a change that makes csw faster lowers the calibrated time
by the same share as the raw one.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# Seconds one `reference()` call takes on the machine the bounds were tuned
# on (a 2-vCPU Xeon virtual machine at 2.1 GHz, Python 3.11.7) when its
# host is quiet.  Only a fixed scale: calibrated times are in seconds of
# that machine.
REFERENCE_S = 0.012
REFERENCE_TERMS = 3000
WINDOW_S = 2.0


def reference():
    """A fixed amount of small exact-rational arithmetic."""
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(i % 5 + 1, i % 13 + 2)
    return total


class SpeedLog:
    """Reference timings taken through a run, in the order they were taken."""

    def __init__(self):
        self.at = []       # midpoint of each probe, perf_counter seconds
        self.took = []     # seconds the probe's reference computation took

    def probe(self):
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.at.append((start + end) / 2)
        self.took.append(end - start)

    def calibrate(self, start, end):
        """Seconds the interval [start, end] would have taken at the nominal
        speed.  The caller probes right before and after it, so the window
        always holds at least those two probes."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return (end - start) * REFERENCE_S / statistics.fmean(self.took[lo:hi])
