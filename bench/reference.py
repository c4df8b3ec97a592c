"""Reference work that measures the machine's own speed during a run.

The host this benchmark runs on changes speed by up to half from one
stretch of seconds to the next, and the stretches can be as long as a
run. So the run puts a little fixed reference work after each op, about
``SHARE`` of the op's time, and reports op times in reference seconds: a
wall time divided by the mean wall time of a reference unit, over
``UNITS_PER_REF_S``. A rate over the whole run uses the run's mean unit;
one op's time uses the mean unit of the samples right before and after it.

A change to the library moves the op time and not the reference; a
slower stretch of the machine moves both. The reference touches nothing
of the library.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Reference units in one reference second. One unit takes about 1 ms on
#: a 2-vCPU x86-64 cloud host, so a reference second is about a second there.
UNITS_PER_REF_S = 1000
#: Reference time run after each op, as a share of that op's wall time.
SHARE = 0.05


def unit():
    """One reference unit: a pure-Python integer loop and a small-array numpy loop.

    The library's ops mix interpreted Python with numpy calls on small
    arrays, and the two slow down by different amounts when the host is
    busy, so the reference mixes them too.
    """
    s = 0
    for i in range(5000):
        s += i * i % 7
    a = np.arange(64.0)
    for _ in range(150):
        a = np.sqrt(a * a + 1.0)[::-1].copy()
    return s, a


class Reference:
    """Reference units run between ops and their summed wall time."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def sample(self, op_seconds: float) -> float:
        """Run units until they take ``SHARE`` of ``op_seconds``; at least one.

        Returns the mean wall time of a unit in this sample.
        """
        units = 0
        spent = 0.0
        while True:
            start = perf_counter()
            unit()
            spent += perf_counter() - start
            units += 1
            if spent >= SHARE * op_seconds:
                break
        self.units += units
        self.seconds += spent
        return spent / units

    def unit_s(self) -> float:
        """Mean wall time of one unit in this run."""
        return self.seconds / self.units

    def ref_s(self, seconds: float, unit_s: float | None = None) -> float:
        """Wall seconds in reference seconds, at ``unit_s`` or the run's mean unit."""
        return seconds / (unit_s or self.unit_s()) / UNITS_PER_REF_S
