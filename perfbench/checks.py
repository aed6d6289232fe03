"""Reference computations the benchmark checks the daemons' outputs against.

They are kept here, apart from the program, so that a faster ``quantize``
or ``MeterState`` in the program is still checked against the definition.
"""

from __future__ import annotations

import math
from fractions import Fraction

WS_PER_KWH = 3.6e6
GAP_LIMIT_INTERVALS = 10  # the API daemon integrates no gap longer than this
KWH_REL_TOL = 1e-9


def quantize_ref(watts: float, precision_w: float) -> float:
    """Nearest multiple of the precision, ties away from zero, exact quotient."""
    steps = math.floor(abs(Fraction(watts)) / Fraction(precision_w) + Fraction(1, 2))
    return math.copysign(steps * precision_w, watts)


def kwh_ref(samples: list[tuple[float, float]], gap_limit_s: float) -> float:
    """Trapezoid sum over (timestamp, watts) in delivery order, skipping gaps."""
    total = 0.0
    for (t0, w0), (t1, w1) in zip(samples, samples[1:]):
        if t1 - t0 <= gap_limit_s:
            total += (w0 + w1) / 2.0 * (t1 - t0) / WS_PER_KWH
    return total


def kwh_matches(got: float, want: float) -> bool:
    return abs(got - want) <= KWH_REL_TOL * max(abs(want), 1e-300)
