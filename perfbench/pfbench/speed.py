"""The machine's momentary speed, read from a fixed piece of polynomial arithmetic.

The machine is shared, and the same work takes different times from minute
to minute. Between 20-second runs of one workload, every pass of one run
took 2.1-2.4 s and every pass of another 3.8-3.9 s. A run rarely sees both
speeds, so no statistic over its own passes removes the difference.

The chunk multiplies two fixed dense bivariate polynomials stored as dicts
with Fraction coefficients. That is the kind of work ``bipoly`` does for
the program, so the chunk slows down with it. Chunks and the program were
alternated for 160 s in 8-second windows. The quartile spread of the
windows' medians was 20.8% for `pf system` on a mu 9 quartic and 7.0% for
its ratio to the chunk; for `build_system` at mu 16, 15.6% and 10.9%.

A run times one chunk before every operation and one after the last. Each
operation's seconds are multiplied by ``REFERENCE_S`` over the mean of the
chunks on its two sides. The figures are seconds at the speed at which a
chunk takes ``REFERENCE_S``, about this machine's usual speed. The measured
seconds are kept next to them.
"""

import time
from fractions import Fraction

REFERENCE_S = 0.012

_P = {(a, d - a): Fraction((7 * a + 3 * d) % 11 - 5, (a + d) % 7 + 1)
      for d in range(9) for a in range(d + 1)}
_Q = {(a, d - a): Fraction((5 * a + d) % 13 - 6, (2 * a + d) % 5 + 1)
      for d in range(9) for a in range(d + 1)}


def chunk_seconds():
    """Seconds for one product of the two fixed degree-8 polynomials."""
    start = time.perf_counter()
    product = {}
    for (a, b), c in _P.items():
        for (e, f), g in _Q.items():
            key = (a + e, b + f)
            product[key] = product.get(key, 0) + c * g
    return time.perf_counter() - start


class SpeedMeter:
    """Chunk times taken between timed intervals, and the scale of each interval."""

    def __init__(self):
        self.marks = []

    def mark(self):
        """Time one chunk; call before every interval and after the last."""
        self.marks.append(chunk_seconds())

    def scales(self):
        """Per interval: REFERENCE_S over the mean chunk time on its two sides."""
        return [2 * REFERENCE_S / (before + after)
                for before, after in zip(self.marks, self.marks[1:])]
