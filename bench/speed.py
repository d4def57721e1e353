"""Machine-speed calibration for timings taken on a shared, noisy host.

On the 2-vCPU VM this benchmark was defined on, the same chamber split ran
anywhere from 0.36 s to 0.71 s within two minutes: the host's speed swings
up to 2x on a time scale of seconds to tens of seconds.  ``calibrate()``
runs a fixed single-threaded kernel of the same kind of work as the program
(a Python loop, element-wise numpy, Qhull) and the benchmark divides each
timing by the kernel times measured just before and after it.  In a
100-second trial on that VM, the median body time of 10-body windows varied
by 19% (coefficient of variation) raw and by 4% so scaled.  Metrics are
then seconds at reference speed: the speed at which the kernel takes
``REFERENCE_S``.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial import ConvexHull

REFERENCE_S = 0.016
_POINTS = np.random.default_rng(0).standard_normal((40, 3))


def calibrate():
    """Seconds taken by the fixed calibration kernel right now."""
    t0 = time.perf_counter()
    for i in range(200):
        ConvexHull(_POINTS[: 10 + i % 30]).volume
        float((_POINTS * _POINTS).sum())
        sum({j: j * 0.5 for j in range(50)}.values())
    return time.perf_counter() - t0


def at_reference(seconds, before, after):
    """A timing scaled to reference speed by the kernel times around it."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
