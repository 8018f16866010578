"""Host-speed calibration: fixed reference computations timed during a run.

The machine this benchmark runs on is shared.  Its speed drifts by tens of
percent over minutes and drops by ~1.7x for seconds at a time, with process
CPU time equal to wall time, so the drift is in the speed of execution
itself.  Two sets of runs of the same code twenty minutes apart read
medians up to 30% apart.  Interpreter-bound time figures are therefore
reported at a fixed reference host speed: the measured time times
``REFERENCE_S / t``, where ``t`` is the time the reference computation took
just before.  The reference computation, scalar math and small numpy calls
like the closed forms and the scans, uses neither gaussdisc nor anything a
change to it can alter, so the scaling cancels the host and keeps the
program.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

#: the fastest the reference computation ran on the 2-CPU host the
#: benchmark was built on (Python 3.11, numpy 2.4)
REFERENCE_S = 0.0062
_REPEATS = 2
_SMALL = np.array([[2.0, 0.5], [0.5, 1.0]])


def _reference() -> float:
    acc = 0.0
    for i in range(9000):
        x = 1.0 + i * 1e-3
        acc += math.exp(-x) * math.log1p(x) / (1.0 + x * x) + math.sqrt(x) ** 0.3
        if i % 10 == 0:
            acc += float(np.linalg.det(_SMALL * x))
    return acc


def host_factor() -> float:
    """REFERENCE_S over the best of _REPEATS timings of the reference now:
    below 1 when the host is slower than the reference."""
    best = math.inf
    for _ in range(_REPEATS):
        start = perf_counter()
        _reference()
        best = min(best, perf_counter() - start)
    return REFERENCE_S / best
