"""Host-speed reference for the benchmark's timing metrics.

The benchmark runs on shared hosts whose speed drifts by 10-30% over tens of
seconds to minutes, for every kind of work at once: interpreter loops, small
numpy calls and BLAS alike.  Medians inside one run cannot remove a drift
that lasts longer than the run.  So the timed loop also times this fixed
reference, which uses numpy and plain Python but no curvkit code, between
ops, and scales each op's wall time by how fast the host ran the reference
meanwhile.

The reference mixes the three kinds of work that curvkit's ops do, in about
equal parts: a pure-Python loop, small complex numpy linear algebra called
from Python, and one mid-size complex SVD.  Its inputs are fixed, and its
code must stay as it is: a change here changes every corrected time.
"""

import statistics
import time

import numpy as np

# Corrected times are the times on a host that runs one reference in this
# many seconds.  It is about the reference's median on the 2-vCPU Xeon host
# the benchmark was built on, so corrected times read like wall times there.
NOMINAL_S = 0.025
# op time between two references; each pass also ends with one
EVERY_S = 0.5

_RNG = np.random.default_rng(2311_11379)
_BIG = _RNG.standard_normal((150, 150)) + 1j * _RNG.standard_normal((150, 150))
_SMALL = [_RNG.standard_normal((8, 8)) + 1j * _RNG.standard_normal((8, 8)) for _ in range(6)]


def reference_s() -> float:
    """Wall time of one run of the fixed reference work."""
    start = time.perf_counter()
    total = 0
    for k in range(60000):
        total += (k * k) % 7
    for _ in range(30):
        for b in _SMALL:
            h = b @ b.conj().T
            np.linalg.eigvalsh(h)
            np.linalg.svd(b)
            np.linalg.norm(h)
    np.linalg.svd(_BIG)
    return time.perf_counter() - start


def factor() -> float:
    """The nominal reference time over the median of three fresh ones:
    multiply a wall time measured just before by it."""
    return NOMINAL_S / statistics.median(reference_s() for _ in range(3))
